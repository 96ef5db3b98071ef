import pytest

from momang import charpair
from momang.combinatorics import simple_polytope
from momang.errors import ShapeError, ValidationError


def segment():
    return simple_polytope(2, 1, [[1], [2]])


def square():
    return simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])


def simplex(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return simple_polytope(m, n, verts)


def projective_matrix(n):
    cols = [[1 if r == i else 0 for r in range(n)] for i in range(n)]
    cols.append([-1] * n)
    return charpair.from_columns(cols)


def hirzebruch(a):
    return charpair.from_columns([[1, 0], [0, 1], [-1, a], [0, -1]])


def test_matrix_accessors():
    lam = hirzebruch(2)
    assert lam.column(3) == [-1, 2]
    assert lam.columns((2, 4)) == [[0, 0], [1, -1]]
    assert lam.rows() == [[1, 0, -1, 0], [0, 1, 2, -1]]


def test_from_columns_rejects_ragged():
    with pytest.raises(ShapeError):
        charpair.from_columns([[1, 0], [1]])


def test_accepts_projective_family():
    for n in range(1, 4):
        report = charpair.validate_characteristic_pair(simplex(n), projective_matrix(n))
        assert report.valid, report.failures


def test_accepts_hirzebruch_family():
    for a in range(-3, 4):
        report = charpair.validate_characteristic_pair(square(), hirzebruch(a))
        assert report.valid, report.failures
        assert set(report.vertex_determinants) == {(1, 2), (2, 3), (3, 4), (1, 4)}
        assert all(abs(d) == 1 for d in report.vertex_determinants.values())


def test_rejects_determinant_two_mutant():
    lam = charpair.from_columns([[1, 0], [0, 1], [-1, 2], [2, -1]])
    report = charpair.validate_characteristic_pair(square(), lam)
    assert not report.valid
    assert report.vertex_determinants[(3, 4)] == -3
    assert any("[3, 4]" in f for f in report.failures)


def test_rejects_non_primitive_column():
    lam = charpair.from_columns([[2, 0], [0, 1], [-1, 1], [0, -1]])
    report = charpair.validate_characteristic_pair(square(), lam)
    assert not report.valid
    assert report.column_primitivity[1] is False
    assert any("facet 1" in f for f in report.failures)


def test_lower_face_gcd_reported():
    report = charpair.validate_characteristic_pair(square(), hirzebruch(1))
    assert report.face_minor_gcds[(1,)] == 1
    assert set(report.face_minor_gcds) == {(1,), (2,), (3,), (4,)}


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        charpair.validate_characteristic_pair(square(), projective_matrix(2))


def test_functor_construction_guards():
    with pytest.raises(ValidationError, match="empty label"):
        charpair.isotropy_functor(2, [[1], []])
    with pytest.raises(ValidationError, match="universe"):
        charpair.isotropy_functor(2, [[1], [3]])


def test_functor_accepts_hopf():
    f = charpair.isotropy_functor(2, [[1], [2]])
    report = charpair.validate_quaternionic_functor(segment(), f)
    assert report.valid
    assert report.disjoint_at_faces and report.injective_on_faces


def test_functor_rejects_duplicated_labels():
    f = charpair.isotropy_functor(2, [[1], [1]])
    report = charpair.validate_quaternionic_functor(segment(), f)
    assert not report.valid
    assert not report.injective_on_faces


def test_functor_rejects_overlap_at_face():
    # facets 1 and 2 meet at a vertex of the triangle but share label 1
    p = simplex(2)
    f = charpair.isotropy_functor(3, [[1, 2], [1], [3]])
    report = charpair.validate_quaternionic_functor(p, f)
    assert not report.valid
    assert not report.disjoint_at_faces


def test_global_condition_truth_table():
    # all eight disjoint/nested/overlap patterns on two facets of a segment
    cases = [
        (([1], [2]), True),         # disjoint singletons
        (([1], [1, 2]), True),      # nested
        (([1, 2], [1]), True),      # nested, other order
        (([1, 2], [3, 4]), True),   # disjoint blocks
        (([1, 2], [2, 3]), False),  # proper overlap
        (([1, 3], [2, 3]), False),  # proper overlap, shifted
        (([1, 2, 3], [2]), True),   # nested deep
        (([1, 2], [1, 3]), False),  # overlap in the first slot
    ]
    for (g1, g2), expected in cases:
        f = charpair.isotropy_functor(4, [g1, g2])
        assert charpair.validate_global(f) is expected, (g1, g2)


def test_functor_facet_count_mismatch():
    f = charpair.isotropy_functor(2, [[1]])
    with pytest.raises(ValidationError):
        charpair.validate_quaternionic_functor(segment(), f)
