import pytest

from momang import bundles, cohomology, intlat
from momang.charpair import from_columns, isotropy_functor
from momang.combinatorics import simple_polytope
from momang.errors import ShapeError, UnsupportedBaseError, ValidationError


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
    return from_columns(cols)


def hirzebruch(a):
    return from_columns([[1, 0], [0, 1], [-1, a], [0, -1]])


def test_kernel_sequence_splits():
    for lam in [projective_matrix(1), projective_matrix(2), hirzebruch(2)]:
        kernel, section = bundles.kernel_sequence(lam)
        rows = lam.rows()
        assert intlat.mat_mul(rows, section) == intlat.identity(lam.n)
        for row in kernel.a:
            assert intlat.mat_vec(rows, row) == [0] * lam.n
        assert intlat.invariant_factors(kernel.a) == [1] * (lam.m - lam.n)


def test_kernel_sequence_rejects_nonsurjective():
    lam = from_columns([[2], [-2]])
    with pytest.raises(ValidationError):
        bundles.kernel_sequence(lam)


def test_hopf_datum():
    p = segment()
    lam = projective_matrix(1)
    tup = bundles.kernel_chern_classes(p, lam, diagnostics=True)
    assert [list(c.coordinates) for c in tup.classes] == [[1]]
    assert tup.basis_flag
    # the contraction gives twice a generator, never the Hopf class
    assert [list(c.coordinates) for c in tup.contracted_classes] == [[2]]


def test_diagnostics_off_by_default():
    tup = bundles.kernel_chern_classes(segment(), projective_matrix(1))
    assert tup.contracted_classes is None


def test_projective_family_classes():
    for n in range(1, 4):
        tup = bundles.kernel_chern_classes(simplex(n), projective_matrix(n))
        assert [list(c.coordinates) for c in tup.classes] == [[1]]
        assert tup.basis_flag


def test_hirzebruch_classes_form_basis():
    for a in range(4):
        p = square()
        tup = bundles.kernel_chern_classes(p, hirzebruch(a))
        assert tup.basis_flag
        assert abs(intlat.det(tup.coordinate_matrix())) == 1


def test_expansion_identity():
    # the facet classes must expand over the tuple through the kernel basis
    p = square()
    lam = hirzebruch(1)
    tup = bundles.kernel_chern_classes(p, lam)
    kernel, _ = bundles.kernel_sequence(lam)
    pres = cohomology.quasitoric_presentation(p, lam)
    c = tup.coordinate_matrix()
    for i in range(1, lam.m + 1):
        want = list(cohomology.facet_class(pres, i).coordinates)
        got = [sum(kernel.a[k][i - 1] * c[k][j] for k in range(len(c)))
               for j in range(len(want))]
        assert got == want, i


def test_simplex_h4_presentation():
    h4 = bundles.simplex_h4_presentation(3)
    assert h4.free_rank == 1 and not h4.torsion
    assert h4.facet_class_coords == [[1], [1], [1]]


def test_quaternionic_hopf_tuple():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[1, 0]])
    assert tup.classes == [[1]] and tup.base_dim == 4
    doubled = bundles.quaternionic_primary_tuple(p, f, [[2, 0]])
    assert doubled.classes == [[2]]


def test_quaternionic_tuple_shape_guard():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    with pytest.raises(ShapeError):
        bundles.quaternionic_primary_tuple(p, f, [[1, 0], [0, 1]])


def test_quaternionic_tuple_rejects_bad_functor():
    p = segment()
    f = isotropy_functor(2, [[1], [1]])
    with pytest.raises(ValidationError):
        bundles.quaternionic_primary_tuple(p, f, [[1, 0]])


def test_unsupported_base_needs_explicit_presentation():
    p = square()
    f = isotropy_functor(4, [[1], [2], [3], [4]])
    with pytest.raises(UnsupportedBaseError):
        bundles.quaternionic_primary_tuple(p, f, [[1, 0, 0, 0], [0, 1, 0, 0]])
    h4 = bundles.H4Presentation(free_rank=2, torsion=[],
                                facet_class_coords=[[1, 0], [0, 1], [1, 0], [0, 1]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[1, 0, 0, 0], [0, 1, 0, 0]], h4=h4)
    assert tup.classes == [[1, 0], [0, 1]] and tup.base_dim == 8


def test_torsion_reduction_in_supplied_presentation():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    h4 = bundles.H4Presentation(free_rank=1, torsion=[3],
                                facet_class_coords=[[1, 2], [0, 1]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[2, 1]], h4=h4)
    assert tup.classes == [[2, (2 * 2 + 1) % 3]]
