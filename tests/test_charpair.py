import random
from itertools import combinations
from math import gcd

import pytest

import pairgen
from momang import charpair, intlat
from momang import combinatorics as comb
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
    with pytest.raises(ShapeError, match=r"^matrix is 2x3 but polytope has n=2, m=4$"):
        charpair.solved_form(square(), projective_matrix(2))


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


def reference_faces(p):
    """Every face as a sorted facet tuple, the empty face first, then by
    codimension and lexicographically."""
    faces = {()}
    for v in p.vertices:
        for size in range(1, len(v) + 1):
            faces.update(combinations(sorted(v), size))
    return sorted(faces, key=lambda f: (len(f), f))


def reference_validate_characteristic_pair(p, lam):
    """The seed's walk: a primitivity test per column, then a determinant
    per vertex and a maximal-minor gcd per other face."""
    failures = []
    primitivity = {}
    for i in range(1, lam.m + 1):
        col = lam.column(i)
        ok = gcd(*col) == 1
        primitivity[i] = ok
        if not ok:
            failures.append(f"column of facet {i} is not primitive: {col}")
    vertex_dets = {}
    face_gcds = {}
    for face in reference_faces(p)[1:]:
        sub = lam.columns(face)
        if len(face) == lam.n:
            d = intlat.det(sub)
            vertex_dets[face] = d
            if abs(d) != 1:
                failures.append(f"vertex {list(face)} has determinant {d}, expected +-1")
        else:
            g = intlat.maximal_minor_gcd(intlat.transpose(sub))
            face_gcds[face] = g
            if g != 1:
                failures.append(f"face {list(face)} has maximal-minor gcd {g}, expected 1")
    return charpair.PairReport(not failures, primitivity, vertex_dets, face_gcds,
                               failures)


def reference_validate_quaternionic_functor(p, f):
    """The seed's walk over every face, the empty face included."""
    failures = []
    disjoint = injective = True
    seen = {}
    for face in reference_faces(p):
        union = set().union(*(f.label(i) for i in face))
        total = sum(len(f.label(i)) for i in face)
        if len(union) != total:
            disjoint = False
            failures.append(
                f"labels of facets {list(face)} overlap: rank {len(union)} < {total}")
        cls = tuple(sorted(tuple(sorted(f.label(i))) for i in face))
        if cls in seen:
            injective = False
            failures.append(
                f"faces {list(seen[cls])} and {list(face)} share the isotropy class {cls}")
        else:
            seen[cls] = face
    return charpair.FunctorReport(disjoint and injective, disjoint, injective, failures)


def report_fields(report):
    """The report with each table as an item list, so that order counts."""
    return (report.valid, list(report.column_primitivity.items()),
            list(report.vertex_determinants.items()),
            list(report.face_minor_gcds.items()), report.failures)


def valid_pairs(rng):
    for n in range(2, 6):
        yield pairgen.cube(n), pairgen.staged_columns(rng, [1] * n)
    for dims in ([2], [3], [1, 2], [2, 1], [2, 2], [1, 3], [1, 1, 2]):
        yield pairgen.simplex_product(dims), pairgen.staged_columns(rng, dims)
    for m in range(3, 9):
        yield pairgen.polygon(m), pairgen.polygon_columns(rng, m)


def mutant_pairs(rng):
    """Random and mutated matrices over small polytopes: zero and
    non-primitive columns, single bad vertices, and squares whose every
    vertex fails."""
    bases = [(pairgen.simplex_product([1]), [1]), (pairgen.simplex_product([2]), [2]),
             (pairgen.simplex_product([3]), [3]), (pairgen.cube(2), [1, 1]),
             (pairgen.cube(3), [1, 1, 1]), (pairgen.cube(4), [1, 1, 1, 1])]
    bases += [(pairgen.polygon(m), None) for m in (3, 5, 6)]
    for p, dims in bases:
        for _ in range(12):
            cols = (pairgen.staged_columns(rng, dims) if dims
                    else pairgen.polygon_columns(rng, p.facet_count))
            kind = rng.randrange(5)
            if kind == 0:    # a random matrix
                cols = [[rng.randint(-2, 2) for _ in col] for col in cols]
            elif kind == 1:  # one entry moved
                col = rng.choice(cols)
                col[rng.randrange(len(col))] += rng.choice((-2, -1, 1, 2))
            elif kind == 2:  # a zero column
                cols[rng.randrange(len(cols))] = [0] * p.dim
            elif kind == 3:  # a non-primitive column
                k = rng.randrange(len(cols))
                cols[k] = [rng.choice((2, 3)) * x for x in cols[k]]
            else:            # a random base change, then one column scaled
                delta = pairgen.random_unimodular(rng, p.dim)
                cols = [intlat.mat_vec(delta, col) for col in cols]
                k = rng.randrange(len(cols))
                cols[k] = [-2 * x for x in cols[k]]
            yield p, cols
    sq = pairgen.cube(2)
    for _ in range(40):
        cols = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(4)]
        lam = charpair.from_columns(cols)
        if all(abs(intlat.det(lam.columns(v))) != 1 for v in sq.vertices):
            yield sq, cols


def test_validator_matches_the_face_walk_on_valid_pairs():
    rng = random.Random(8)
    count = 0
    for p, cols in valid_pairs(rng):
        lam = charpair.from_columns(cols)
        want = reference_validate_characteristic_pair(p, lam)
        assert want.valid, cols
        assert report_fields(charpair.validate_characteristic_pair(p, lam)) == \
            report_fields(want), cols
        count += 1
    assert count == 17


def test_validator_matches_the_face_walk_on_mutants():
    rng = random.Random(8)
    seen = {"valid": 0, "invalid": 0, "zero column": 0, "column": 0,
            "face gcd above 1": 0, "face gcd 0": 0, "every vertex fails": 0}
    for p, cols in mutant_pairs(rng):
        lam = charpair.from_columns(cols)
        want = reference_validate_characteristic_pair(p, lam)
        assert report_fields(charpair.validate_characteristic_pair(p, lam)) == \
            report_fields(want), (p, cols)
        seen["valid" if want.valid else "invalid"] += 1
        seen["zero column"] += not all(any(c) for c in cols)
        seen["column"] += not all(want.column_primitivity.values())
        seen["face gcd above 1"] += any(g > 1 for g in want.face_minor_gcds.values())
        seen["face gcd 0"] += 0 in want.face_minor_gcds.values()
        seen["every vertex fails"] += all(
            abs(d) != 1 for d in want.vertex_determinants.values())
    assert all(seen.values()), seen


def test_validator_of_a_valid_pair_computes_no_face_gcd(monkeypatch):
    # every face of a valid pair lies in a unimodular vertex, so its gcd is 1
    pairs = [(p, charpair.from_columns(cols)) for p, cols in valid_pairs(random.Random(8))]

    def forbidden(*args):
        raise AssertionError("a valid pair listed the faces of its vertices")
    monkeypatch.setattr(charpair, "combinations", forbidden)
    monkeypatch.setattr(intlat, "maximal_minor_gcd", forbidden)
    assert all(charpair.validate_characteristic_pair(p, lam).valid for p, lam in pairs)
    with pytest.raises(AssertionError, match="listed the faces"):
        charpair.validate_characteristic_pair(
            square(), charpair.from_columns([[1, 0], [0, 1], [-1, 2], [0, -3]]))


def test_solved_form_of_a_valid_pair_walks_no_faces(monkeypatch):
    # the Hermite reduction and the pivot walk decide a valid pair: no
    # report, no face list
    pairs = [(p, charpair.from_columns(cols)) for p, cols in valid_pairs(random.Random(8))]
    want = [charpair.solved_form(p, lam) for p, lam in pairs]
    for (p, _), (form, _, forms) in zip(pairs, want):
        assert set(forms) == set(p.vertices) and forms[frozenset(form)] is form

    def forbidden(*args):
        raise AssertionError("a valid pair walked the faces")
    monkeypatch.setattr(charpair, "validate_characteristic_pair", forbidden)
    monkeypatch.setattr(charpair, "enumerate_faces", forbidden)
    monkeypatch.setattr(comb, "enumerate_faces", forbidden)
    assert [charpair.solved_form(p, lam) for p, lam in pairs] == want
    # an invalid pair still builds the report, to word its failures
    with pytest.raises(AssertionError, match="walked the faces"):
        charpair.solved_form(square(), charpair.from_columns([[2, 0], [0, 1], [-1, 1], [0, -1]]))


def random_functor(rng, m):
    n_act = rng.randint(2, m + 1)
    labels = [rng.sample(range(1, n_act + 1), rng.randint(1, min(2, n_act)))
              for _ in range(m)]
    return charpair.isotropy_functor(n_act, labels)


def test_functor_validator_matches_the_face_walk():
    rng = random.Random(8)
    polytopes = [segment(), simplex(2), simplex(3), square(), pairgen.polygon(5),
                 pairgen.cube(3), pairgen.simplex_product([1, 2])]
    verdicts = set()
    for p in polytopes:
        m = p.facet_count
        functors = [random_functor(rng, m) for _ in range(30)]
        functors.append(charpair.isotropy_functor(m, [[i] for i in range(1, m + 1)]))
        for f in functors:
            want = reference_validate_quaternionic_functor(p, f)
            got = charpair.validate_quaternionic_functor(p, f)
            assert (got.valid, got.disjoint_at_faces, got.injective_on_faces,
                    got.failures) == (want.valid, want.disjoint_at_faces,
                                      want.injective_on_faces, want.failures), (p, f)
            verdicts.add((want.disjoint_at_faces, want.injective_on_faces))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def reference_inverse(mat):
    """The inverse read off a two-sided Smith form, U.mat.V = I."""
    snf = intlat.smith_normal_form(mat)
    if snf.d != intlat.identity(len(mat)):
        raise ValidationError("matrix is not unimodular")
    return intlat.mat_mul(snf.v, snf.u)


def reference_solved_form(p, lam):
    """The earlier design: a Bareiss determinant at every vertex, the
    report only for an invalid pair, a Smith-form inverse at the anchor.
    Returns the anchor, the inverse of its columns and N at the anchor."""
    if any(abs(intlat.det(lam.columns(v))) != 1 for v in p.vertices):
        failures = charpair.validate_characteristic_pair(p, lam).failures
        raise ValidationError("invalid pair: " + "; ".join(failures))
    anchor = min(tuple(sorted(v)) for v in p.vertices)
    inv = reference_inverse(lam.columns(anchor))
    return anchor, inv, dict(zip(anchor, intlat.mat_mul(inv, lam.rows())))


def solved_or_message(solve, p, lam):
    try:
        return solve(p, lam)
    except ValidationError as exc:
        return str(exc)


def test_solved_form_matches_the_reference_on_every_family():
    # each pair as built, disguised by a base change and column signs
    # with its facets relabelled, and relabelled alone
    rng = random.Random(23)
    count = 0
    for p, cols in valid_pairs(rng):
        perm = list(range(1, p.facet_count + 1))
        rng.shuffle(perm)
        relabelled, moved = pairgen.relabel(p, cols, perm)
        for q, lam in [(p, charpair.from_columns(cols)), pairgen.disguise(rng, p, cols),
                       (relabelled, charpair.from_columns(moved))]:
            form, inv, forms = charpair.solved_form(q, lam)
            anchor, want_inv, want_form = reference_solved_form(q, lam)
            assert (tuple(form), inv) == (anchor, want_inv)
            assert list(form.items()) == list(want_form.items())
            assert set(forms) == set(q.vertices)
            for w, got in forms.items():
                facets = sorted(w)
                want = intlat.mat_mul(reference_inverse(lam.columns(facets)), lam.rows())
                assert got == dict(zip(facets, want)), (q.vertices, lam.rows(), w)
            count += 1
    assert count == 51


def test_invalid_pairs_raise_the_reference_message():
    rng = random.Random(24)
    outcomes = set()
    for p, cols in mutant_pairs(rng):
        lam = charpair.from_columns(cols)
        want = solved_or_message(reference_solved_form, p, lam)
        got = solved_or_message(charpair.solved_form, p, lam)
        if isinstance(want, str):
            assert got == want, (p.vertices, cols)
        else:
            assert (tuple(got[0]), got[1], got[0]) == want, (p.vertices, cols)
        outcomes.add(isinstance(want, str))
    assert outcomes == {True, False}


@pytest.mark.parametrize("case, polytope, cols, failure", [
    ("det 2 at the anchor", square(), [[2, 0], [0, 1], [-1, 1], [0, -1]],
     "vertex [1, 2] has determinant 2, expected +-1"),
    ("det -2 at the anchor", square(), [[0, 1], [2, 0], [-1, 1], [0, -1]],
     "vertex [1, 2] has determinant -2, expected +-1"),
    ("det 2 at the far vertex only", square(), [[1, 0], [0, 1], [-1, 1], [-1, -1]],
     "vertex [3, 4] has determinant 2, expected +-1"),
    ("det -2 three edges away", pairgen.polygon(6),
     [[1, 0], [0, 1], [1, 0], [-1, -1], [-1, 1], [2, -1]],
     "vertex [4, 5] has determinant -2, expected +-1"),
    ("a singular anchor", square(), [[1, 0], [2, 0], [-1, 1], [0, -1]],
     "vertex [1, 2] has determinant 0, expected +-1"),
    ("a zero column at the anchor", square(), [[0, 0], [0, 1], [-1, 0], [0, -1]],
     "column of facet 1 is not primitive: [0, 0]"),
    ("a zero column elsewhere", square(), [[1, 0], [0, 1], [0, 0], [0, -1]],
     "column of facet 3 is not primitive: [0, 0]"),
])
def test_invalid_pair_cases(case, polytope, cols, failure):
    lam = charpair.from_columns(cols)
    want = solved_or_message(reference_solved_form, polytope, lam)
    assert isinstance(want, str) and failure in want.split(": ", 1)[1].split("; ")
    assert solved_or_message(charpair.solved_form, polytope, lam) == want


def random_unimodular_product(rng, n):
    """A product of a few random GL(n, Z) elements, so entries grow."""
    mat = intlat.identity(n)
    for _ in range(rng.randint(1, 3)):
        mat = intlat.mat_mul(mat, pairgen.random_unimodular(rng, n))
    return mat


def test_inverse_unimodular_matches_the_smith_form():
    rng = random.Random(25)
    for trial in range(360):
        n = 1 + trial % 6
        u = random_unimodular_product(rng, n)
        rng.shuffle(u)  # a row permutation keeps it unimodular
        inv = intlat.inverse_unimodular(u)
        assert inv == reference_inverse(u), u
        assert intlat.mat_mul(u, inv) == intlat.identity(n)
    assert intlat.inverse_unimodular([]) == []


@pytest.mark.parametrize("mat", [
    [[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]],   # det 0
    [[2]], [[-2]], [[1, 1], [1, -1]], [[1, 0, 0], [0, 1, 0], [0, 0, -2]],   # det +-2
    [[1, 0]], [[1], [0]], [[1, 0, 0], [0, 1, 0]],   # not square
])
def test_inverse_unimodular_rejects_what_the_smith_form_rejects(mat):
    with pytest.raises(ValidationError, match="^matrix is not unimodular$"):
        reference_inverse(mat)
    with pytest.raises(ValidationError, match="^matrix is not unimodular$"):
        intlat.inverse_unimodular(mat)
