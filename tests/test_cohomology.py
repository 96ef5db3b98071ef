import random
from itertools import combinations, product
from math import gcd

import pytest

import pairgen
from momang import cohomology as coh
from momang import intlat
from momang.charpair import from_columns
from momang.combinatorics import dual_complex, simple_polytope
from momang.errors import IntegrityError, ValidationError


def simplex(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return simple_polytope(m, n, verts)


def square():
    return simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])


def projective_matrix(n):
    cols = [[1 if r == i else 0 for r in range(n)] for i in range(n)]
    cols.append([-1] * n)
    return from_columns(cols)


def hirzebruch(a):
    return from_columns([[1, 0], [0, 1], [-1, a], [0, -1]])


def test_poly_arithmetic():
    a = {(1, 0): 2, (0, 1): 1}
    b = {(1, 0): -2, (0, 0): 3}
    assert coh.poly_add(a, b) == {(0, 1): 1, (0, 0): 3}
    assert coh.poly_mul({(1, 0): 1}, {(0, 1): 1}) == {(1, 1): 1}
    assert coh.poly_degree_parts(coh.poly_add(a, b)) == {1: {(0, 1): 1}, 0: {(0, 0): 3}}


def test_sr_presentation_components_match_face_counts():
    # rank of the 2t-component of the face ring equals the number of
    # degree-t monomials whose support is a face
    k = dual_complex(square())
    pres = coh.sr_presentation(k)
    _, inv0 = coh.graded_component(pres, 0)
    _, inv2 = coh.graded_component(pres, 2)
    _, inv4 = coh.graded_component(pres, 4)
    # ten quadratic monomials minus the two non-face relations v1v3, v2v4
    assert (inv0.free_rank, inv2.free_rank, inv4.free_rank) == (1, 4, 8)
    assert not inv2.torsion and not inv4.torsion


def test_sr_presentation_degree_four_generators():
    k = dual_complex(simplex(1))
    pres = coh.sr_presentation(k, deg=4)
    _, inv = coh.graded_component(pres, 4)
    assert inv.free_rank == 2
    with pytest.raises(ValidationError):
        pres.component(6)


def test_quasitoric_cp2_betti_numbers():
    pres = coh.quasitoric_presentation(simplex(2), projective_matrix(2))
    assert pres.base_dim == 4
    for deg, rank in [(0, 1), (2, 1), (4, 1)]:
        _, inv = coh.graded_component(pres, deg)
        assert inv.free_rank == rank and not inv.torsion


def test_quasitoric_hirzebruch_betti_numbers():
    for a in range(4):
        pres = coh.quasitoric_presentation(square(), hirzebruch(a))
        ranks = [coh.graded_component(pres, d)[1].free_rank for d in (0, 2, 4)]
        assert ranks == [1, 2, 1], a


def test_facet_classes_cp1():
    pres = coh.quasitoric_presentation(simplex(1), from_columns([[1], [-1]]))
    # both facet classes reduce to the same generator of H^2
    x1 = coh.facet_class(pres, 1)
    x2 = coh.facet_class(pres, 2)
    assert x1.coordinates == x2.coordinates == (1,)
    with pytest.raises(IndexError):
        coh.facet_class(pres, 3)


def test_multiplication_cp2():
    pres = coh.quasitoric_presentation(simplex(2), projective_matrix(2))
    x = coh.facet_class(pres, 3)
    sq = coh.multiply(pres, x, x)
    assert sq.degree == 4 and sq.coordinates == (1,)
    cube = coh.multiply(pres, sq, x)
    assert cube.degree == 6 and cube.coordinates == ()


def test_square_relation_vanishes():
    # in CP^1 x CP^1 opposite facets multiply to zero: v1 v3 is a non-face
    pres = coh.quasitoric_presentation(square(), hirzebruch(0))
    x1 = coh.facet_class(pres, 1)
    x3 = coh.facet_class(pres, 3)
    prod = coh.multiply(pres, x1, x3)
    assert prod.is_zero()


def test_total_chern_class_cp2():
    pres = coh.quasitoric_presentation(simplex(2), projective_matrix(2))
    parts = coh.total_chern_class(pres)
    assert [c.degree for c in parts] == [2, 4]
    # (1+v)^3 truncated: 3v + 3v^2
    assert parts[0].coordinates == (3,)
    assert parts[1].coordinates == (3,)


def test_total_chern_class_product_of_lines():
    pres = coh.quasitoric_presentation(square(), hirzebruch(0))
    parts = coh.total_chern_class(pres)
    deg2, deg4 = parts
    # 2u + 2w in degree 2 and 4uw in degree 4
    assert sorted(deg2.coordinates) == [2, 2]
    assert deg4.coordinates == (4,)


def test_total_chern_requires_linear_relations():
    pres = coh.sr_presentation(dual_complex(square()))
    with pytest.raises(ValidationError):
        coh.total_chern_class(pres)


def test_class_polynomial_round_trip():
    pres = coh.quasitoric_presentation(square(), hirzebruch(1))
    poly = {(1, 0): 2, (0, 1): -3}
    cls = coh.class_from_polynomial(pres, poly, 2)
    back = coh.polynomial_from_class(pres, cls)
    assert coh.class_from_polynomial(pres, back, 2).coordinates == cls.coordinates


def test_inhomogeneous_polynomial_rejected():
    pres = coh.quasitoric_presentation(square(), hirzebruch(1))
    with pytest.raises(ValidationError):
        coh.class_from_polynomial(pres, {(1, 0): 1, (1, 1): 1}, 2)


def test_presentation_rejects_invalid_pair():
    with pytest.raises(ValidationError):
        coh.quasitoric_presentation(simplex(1), from_columns([[2], [-1]]))


# --------------------------------------------- monomial bases and reduction

HEXAGON = [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [0, -1]]


def polygon(m):
    return simple_polytope(m, 2, [[i, i % m + 1] for i in range(1, m + 1)])


def blown_up_polygon(rng, m):
    """Columns of a toric polygon pair: a Hirzebruch square blown up at
    random corners to m facets, rotated by a random offset."""
    cols = [[1, 0], [0, 1], [-1, rng.randint(0, 2)], [0, -1]]
    while len(cols) < m:
        i = rng.randrange(len(cols))
        a, b = cols[i], cols[(i + 1) % len(cols)]
        cols.insert(i + 1, [a[0] + b[0], a[1] + b[1]])
    shift = rng.randrange(m)
    return cols[shift:] + cols[:shift]


def self_intersection(cols, i):
    """a with lam_{i-1} + lam_{i+1} = a lam_i (0-based i); facet i squares to -a [pt]."""
    prev, cur, nxt = cols[i - 1], cols[i], cols[(i + 1) % len(cols)]
    s = [prev[0] + nxt[0], prev[1] + nxt[1]]
    return s[0] // cur[0] if cur[0] else s[1] // cur[1]


def test_hexagon_basis_is_a_generator_not_a_multiple():
    # x3^2 = -2 [pt] is not a generator of H^4; x3 x4 is
    pres = coh.quasitoric_presentation(polygon(6), from_columns(HEXAGON))
    basis, inv = coh.graded_component(pres, 4)
    assert basis == [(1, 1, 0, 0)]
    assert (inv.free_rank, inv.torsion) == (1, [])
    assert coh.total_chern_class(pres)[1].coordinates == (6,)


def test_blown_up_polygons_have_unimodular_bases():
    rng = random.Random(2024)
    steep = 0
    for trial in range(60):
        m = 5 + trial % 4
        cols = blown_up_polygon(rng, m)
        steep += abs(self_intersection(cols, 2)) >= 2
        lam = from_columns(cols)
        pres = coh.quasitoric_presentation(polygon(m), lam)
        for deg, rank in ((0, 1), (2, m - 2), (4, 1)):
            basis, inv = coh.graded_component(pres, deg)
            assert (inv.free_rank, inv.torsion, len(basis)) == (rank, [], rank), cols
        x = [coh.facet_class(pres, i).coordinates for i in range(1, m + 1)]
        for row in lam.rows():
            assert [sum(c * xi[k] for c, xi in zip(row, x)) for k in range(m - 2)] \
                == [0] * (m - 2), cols
        assert coh.total_chern_class(pres)[1].coordinates in ((m,), (-m,)), cols
    assert steep >= 5


def test_torsion_in_a_component_is_an_integrity_error():
    pres = coh.GradedRingPresentation(m=1, generator_degree=2, non_faces=[],
                                      kept=[1], ideal=[{(1,): 2}])
    assert coh.graded_component(pres, 0)[1].free_rank == 1
    with pytest.raises(IntegrityError, match="degree-2"):
        pres.component(2)


def reference_component(pres, degree):
    """The earlier construction, kept as an oracle.  The free coordinates of
    a monomial vector come from the Smith transform V of the relations; the
    basis is taken greedily by rank and accepted only when its determinant
    is +-1; each class is reduced by the inverse of that basis.  Returns the
    basis monomials, the invariants and the reduction, or raises
    IntegrityError where that construction finds no basis."""
    t = degree // pres.generator_degree
    monomials = coh._monomials(len(pres.kept), t)
    index = {mono: i for i, mono in enumerate(monomials)}
    relations = []
    for g in pres.ideal:
        gdeg = sum(next(iter(g)))
        for mult in coh._monomials(len(pres.kept), t - gdeg) if gdeg <= t else []:
            row = [0] * len(monomials)
            for mono, c in g.items():
                row[index[tuple(x + y for x, y in zip(mono, mult))]] += c
            relations.append(row)
    cols = len(monomials)
    v, diag = intlat.identity(cols), []
    if relations:
        snf = intlat.smith_normal_form(relations)
        v, diag = snf.v, snf.diagonal()
    elementary = [diag[j] if j < len(diag) else 0 for j in range(cols)]

    def free_coordinates(vec):
        y = [sum(vec[i] * v[i][j] for i in range(cols)) for j in range(cols)]
        if any(d and y[j] % d for j, d in enumerate(elementary)):
            return None
        return [y[j] for j, d in enumerate(elementary) if d == 0]

    rank = elementary.count(0)
    basis, coords = [], []
    for j, mono in enumerate(monomials):
        fc = free_coordinates([int(i == j) for i in range(cols)])
        if len(basis) < rank and fc is not None and len(
                intlat.invariant_factors(coords + [fc])) > len(basis):
            basis.append(mono)
            coords.append(fc)
    if len(basis) != rank or (rank and abs(intlat.det(coords)) != 1):
        raise IntegrityError(f"no unimodular monomial basis for degree {degree}")
    inverse = intlat.inverse_unimodular(intlat.transpose(coords))

    def reduce(poly):
        vec = [0] * cols
        for mono, c in poly.items():
            vec[index[mono]] += c
        if not rank:
            return ()
        return tuple(intlat.mat_vec(inverse, free_coordinates(vec)))

    return basis, (rank, [d for d in elementary if d > 1]), reduce


def simplex_product(dims):
    offset, factors = 0, []
    for d in dims:
        factors.append([list(c) for c in combinations(range(offset + 1, offset + d + 2), d)])
        offset += d + 1
    return simple_polytope(offset, sum(dims), [sum(v, []) for v in product(*factors)])


def generalized_bott_tower(rng, dims):
    """Over the product of simplices: factor k spans its own block of
    coordinates, and its last facet is twisted into the later blocks."""
    n = sum(dims)
    cols, start = [], 0
    for d in dims:
        cols += [[int(r == i) for r in range(n)] for i in range(start, start + d)]
        cols.append([-1 if start <= r < start + d else
                     rng.randint(-2, 2) if r >= start + d else 0 for r in range(n)])
        start += d
    return from_columns(cols)


def total_class_parts(pres):
    unit = {tuple([0] * len(pres.kept)): 1}
    prod = unit
    for i in range(1, pres.m + 1):
        prod = coh.poly_mul(prod, coh.poly_add(unit, pres.generator_poly(i)))
    return coh.poly_degree_parts(prod)


def test_components_agree_with_the_reference_construction():
    rng = random.Random(7)
    compared = 0
    for dims in ([1, 1], [1, 1, 1], [1, 1, 1, 1], [1, 2], [2, 2], [1, 3]):
        p = simplex_product(dims)
        for _ in range(4):
            pres = coh.quasitoric_presentation(p, generalized_bott_tower(rng, dims))
            total = coh.total_chern_class(pres)
            parts = total_class_parts(pres)
            for deg in range(0, pres.base_dim + 1, 2):
                try:
                    basis, invariants, reduce = reference_component(pres, deg)
                except IntegrityError:
                    continue
                comp = pres.component(deg)
                assert comp.basis_monomials == basis, (dims, deg)
                assert (comp.invariants.free_rank, comp.invariants.torsion) == invariants
                if deg == 2:
                    for i in range(1, pres.m + 1):
                        assert coh.facet_class(pres, i).coordinates == \
                            reduce(pres.generator_poly(i))
                if deg:
                    assert total[deg // 2 - 1].coordinates == \
                        reduce(parts.get(deg // 2, {}))
                compared += 1
    assert compared >= 100


# --------------------------------------- +-1 pivots, and a Smith form of the rest

def degree_relations(pres, degree):
    t = degree // pres.generator_degree
    monomials = coh._monomials(len(pres.kept), t)
    return coh._relations(pres, t, monomials), monomials


def smith_basis(relations, monomials, degree):
    """Basis and table from a Smith form of all the degree's relations, the
    oracle for `_monomial_basis`: the free quotient from the transform V,
    then the same graded-lex walk for a monomial basis."""
    size = len(monomials)
    dense = [[row.get(c, 0) for c in range(size)] for row in relations]
    snf = intlat.smith_normal_form(dense or [[0] * size], u=False)
    factors = snf.invariant_factors()
    if any(d > 1 for d in factors):
        raise IntegrityError(f"degree-{degree} component has torsion")
    free = [[row[j] for row in snf.v] for j in range(len(factors), size)]
    r = len(free)
    inv = intlat.identity(r)
    basis = []
    for j, mono in enumerate(monomials):
        k = len(basis)
        if k == r:
            break
        img = [sum(row[j] * x for row, x in zip(free, col)) for col in inv]
        if gcd(*img[k:]) != 1:
            continue
        for c in range(k + 1, r):
            while img[c]:
                q = img[k] // img[c]
                inv[k], inv[c] = inv[c], [x - q * y for x, y in zip(inv[k], inv[c])]
                img[k], img[c] = img[c], img[k] - q * img[c]
        inv[k] = [img[k] * x for x in inv[k]]
        for c in range(k):
            inv[c] = [x - img[c] * y for x, y in zip(inv[c], inv[k])]
        basis.append(mono)
    if len(basis) != r:
        raise IntegrityError(
            f"no unimodular monomial basis found for degree {degree}")
    return basis, intlat.mat_mul(inv, free)


def outcome(build, *args):
    try:
        return build(*args)
    except IntegrityError as exc:
        return str(exc)


def test_unit_pivot_path_agrees_with_the_smith_path_and_the_reference():
    paths = {"unit": 0, "smith": 0}
    for p, lam in pairgen.seeded_pairs():
        pres = coh.quasitoric_presentation(p, lam)
        for deg in range(0, pres.base_dim + 1, 2):
            relations, monomials = degree_relations(pres, deg)
            paths["smith" if intlat.unit_pivots(relations)[1] else "unit"] += 1
            found = outcome(coh._monomial_basis, relations, monomials, deg)
            assert found == outcome(smith_basis, relations, monomials, deg), (lam, deg)
            try:
                ref_basis, invariants, reduce = reference_component(pres, deg)
            except IntegrityError:
                continue
            basis, table = found
            assert (basis, (len(basis), [])) == (ref_basis, invariants), (lam, deg)
            for j, mono in enumerate(monomials):
                assert tuple(row[j] for row in table) == reduce({mono: 1}), (lam, mono)
    assert paths["unit"] >= 60 and paths["smith"] >= 10, paths


def spy_smith_forms(monkeypatch):
    """Record each Smith form a component build runs, with the rows and
    pivots of the `unit_pivots` call before it."""
    calls, last = [], []

    def pivoting(rows, fn=intlat.unit_pivots):
        last[:] = [fn(rows)]
        return last[0]

    def smith(mat, fn=intlat.smith_normal_form, **flags):
        calls.append((mat, last[0]))
        return fn(mat, **flags)

    monkeypatch.setattr(intlat, "unit_pivots", pivoting)
    monkeypatch.setattr(intlat, "smith_normal_form", smith)
    return calls


def test_a_column_without_a_unit_entry_takes_the_smith_path(monkeypatch):
    # x + 2y: the last column (y) holds only 2, so the row is left for the
    # Smith form; the quotient is still free on y, with x = -2y
    calls = spy_smith_forms(monkeypatch)
    pres = coh.GradedRingPresentation(m=2, generator_degree=2, non_faces=[],
                                      kept=[1, 2], ideal=[{(1, 0): 1, (0, 1): 2}])
    relations, monomials = degree_relations(pres, 2)
    assert [sorted(r.values()) for r in relations] == [[1, 2]]
    assert intlat.unit_pivots(relations) == ({}, relations)
    comp = pres.component(2)
    assert (comp.basis_monomials, comp.table) == ([(0, 1)], [[-2, 1]])
    assert comp.invariants.free_rank == 1 and [mat for mat, _ in calls] == [[[1, 2]]]
    # with -2 in place of 2 both degree-4 rows are left; with -1 none is
    pres.ideal = [{(1, 0): 1, (0, 1): -2}]
    assert pres.component(4).basis_monomials == [(0, 2)]
    assert calls[1][0] == [[1, -2, 0], [0, 1, -2]]
    pres.ideal, pres._components = [{(1, 0): 1, (0, 1): -1}], {}
    assert pres.component(2).table == [[1, 1]] and len(calls) == 2


def test_hexagon_top_degree_takes_the_smith_path(monkeypatch):
    # x3^2 = -2 [pt] leaves a row without a +-1 at its last monomial in
    # degree 4; the Smith form of that row takes the generator x3 x4
    calls = spy_smith_forms(monkeypatch)
    pres = coh.quasitoric_presentation(polygon(6), from_columns(HEXAGON))
    relations, monomials = degree_relations(pres, 4)
    pivots, left = intlat.unit_pivots(relations)
    assert len(left) == 1 and len(monomials) - len(pivots) == 2
    comp = pres.component(4)
    assert comp.basis_monomials == [(1, 1, 0, 0)]
    assert comp.table == [[-2, 1, 0, 0, -1, 1, 0, -1, 1, 0]]
    assert comp.invariants.free_rank == 1 and not comp.invariants.torsion
    assert [mat for mat, _ in calls] == [[[1, 2]]]


def test_smith_forms_see_only_the_rows_left_over_the_non_pivot_monomials(monkeypatch):
    calls = spy_smith_forms(monkeypatch)
    rng = random.Random(2024)
    pairs = list(pairgen.seeded_pairs()) + [(polygon(6), from_columns(HEXAGON))]
    pairs += [(polygon(m), from_columns(blown_up_polygon(rng, m))) for m in range(5, 9)]
    seen = 0
    for p, lam in pairs:
        pres = coh.quasitoric_presentation(p, lam)
        for deg in range(0, pres.base_dim + 1, 2):
            monomials = degree_relations(pres, deg)[1]
            calls.clear()
            outcome(pres.component, deg)
            for mat, (pivots, left) in calls:
                free = [j for j in range(len(monomials)) if j not in pivots]
                assert left and mat == [[row.get(j, 0) for j in free] for row in left]
            seen += len(calls)
    assert seen >= 12


@pytest.mark.xfail(strict=True, raises=IntegrityError,
                   reason="the greedy graded-lex walk takes x5^3 first and then "
                          "finds no second monomial in degree 6")
def test_the_greedy_walk_finds_a_basis_of_the_seeded_d2xd2_tower():
    p, lam = list(pairgen.seeded_pairs())[11]
    pres = coh.quasitoric_presentation(p, lam)
    # a unimodular monomial basis of degree 6 exists: x5^2 x6 and x5 x6^2
    # (kept generators 5 and 6) span the quotient, whose rank is 2
    assert pres.kept == [5, 6]
    relations, monomials = degree_relations(pres, 6)
    dense = [[row.get(j, 0) for j in range(len(monomials))] for row in relations]
    units = [[int(mono == want) for mono in monomials] for want in ((2, 1), (1, 2))]
    assert len(monomials) - len(intlat.hermite_row_form(dense)) == 2
    assert intlat.hermite_row_form(dense + units) == intlat.identity(len(monomials))
    for deg in range(0, pres.base_dim + 1, 2):
        pres.component(deg)
