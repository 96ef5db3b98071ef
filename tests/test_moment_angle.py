import random
from collections import Counter
from itertools import combinations, product

import pytest

import pairgen
from momang import intlat, moment_angle as ma
from momang.combinatorics import dual_complex, simple_polytope, simplicial_complex
from momang.errors import BudgetError, ValidationError


def simplex_dual(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return dual_complex(simple_polytope(m, n, verts))


def square_dual():
    return dual_complex(simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]]))


def random_complex(rng, m):
    while True:
        count = rng.randint(1, 4)
        faces = set()
        for _ in range(count):
            size = rng.randint(1, m)
            faces.add(frozenset(rng.sample(range(1, m + 1), size)))
        maximal = {f for f in faces if not any(f < g for g in faces)}
        if set().union(*maximal) == set(range(1, m + 1)):
            return simplicial_complex(m, maximal)


def random_sparse_complex(rng, m):
    # many small faces, so that full subcomplexes have holes
    faces = [set(rng.sample(range(1, m + 1), rng.randint(2, min(3, m - 1))))
             for _ in range(rng.randint(3, 2 * m))]
    faces += [{i} for i in range(1, m + 1) if not any(i in f for f in faces)]
    return simplicial_complex(m, [f for f in faces if not any(f < g for g in faces)])


def random_graph_complex(rng, m):
    # a sparse graph on 1..m, its isolated vertices kept as maximal faces,
    # so that most full subcomplexes fall apart into several components
    edges = [set(e) for e in combinations(range(1, m + 1), 2) if rng.random() < 0.3]
    isolated = [{v} for v in range(1, m + 1) if not any(v in e for e in edges)]
    return simplicial_complex(m, edges + isolated)


def seeded_graphs(seed):
    rng = random.Random(seed)
    return [random_graph_complex(rng, m) for m in range(3, 10) for _ in range(3)]


def components(vertices, edges):
    seen, count = set(), 0
    for start in vertices:
        if start in seen:
            continue
        count += 1
        todo = [start]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo += [w for e in edges if v in e for w in e]
    return count


RP2_6 = simplicial_complex(6, [[1, 2, 4], [1, 3, 4], [1, 3, 5], [1, 2, 6], [1, 5, 6],
                               [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6]])


# dimensions of the base point, sphere and disc cell of each coordinate
TUPLE_DIMS = {ma.COMPLEX: {"b": 0, "s": 1, "d": 2},
              ma.QUATERNIONIC: {"b": 0, "s": 3, "d": 4}}


def reference_homology(k, flavor):
    # one global Smith form per degree over all 3^m filtered tuples,
    # with the Koszul sign of the product complex
    dims = TUPLE_DIMS[flavor]
    cells = {}
    for tup in product("bds", repeat=k.vertex_count):
        support = [i + 1 for i, c in enumerate(tup) if c == "d"]
        if not support or k.is_face(support):
            cells.setdefault(sum(dims[c] for c in tup), []).append(tup)
    factors = {}
    for dim in cells:
        lower = {cell: j for j, cell in enumerate(cells.get(dim - 1, []))}
        matrix = [[0] * len(cells[dim]) for _ in lower]
        for col, cell in enumerate(cells[dim]):
            prefix = 0
            for i, c in enumerate(cell):
                if c == "d":
                    matrix[lower[cell[:i] + ("s",) + cell[i + 1:]]][col] += \
                        -1 if prefix % 2 else 1
                prefix += dims[c]
        factors[dim] = (intlat.smith_normal_form(matrix, u=False, v=False).invariant_factors()
                        if matrix else [])
    groups = {deg: (len(cells.get(deg, [])) - len(factors.get(deg, []))
                    - len(factors.get(deg + 1, [])),
                    [x for x in factors.get(deg + 1, []) if x > 1])
              for deg in range(max(cells) + 1)}
    return groups, sum((-1) ** dim * len(level) for dim, level in cells.items())


def observed(profile):
    groups = {deg: (g.free_rank, list(g.torsion)) for deg, g in profile.groups.items()}
    return groups, profile.euler_characteristic


def test_dimension_values():
    k = simplex_dual(2)  # m = 3
    assert ma.dimension(k, ma.COMPLEX, 2) == 5
    assert ma.dimension(k, ma.QUATERNIONIC, 2) == 11
    with pytest.raises(ValidationError):
        ma.dimension(k, "octonionic", 2)


def test_dimension_report_flags_quaternionic():
    k = simplex_dual(1)
    rep = ma.dimension_report(k, ma.QUATERNIONIC, 1)
    assert rep.value == 7 and rep.m_plus_n == 3
    assert rep.differs_from_m_plus_n
    rep_c = ma.dimension_report(k, ma.COMPLEX, 1)
    assert rep_c.value == rep_c.m_plus_n == 3
    assert not rep_c.differs_from_m_plus_n


def test_top_dimension_is_the_manifold_dimension():
    polygon = [[i, i % 6 + 1] for i in range(1, 7)]
    for k, n in [(square_dual(), 2), (simplex_dual(3), 3),
                 (dual_complex(simple_polytope(6, 2, polygon)), 2)]:
        for flavor in (ma.COMPLEX, ma.QUATERNIONIC):
            assert max(ma.homology(k, flavor).groups) == ma.dimension(k, flavor, n)


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_homology_matches_global_smith_form(flavor):
    rng = random.Random(29)
    complexes = [random_sparse_complex(rng, rng.randint(3, 7)) for _ in range(12)]
    complexes += [pairgen.random_flag_complex(rng, rng.randint(3, 7)) for _ in range(12)]
    for k in complexes:
        profile = ma.homology(k, flavor)
        assert observed(profile) == reference_homology(k, flavor), sorted(k.maximal_faces)


@pytest.mark.parametrize("flavor, degree", [(ma.COMPLEX, 8), (ma.QUATERNIONIC, 20)])
def test_rp2_torsion_matches_global_smith_form(flavor, degree):
    profile = ma.homology(RP2_6, flavor)
    assert [d for d, g in profile.groups.items() if g.torsion] == [degree]
    assert profile.torsion(degree) == [2]
    assert observed(profile) == reference_homology(RP2_6, flavor)


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_simplex_blocks_skip_the_smith_form(flavor):
    # every non-empty block of the full simplex, and every proper one of
    # its boundary, is an exact simplex block and is never listed; the
    # boundary keeps one block, J = [m], whose augmentation is folded into
    # its vertices
    for m in range(1, 8):
        full = simplicial_complex(m, [range(1, m + 1)])
        cases = [full] if m == 1 else [full, simplex_dual(m - 1)]
        for k in cases:
            profile = ma.homology(k, flavor)
            assert observed(profile) == reference_homology(k, flavor), (m, k)


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_closed_forms_at_the_budget_edge(flavor):
    # Z_K of the boundary of a simplex on m vertices is S^((c+1)m - 1), and
    # Z_K of a join is the product, so for m = 10..12 the boundary of the
    # (m-1)-simplex gives one sphere, and at m = 10 and 12 the join of two
    # boundaries of (m/2 - 1)-simplices a product of two
    c = ma.SPHERE_DIMS[flavor]
    for m in (10, 11, 12):
        assert ma.is_sphere_profile(ma.homology(simplex_dual(m - 1), flavor), m * c + m - 1)
    for half in (5, 6):
        d = half * c + half - 1
        join = dual_complex(pairgen.simplex_product([half - 1, half - 1]))
        expected = {deg: ({0: 1, d: 2, 2 * d: 1}.get(deg, 0), [])
                    for deg in range(2 * d + 1)}
        assert observed(ma.homology(join, flavor)) == (expected, 0)


def counted_smith_forms(monkeypatch):
    calls = []
    smith = intlat.smith_normal_form

    def counted(mat, **flags):
        calls.append(mat)
        return smith(mat, **flags)

    monkeypatch.setattr(intlat, "smith_normal_form", counted)
    return calls


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_unit_pivots_reduce_every_block(flavor, monkeypatch):
    # the boundaries of these torsion-free models leave no residual for
    # the Smith form; RP^2_6 leaves one, which keeps its Z/2
    polytopes = [pairgen.polygon(m) for m in range(4, 11)]
    polytopes += [pairgen.cube(n) for n in range(2, 6)]
    polytopes += [pairgen.simplex_product(dims)
                  for dims in ([1, 2], [2, 2], [1, 4], [2, 3], [1, 1, 2], [1, 2, 3], [4, 4])]
    calls = counted_smith_forms(monkeypatch)
    for k in [dual_complex(p) for p in polytopes] + [simplex_dual(9)]:
        ma.homology(k, flavor)
    assert calls == []
    profile = ma.homology(RP2_6, flavor)
    assert len(calls) <= 1
    assert [profile.torsion(d) for d in profile.groups if profile.torsion(d)] == [[2]]


def test_forest_rank_matches_the_smith_form():
    # the edges-onto-vertices boundary of a graph on 1..m, isolated
    # vertices included, has rank m less the components and factors 1
    rng = random.Random(31)
    cases = [(6, []), (6, [(1, 2)]), (6, [(1, 2), (2, 3), (1, 3)]),
             (7, [(1, 2), (3, 4), (5, 6)])]
    for _ in range(60):
        m = rng.randint(2, 9)
        forest = [(rng.randint(1, v - 1), v) for v in range(2, m + 1) if rng.random() < 0.7]
        cycle = rng.sample(range(1, m + 1), rng.randint(min(3, m), m))
        pairs = list(combinations(range(1, m + 1), 2))
        for edges in (forest, list(zip(cycle, cycle[1:] + cycle[:1])) + forest,
                      rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * m)))):
            edges = [tuple(rng.sample(e, 2)) for e in set(edges)]
            rng.shuffle(edges)
            cases.append((m, edges))
    for m, edges in cases:
        rows = [{v: 1, u: -1} for u, v in edges]
        dense = [[row.get(v, 0) for v in range(1, m + 1)] for row in rows]
        smith = (intlat.smith_normal_form(dense, u=False, v=False).invariant_factors()
                 if dense else [])
        found = intlat.invariant_factors(rows)
        rank = ma._forest_rank(edges)
        assert rank == len(found) == len(smith) == m - components(range(1, m + 1), edges)
        assert set(found) | set(smith) <= {1}, (m, edges)


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_graph_homology_matches_global_smith_form(flavor):
    for k in [g for g in seeded_graphs(7) if g.vertex_count <= 8]:
        assert observed(ma.homology(k, flavor)) == reference_homology(k, flavor), \
            sorted(map(sorted, k.maximal_faces))


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_graph_homology_from_components(flavor):
    # Hochster's formula for a 1-dimensional K and sphere dimension s: K_J
    # with c components and e edges adds c - 1 in degree s|J| + 1 (from
    # H~_0) and e - |J| + c in degree s|J| + 2 (from H~_1), no torsion
    shift = ma.SPHERE_DIMS[flavor]
    for k in seeded_graphs(8):
        m = k.vertex_count
        edges = [tuple(f) for f in k.maximal_faces if len(f) == 2]
        want = Counter({0: 1})
        for size in range(1, m + 1):
            for block in combinations(range(1, m + 1), size):
                inside = [e for e in edges if set(e) <= set(block)]
                c = components(block, inside)
                want[shift * size + 1] += c - 1
                want[shift * size + 2] += len(inside) - size + c
        profile = ma.homology(k, flavor)
        assert {deg: g.free_rank for deg, g in profile.groups.items() if g.free_rank} == +want
        assert not any(g.torsion for g in profile.groups.values())


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_edge_levels_skip_the_elimination(flavor, monkeypatch):
    # the edges-onto-vertices level of each block is counted from its
    # components: a 1-dimensional K hands no boundary to invariant_factors,
    # and a higher one only the rows of faces with three vertices or more
    calls = []
    factors = ma.invariant_factors

    def recorded(rows):
        calls.append(rows)
        return factors(rows)

    monkeypatch.setattr(ma, "invariant_factors", recorded)
    for k in [dual_complex(pairgen.polygon(m)) for m in range(4, 13)] + seeded_graphs(7):
        ma.homology(k, flavor)
    assert calls == []
    polytopes = [pairgen.cube(n) for n in range(2, 6)]
    polytopes += [pairgen.simplex_product(dims)
                  for dims in ([1, 2], [2, 2], [1, 4], [2, 3], [1, 1, 2], [1, 2, 3], [4, 4])]
    for p in polytopes:
        ma.homology(dual_complex(p), flavor)
    assert calls and all(len(row) >= 3 for rows in calls for row in rows)


def test_merge_torsion_gives_invariant_factors():
    assert ma._merge_torsion([2, 3]) == [6]
    assert ma._merge_torsion([4, 6]) == [2, 12]
    assert ma._merge_torsion([2, 2, 4]) == [2, 2, 4]
    assert ma._merge_torsion([4, 2, 2]) == [2, 2, 4]
    assert ma._merge_torsion([]) == []


def test_budget_enforced():
    k = simplicial_complex(13, [[i] for i in range(1, 14)])
    for flavor in (ma.COMPLEX, ma.QUATERNIONIC):
        with pytest.raises(BudgetError) as exc:
            ma.homology(k, flavor)
        assert exc.value.bound == 12


def test_simplex_models_are_spheres_complex():
    for n in range(1, 4):
        k = simplex_dual(n)
        profile = ma.homology(k, ma.COMPLEX)
        assert ma.is_sphere_profile(profile, 2 * n + 1), profile.groups


def test_simplex_models_are_spheres_quaternionic():
    for n in range(1, 3):
        k = simplex_dual(n)
        profile = ma.homology(k, ma.QUATERNIONIC)
        assert ma.is_sphere_profile(profile, 4 * n + 3), profile.groups


def test_square_model_is_product_of_spheres():
    profile = ma.homology(square_dual(), ma.COMPLEX)
    assert profile.rank(0) == 1 and profile.rank(3) == 2 and profile.rank(6) == 1
    assert profile.nonzero_degrees() == [0, 3, 6]
    assert all(not profile.torsion(d) for d in range(7))


def test_poincare_duality_ranks():
    for k, flavor, n in [(square_dual(), ma.COMPLEX, 2),
                         (simplex_dual(2), ma.COMPLEX, 2),
                         (simplex_dual(1), ma.QUATERNIONIC, 1)]:
        profile = ma.homology(k, flavor)
        top = ma.dimension(k, flavor, n)
        for deg in range(top + 1):
            assert profile.rank(deg) == profile.rank(top - deg), (flavor, deg)


@pytest.mark.parametrize("flavor", [ma.COMPLEX, ma.QUATERNIONIC])
def test_poincare_duality_over_seeded_polytopes(flavor):
    # a moment-angle manifold is closed and orientable: ranks pair off in
    # degrees d and N - d, torsion in degrees d and N - d - 1
    rng = random.Random(f"duality:{flavor}")
    polytopes = [pairgen.polygon(m) for m in range(4, 9)]
    polytopes += [pairgen.cube(n) for n in range(2, 5)]
    while len(polytopes) < 13:
        dims = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        if sum(dims) + len(dims) <= 8:
            polytopes.append(pairgen.simplex_product(dims))
    for p in polytopes:
        k = dual_complex(p)
        profile = ma.homology(k, flavor)
        top = ma.dimension(k, flavor, p.dim)
        assert max(profile.groups) == top
        for deg in range(top + 1):
            assert profile.rank(deg) == profile.rank(top - deg), (p, deg)
            assert profile.torsion(deg) == profile.torsion(top - deg - 1), (p, deg)
        assert profile.euler_characteristic == 0, p


def test_euler_characteristic_consistency():
    rng = random.Random(44)
    for trial in range(10):
        k = random_complex(rng, rng.randint(2, 4))
        profile = ma.homology(k, ma.COMPLEX)
        assert profile.euler_characteristic == sum(
            (-1) ** deg * g.free_rank for deg, g in profile.groups.items())


def test_full_simplex_model_is_contractible():
    # over the full simplex the product is D^2 x D^2, a contractible space
    k = simplicial_complex(2, [[1, 2]])
    profile = ma.homology(k, ma.COMPLEX)
    assert profile.rank(0) == 1
    assert profile.nonzero_degrees() == [0]
