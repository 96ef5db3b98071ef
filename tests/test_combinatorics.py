import random
import re
from itertools import combinations

import pytest

import pairgen
from momang import combinatorics as comb
from momang.cohomology import quasitoric_presentation
from momang.errors import BudgetError, ValidationError


def segment():
    return comb.simple_polytope(2, 1, [[1], [2]])


def square():
    return comb.simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])


def simplex(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return comb.simple_polytope(m, n, verts)


def cube():
    return comb.simple_polytope(6, 3, [
        [1, 2, 3], [1, 2, 6], [1, 3, 5], [1, 5, 6],
        [2, 3, 4], [2, 4, 6], [3, 4, 5], [4, 5, 6]])


def test_polytope_rejects_wrong_vertex_cardinality():
    with pytest.raises(ValidationError, match=r"\[1, 2\]"):
        comb.simple_polytope(3, 1, [[1, 2], [3]])


def test_polytope_rejects_unused_facet():
    with pytest.raises(ValidationError, match="contain no vertex"):
        comb.simple_polytope(3, 1, [[1], [2]])


def test_dual_complex_is_built_once_per_polytope():
    p = cube()
    k = comb.dual_complex(p)
    assert comb.dual_complex(p) is k
    assert k.maximal_faces == frozenset(p.vertices)
    assert comb.dual_complex(cube()) is not k


def test_polytope_rejects_repeated_vertex():
    with pytest.raises(ValidationError, match="repeated"):
        comb.simple_polytope(2, 1, [[1], [1], [2]])


def test_polytope_rejects_non_pseudomanifold():
    # three facets of a 1-polytope: the empty ridge lies in three vertices
    with pytest.raises(ValidationError):
        comb.simple_polytope(3, 1, [[1], [2], [3]])


# the 7-vertex triangulation of the torus: triangles {i, i+1, i+3} and
# {i, i+2, i+3} mod 7, a closed pseudomanifold with a connected vertex graph
SEVEN_VERTEX_TORUS = [[(i + a) % 7 + 1 for a in t] for i in range(7)
                      for t in ((0, 1, 3), (0, 2, 3))]


def test_polytope_rejects_the_seven_vertex_torus():
    # a closed 2-pseudomanifold has chi = m - V/2; the torus has 7 - 14/2 = 0
    with pytest.raises(ValidationError, match="Euler characteristic 0, expected 2"):
        comb.simple_polytope(7, 3, SEVEN_VERTEX_TORUS)


def test_polytope_rejects_the_six_vertex_projective_plane():
    # RP^2_6: ten triangles on six vertices, every edge in two, chi = 6 - 5 = 1
    rp2 = [[1, 2, 4], [1, 3, 4], [1, 3, 5], [1, 2, 6], [1, 5, 6],
           [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6]]
    with pytest.raises(ValidationError, match="Euler characteristic 1, expected 2"):
        comb.simple_polytope(6, 3, rp2)


def reference_connected(vertices, n):
    """The seed scan: two vertices are adjacent iff they share n - 1
    facets, tested over every pair of vertices."""
    verts = list(vertices)
    adj = {i: set() for i in range(len(verts))}
    for i, j in combinations(range(len(verts)), 2):
        if len(verts[i] & verts[j]) == n - 1:
            adj[i].add(j)
            adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for nxt in adj[stack.pop()] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return len(seen) == len(verts)


def reference_first_bad_ridge(vertices, n):
    """The seed count: the first ridge, in order of first appearance, that
    does not lie in exactly two vertices, with its count; None if none."""
    counts = {}
    for v in vertices:
        for ridge in combinations(sorted(v), n - 1):
            counts[ridge] = counts.get(ridge, 0) + 1
    return next(((r, c) for r, c in counts.items() if c != 2), None)


def shuffled(rng, p):
    """The vertices of p with its facets relabelled and listed in a seeded order."""
    perm = list(range(1, p.facet_count + 1))
    rng.shuffle(perm)
    verts = [frozenset(perm[i - 1] for i in v) for v in p.vertices]
    rng.shuffle(verts)
    return tuple(verts)


def side_by_side(p, q):
    """The vertices of p and of q, q's facets shifted past p's: a
    pseudomanifold with two components."""
    shift = p.facet_count
    return p.vertices + tuple(frozenset(i + shift for i in v) for v in q.vertices)


def test_connectivity_through_ridges_matches_the_pair_scan():
    rng = random.Random("ridges")
    polytopes = [pairgen.cube(n) for n in range(1, 8)]
    polytopes += [pairgen.simplex_product(dims) for dims in
                  ([1], [3], [1, 2], [2, 2], [1, 1, 2], [5, 5], [2, 3, 4])]
    polytopes += [pairgen.polygon(m) for m in range(3, 13)]
    for p in polytopes:
        verts = shuffled(rng, p)
        assert reference_connected(verts, p.dim)
        q = comb.SimplePolytopeData(p.facet_count, p.dim, verts)
        assert q.vertices == verts
    square, triangle = pairgen.polygon(4), pairgen.polygon(3)
    three_cube = pairgen.cube(3)
    apart = [(square, square), (square, triangle), (triangle, pairgen.polygon(7)),
             (three_cube, three_cube), (three_cube, pairgen.simplex_product([1, 2]))]
    apart += [(pairgen.polygon(rng.randint(3, 8)), pairgen.polygon(rng.randint(3, 8)))
              for _ in range(5)]
    for p, q in apart:
        verts = side_by_side(p, q)
        m = p.facet_count + q.facet_count
        assert reference_first_bad_ridge(verts, p.dim) is None
        assert not reference_connected(verts, p.dim)
        with pytest.raises(ValidationError, match="^dual complex is not connected$"):
            comb.SimplePolytopeData(m, p.dim, verts)


def test_non_pseudomanifold_names_the_same_first_ridge():
    rng = random.Random("bad ridges")
    cases = [(3, 1, (frozenset([1]), frozenset([2]), frozenset([3])))]
    for p in [pairgen.cube(n) for n in range(2, 6)] + [pairgen.polygon(m) for m in (5, 8)]:
        verts = list(shuffled(rng, p))
        cases.append((p.facet_count, p.dim, tuple(verts[1:])))  # a vertex dropped
        extra = verts[0]
        while extra in verts:
            extra = frozenset(rng.sample(range(1, p.facet_count + 1), p.dim))
        cases.append((p.facet_count, p.dim, tuple(verts + [extra])))  # a vertex added
    assert len(cases) == 13
    for m, n, verts in cases:
        ridge, count = reference_first_bad_ridge(verts, n)
        with pytest.raises(ValidationError) as err:
            comb.SimplePolytopeData(m, n, verts)
        assert str(err.value) == f"ridge {list(ridge)} lies in {count} maximal faces, expected 2"


def test_complex_rejects_contained_maximal_face():
    with pytest.raises(ValidationError, match="contained"):
        comb.simplicial_complex(3, [[1, 2, 3], [1, 2]])


def test_complex_of_mixed_face_sizes_rejects_a_nested_face():
    # faces of one size skip the containment check; mixed sizes still run it
    with pytest.raises(ValidationError,
                       match=re.escape("maximal face [1] is contained in [1, 2]")):
        comb.simplicial_complex(3, [[1, 2], [1], [3]])
    assert comb.simplicial_complex(3, [[1, 2], [3]]).dimension() == 1


def test_complex_rejects_missing_vertex():
    with pytest.raises(ValidationError, match=r"\[3\]"):
        comb.simplicial_complex(3, [[1, 2]])


def test_dual_complex_of_square():
    k = comb.dual_complex(square())
    assert k.vertex_count == 4
    assert k.is_face([1, 2]) and not k.is_face([1, 3])
    assert k.dimension() == 1


def test_enumerate_faces_counts():
    k = comb.dual_complex(cube())
    grouped = comb.enumerate_faces(k)
    assert [len(level) for level in grouped] == [6, 12, 8]


def test_minimal_non_faces_square():
    k = comb.dual_complex(square())
    assert comb.minimal_non_faces(k) == [(1, 3), (2, 4)]


def test_minimal_non_faces_simplex_boundary():
    k = comb.dual_complex(simplex(2))
    assert comb.minimal_non_faces(k) == [(1, 2, 3)]


def unbounded_minimal_non_faces(k):
    # every size up to m, as the scan did before it stopped at dimension + 2
    m = k.vertex_count
    faces = {f for level in comb.enumerate_faces(k) for f in level}
    return [s for size in range(1, m + 1) for s in combinations(range(1, m + 1), size)
            if s not in faces and all(t in faces for t in combinations(s, size - 1))]


def test_minimal_non_faces_match_the_unbounded_scan():
    rng = random.Random("minimal non-faces")
    complexes = [comb.dual_complex(pairgen.cube(n)) for n in range(1, 8)]
    complexes += [comb.dual_complex(pairgen.simplex_product(dims))
                  for dims in ([1, 2], [2, 2], [1, 3], [1, 1, 2], [3, 3])]
    for m in range(3, 11):
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        k = comb.dual_complex(pairgen.polygon(m))
        complexes.append(pairgen.relabel_complex(k, perm))
    complexes += [pairgen.random_flag_complex(rng, rng.randint(3, 9)) for _ in range(12)]
    for k in complexes:
        assert comb.minimal_non_faces(k) == unbounded_minimal_non_faces(k)


def reference_minimal_non_faces(k):
    """The seed scan: every vertex subset of at most dimension + 2 vertices
    that is not a face while each of its facets is."""
    m = k.vertex_count
    faces = {f for level in comb.enumerate_faces(k) for f in level}
    return [s for size in range(1, min(m, k.dimension() + 2) + 1)
            for s in combinations(range(1, m + 1), size)
            if s not in faces and all(t in faces for t in combinations(s, size - 1))]


M12_PRODUCTS = ([11], [1, 9], [5, 5], [2, 3, 4], [3, 3, 3], [2, 2, 2, 2])


def test_minimal_non_faces_match_the_subset_scan_and_are_kept():
    rng = random.Random("subset scan")
    polytopes = [pairgen.polygon(m) for m in range(3, 13)]
    polytopes += [pairgen.cube(n) for n in range(2, 7)]
    polytopes += [pairgen.simplex_product(dims) for dims in M12_PRODUCTS]
    complexes = [comb.dual_complex(p) for p in polytopes]
    complexes += [pairgen.random_complex(rng, rng.randint(3, 9)) for _ in range(30)]
    complexes += [pairgen.random_flag_complex(rng, rng.randint(3, 9)) for _ in range(30)]
    for k in complexes:
        nf = comb.minimal_non_faces(k)
        assert nf == reference_minimal_non_faces(k), sorted(map(sorted, k.maximal_faces))
        assert comb.minimal_non_faces(k) is nf


def test_quasitoric_presentation_reads_the_kept_non_faces():
    for p, lam in pairgen.seeded_pairs():
        assert (quasitoric_presentation(p, lam).non_faces
                is comb.minimal_non_faces(comb.dual_complex(p)))


def test_automorphisms_square_is_dihedral():
    k = comb.dual_complex(square())
    autos = comb.automorphisms(k)
    assert len(autos) == 8
    assert (1, 2, 3, 4) in autos
    for sigma in autos:
        for f in k.maximal_faces:
            assert frozenset(sigma[i - 1] for i in f) in k.maximal_faces


def test_automorphisms_simplex_boundary():
    k = comb.dual_complex(simplex(3))
    assert len(comb.automorphisms(k)) == 24


def test_isomorphisms_relabeled_square():
    k1 = comb.dual_complex(square())
    k2 = comb.simplicial_complex(4, [[1, 3], [3, 2], [2, 4], [4, 1]])
    isos = comb.isomorphisms(k1, k2)
    assert len(isos) == 8
    for iso in isos:
        for f in k1.maximal_faces:
            assert frozenset(iso[i - 1] for i in f) in k2.maximal_faces


def test_isomorphisms_distinguish():
    k1 = comb.dual_complex(square())
    k2 = comb.dual_complex(simplex(3))
    assert comb.isomorphisms(k1, k2) == []


def test_isomorphism_budget():
    k = comb.simplicial_complex(13, [[i, i + 1] for i in range(1, 13)] + [[13, 1]])
    with pytest.raises(BudgetError) as exc:
        comb.automorphisms(k)
    assert exc.value.bound == 12
    assert len(comb.automorphisms(k, bound=13)) == 26


def reference_isomorphisms(k1, k2):
    """The seed search: backtracking over vertex images, pruned only by
    incidence signatures and by scanning every maximal face at every node."""
    def signature(k, vertex):
        return tuple(sorted(len(f) for f in k.maximal_faces if vertex in f))

    m = k1.vertex_count
    if k2.vertex_count != m:
        return []
    if (sorted(len(f) for f in k1.maximal_faces)
            != sorted(len(f) for f in k2.maximal_faces)):
        return []
    sig2 = {v: signature(k2, v) for v in range(1, m + 1)}
    faces1 = [frozenset(f) for f in sorted(k1.maximal_faces, key=sorted)]
    results = []
    image = [0] * (m + 1)
    used = set()

    def extend(vertex):
        if vertex > m:
            results.append(tuple(image[1:]))
            return
        want = signature(k1, vertex)
        for cand in range(1, m + 1):
            if cand in used or sig2[cand] != want:
                continue
            image[vertex] = cand
            used.add(cand)
            if all(frozenset(image[w] for w in f) in k2.maximal_faces
                   for f in faces1 if vertex in f and all(w <= vertex for w in f)):
                extend(vertex + 1)
            used.discard(cand)
            image[vertex] = 0

    extend(1)
    return results


def test_isomorphisms_match_the_seed_search_in_order():
    rng = random.Random(23)
    named = [comb.dual_complex(p) for p in (
        pairgen.polygon(10), pairgen.polygon(12), pairgen.cube(3), pairgen.cube(4),
        pairgen.simplex_product([1, 2]), pairgen.simplex_product([2, 2]),
        pairgen.simplex_product([1, 3]), pairgen.simplex_product([1, 1, 2]))]
    randoms = [pairgen.random_complex(rng, rng.randint(3, 8)) for _ in range(20)]
    randoms += [pairgen.random_flag_complex(rng, rng.randint(3, 8)) for _ in range(20)]
    total = 0
    for k in named + randoms:
        perm = list(range(1, k.vertex_count + 1))
        rng.shuffle(perm)
        for k2 in (k, pairgen.relabel_complex(k, perm), rng.choice(randoms)):
            want = reference_isomorphisms(k, k2)
            assert comb.isomorphisms(k, k2) == want, (k, k2)
            total += len(want)
    assert len(comb.automorphisms(comb.dual_complex(pairgen.cube(4)))) == 384
    assert total > 1000


@pytest.mark.parametrize("dims", [[5, 5], [3, 3, 3], [2, 2, 2, 2]])
def test_first_isomorphism_onto_a_relabelled_simplex_product(dims):
    # m = 12, inside the default bound; |Aut| is 1 036 800, 82 944 and 31 104
    rng = random.Random(str(dims))
    k = comb.dual_complex(pairgen.simplex_product(dims))
    perm = list(range(1, 13))
    rng.shuffle(perm)
    k2 = pairgen.relabel_complex(k, perm)
    hit = next(comb._isomorphism_search(k, k2, comb.DEFAULT_SEARCH_BOUND))
    assert sorted(hit) == list(range(1, 13))
    for f in k.maximal_faces:
        assert frozenset(hit[i - 1] for i in f) in k2.maximal_faces


def test_simplex_products_of_other_factors_have_no_isomorphism():
    # m = 12 and n = 9 on both sides
    k1 = comb.dual_complex(pairgen.simplex_product([2, 3, 4]))
    k2 = comb.dual_complex(pairgen.simplex_product([3, 3, 3]))
    assert next(comb._isomorphism_search(k1, k2, comb.DEFAULT_SEARCH_BOUND), None) is None
