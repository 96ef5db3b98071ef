import random
import re

import pytest

import pairgen
from momang import combinatorics as comb
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


def test_polytope_rejects_repeated_vertex():
    with pytest.raises(ValidationError, match="repeated"):
        comb.simple_polytope(2, 1, [[1], [1], [2]])


def test_polytope_rejects_non_pseudomanifold():
    # three facets of a 1-polytope: the empty ridge lies in three vertices
    with pytest.raises(ValidationError):
        comb.simple_polytope(3, 1, [[1], [2], [3]])


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
        pairgen.simplex_product([1, 1, 2]))]
    randoms = [pairgen.random_complex(rng, rng.randint(3, 8)) for _ in range(20)]
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

