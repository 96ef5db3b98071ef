"""Simple-polytope combinatorics and simplicial complexes.

Polytopes are stored purely combinatorially, as the incidence between
vertices and facets; all constructions downstream depend only on the
face lattice.  Facets are indexed 1..m throughout.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetError, ValidationError

DEFAULT_SEARCH_BOUND = 12


@dataclass(frozen=True)
class SimplicialComplexData:
    """A simplicial complex given by its maximal faces on vertices 1..m."""

    vertex_count: int
    maximal_faces: frozenset  # frozenset of frozensets of ints

    def __post_init__(self):
        m = self.vertex_count
        if m <= 0:
            raise ValidationError("vertex_count must be positive")
        faces = self.maximal_faces
        if not faces:
            raise ValidationError("empty complex rejected: no maximal faces")
        covered = set()
        for f in faces:
            if not f:
                raise ValidationError("empty maximal face rejected")
            if not all(1 <= i <= m for i in f):
                raise ValidationError(f"face {sorted(f)} has a vertex outside 1..{m}")
            covered |= f
        if covered != set(range(1, m + 1)):
            missing = sorted(set(range(1, m + 1)) - covered)
            raise ValidationError(f"vertices {missing} appear in no face")
        for f in faces:
            for g in faces:
                if f != g and f <= g:
                    raise ValidationError(
                        f"maximal face {sorted(f)} is contained in {sorted(g)}")

    @property
    def m(self):
        return self.vertex_count

    def is_face(self, subset):
        s = frozenset(subset)
        return any(s <= f for f in self.maximal_faces)

    def dimension(self):
        return max(len(f) for f in self.maximal_faces) - 1


def simplicial_complex(m, maximal_faces):
    return SimplicialComplexData(m, frozenset(frozenset(f) for f in maximal_faces))


@dataclass(frozen=True)
class SimplePolytopeData:
    """A simple polytope, each vertex recorded as the set of facets through it."""

    facet_count: int
    dim: int
    vertices: tuple  # tuple of frozensets of ints

    def __post_init__(self):
        m, n = self.facet_count, self.dim
        if m <= 0 or n <= 0:
            raise ValidationError("facet_count and dim must be positive")
        seen = set()
        for v in self.vertices:
            if len(v) != n:
                raise ValidationError(
                    f"vertex {sorted(v)} lies on {len(v)} facets, expected {n}")
            if not all(1 <= i <= m for i in v):
                raise ValidationError(f"vertex {sorted(v)} uses a facet outside 1..{m}")
            if v in seen:
                raise ValidationError(f"vertex {sorted(v)} is repeated")
            seen.add(v)
        if not self.vertices:
            raise ValidationError("a polytope needs at least one vertex")
        covered = set().union(*self.vertices)
        if covered != set(range(1, m + 1)):
            missing = sorted(set(range(1, m + 1)) - covered)
            raise ValidationError(f"facets {missing} contain no vertex")
        _check_pseudomanifold(self)
        _check_connected(self)

    @property
    def m(self):
        return self.facet_count

    @property
    def n(self):
        return self.dim


def simple_polytope(m, n, vertices):
    return SimplePolytopeData(m, n, tuple(frozenset(v) for v in vertices))


def _check_pseudomanifold(p):
    # every ridge ((n-2)-face of the dual, i.e. (n-1)-subset of a vertex set)
    # must lie in exactly two vertex sets
    n = p.dim
    counts = {}
    for v in p.vertices:
        for ridge in combinations(sorted(v), n - 1):
            counts[ridge] = counts.get(ridge, 0) + 1
    for ridge, c in counts.items():
        if c != 2:
            raise ValidationError(
                f"ridge {list(ridge)} lies in {c} maximal faces, expected 2")


def _check_connected(p):
    verts = list(p.vertices)
    n = p.dim
    if len(verts) == 1:
        return
    adj = {i: set() for i in range(len(verts))}
    for i, j in combinations(range(len(verts)), 2):
        if len(verts[i] & verts[j]) == n - 1:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur] - seen:
            seen.add(nxt)
            stack.append(nxt)
    if len(seen) != len(verts):
        raise ValidationError("dual complex is not connected")


def dual_complex(p):
    """The nerve complex of the polytope: faces are facet sets with a common vertex."""
    return SimplicialComplexData(p.facet_count, frozenset(p.vertices))


def enumerate_faces(k):
    """All nonempty faces grouped by dimension, lexicographic within each.

    Returns a list indexed by dimension; entry d holds the sorted tuples
    of the d-dimensional faces.
    """
    faces = set()
    for f in k.maximal_faces:
        elems = sorted(f)
        for size in range(1, len(elems) + 1):
            faces.update(combinations(elems, size))
    top = max(len(f) for f in faces)
    grouped = [[] for _ in range(top)]
    for f in faces:
        grouped[len(f) - 1].append(f)
    for level in grouped:
        level.sort()
    return grouped


def minimal_non_faces(k):
    """Inclusion-minimal subsets of 1..m that are not faces, deterministic order."""
    m = k.vertex_count
    faces = {f for level in enumerate_faces(k) for f in level}
    result = []
    for size in range(1, m + 1):
        for subset in combinations(range(1, m + 1), size):
            if subset in faces:
                continue
            if all(sub in faces for sub in combinations(subset, size - 1)):
                result.append(subset)
    return result


def _vertex_signature(k, vertex):
    return tuple(sorted(len(f) for f in k.maximal_faces if vertex in f))


def isomorphisms(k1, k2, bound=DEFAULT_SEARCH_BOUND):
    """All vertex bijections mapping faces of k1 onto faces of k2.

    Exhaustive backtracking over vertex images, pruned by incidence
    signatures and by completed maximal faces.  Each result maps vertex
    i to result[i-1].
    """
    m = k1.vertex_count
    if m > bound:
        raise BudgetError(f"automorphism search limited to {bound} vertices, got {m}", bound)
    if k2.vertex_count != m:
        return []
    sizes1 = sorted(len(f) for f in k1.maximal_faces)
    sizes2 = sorted(len(f) for f in k2.maximal_faces)
    if sizes1 != sizes2:
        return []
    sig2 = {v: _vertex_signature(k2, v) for v in range(1, m + 1)}
    faces1 = [frozenset(f) for f in sorted(k1.maximal_faces, key=sorted)]
    target_faces = k2.maximal_faces
    results = []
    image = [0] * (m + 1)  # 1-based
    used = set()

    def extend(vertex):
        if vertex > m:
            results.append(tuple(image[1:]))
            return
        want = _vertex_signature(k1, vertex)
        for cand in range(1, m + 1):
            if cand in used or sig2[cand] != want:
                continue
            image[vertex] = cand
            used.add(cand)
            ok = True
            for f in faces1:
                if vertex in f and all(w <= vertex for w in f):
                    if frozenset(image[w] for w in f) not in target_faces:
                        ok = False
                        break
            if ok:
                extend(vertex + 1)
            used.discard(cand)
            image[vertex] = 0

    extend(1)
    return results


def automorphisms(k, bound=DEFAULT_SEARCH_BOUND):
    """All vertex permutations preserving the face set, identity included."""
    return isomorphisms(k, k, bound=bound)


def face_poset(p):
    """Faces of the polytope as (sorted facet tuple, codimension) pairs.

    A facet subset appears iff the facets share a common vertex; the
    codimension is its cardinality.  Includes the empty face (the whole
    polytope) at codimension 0, ordered by codimension then lexicographic.
    """
    faces = {()}
    for v in p.vertices:
        elems = sorted(v)
        for size in range(1, len(elems) + 1):
            faces.update(combinations(elems, size))
    ordered = sorted(faces, key=lambda f: (len(f), f))
    return [(f, len(f)) for f in ordered]
