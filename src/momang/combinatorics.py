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
        # in a set of faces of one size, none contains another
        if len({len(f) for f in faces}) > 1:
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


def _vertex_data(k):
    """Per vertex: sorted sizes of the maximal faces through it, and its
    neighbours (the other vertices of those faces)."""
    through = {v: [f for f in k.maximal_faces if v in f]
               for v in range(1, k.vertex_count + 1)}
    return ({v: tuple(sorted(map(len, fs))) for v, fs in through.items()},
            {v: set().union(*fs) - {v} for v, fs in through.items()})


def _isomorphism_search(k1, k2, bound, admit=None):
    """Iterator over `isomorphisms(k1, k2)`, by backtracking over vertex
    images in increasing order; the budget is checked before any node.

    A candidate image must match the vertex's signature and keep
    adjacency and non-adjacency with every vertex already placed (an
    isomorphism maps the 1-skeleton onto the 1-skeleton); placing vertex
    v then checks the maximal faces whose largest vertex is v.  Last, a
    caller's `admit(v, image)` may reject extending the current partial
    bijection by v -> image.
    """
    m = k1.vertex_count
    if m > bound:
        raise BudgetError(f"automorphism search limited to {bound} vertices, got {m}", bound)
    sizes1 = sorted(len(f) for f in k1.maximal_faces)
    sizes2 = sorted(len(f) for f in k2.maximal_faces)
    if k2.vertex_count != m or sizes1 != sizes2:
        return iter(())
    sig1, adj1 = _vertex_data(k1)
    sig2, adj2 = _vertex_data(k2)
    closing = {v: [] for v in sig1}  # largest vertex -> maximal faces of k1
    for f in k1.maximal_faces:
        closing[max(f)].append(tuple(f))
    target_faces = k2.maximal_faces
    image = [0] * (m + 1)  # 1-based
    used = set()

    def extend(vertex):
        if vertex > m:
            yield tuple(image[1:])
            return
        for cand in range(1, m + 1):
            if cand in used or sig2[cand] != sig1[vertex]:
                continue
            if any((image[w] in adj2[cand]) != (w in adj1[vertex])
                   for w in range(1, vertex)):
                continue
            image[vertex] = cand
            if (all(frozenset(map(image.__getitem__, f)) in target_faces
                    for f in closing[vertex])
                    and (admit is None or admit(vertex, cand))):
                used.add(cand)
                yield from extend(vertex + 1)
                used.discard(cand)
        image[vertex] = 0

    return extend(1)


def isomorphisms(k1, k2, bound=DEFAULT_SEARCH_BOUND):
    """All vertex bijections mapping faces of k1 onto faces of k2, in
    increasing lexicographic order; each maps vertex i to result[i-1]."""
    return list(_isomorphism_search(k1, k2, bound))


def automorphisms(k, bound=DEFAULT_SEARCH_BOUND):
    """All vertex permutations preserving the face set, identity included."""
    return isomorphisms(k, k, bound=bound)
