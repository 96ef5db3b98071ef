"""Simple-polytope combinatorics and simplicial complexes.

Polytopes are stored purely combinatorially, as the incidence between
vertices and facets; all constructions downstream depend only on the
face lattice.  Facets are indexed 1..m throughout.
"""

from itertools import combinations

from .errors import BudgetError, ValidationError

DEFAULT_SEARCH_BOUND = 12


class SimplicialComplexData:
    """A simplicial complex given by its maximal faces on vertices 1..m;
    `minimal_non_faces` keeps its list in `_non_faces`, so the record is
    not to be changed after construction."""

    __slots__ = ("vertex_count", "maximal_faces", "_non_faces")

    def __init__(self, vertex_count: int, maximal_faces: frozenset):
        self.vertex_count = vertex_count
        self.maximal_faces = maximal_faces  # frozenset of frozensets of ints
        self._non_faces = None
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


class SimplePolytopeData:
    """A simple polytope, each vertex recorded as the set of facets through it.

    `neighbours` maps each vertex to those sharing a ridge (an edge) with
    it, and `dual_complex` keeps the complex it builds in `_dual`, so the
    record is not to be changed after construction.
    """

    __slots__ = ("facet_count", "dim", "vertices", "neighbours", "_dual")

    def __init__(self, facet_count: int, dim: int, vertices: tuple):
        self.facet_count = facet_count
        self.dim = dim
        self.vertices = vertices  # tuple of frozensets of ints
        self._dual = None
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
        self.neighbours = _check_connected(self, _check_pseudomanifold(self))
        # a ridge-connected 2-pseudomanifold is a 2-sphere iff chi = m - V/2 = 2
        if n == 3 and 2 * m - len(self.vertices) != 4:
            raise ValidationError(f"dual complex has Euler characteristic "
                                  f"{m - len(self.vertices) // 2}, expected 2 for a 2-sphere")

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
    # must lie in exactly two vertex sets; returns those pairs
    by_ridge = {}
    for v in p.vertices:
        for ridge in combinations(sorted(v), p.dim - 1):
            by_ridge.setdefault(ridge, []).append(v)
    for ridge, verts in by_ridge.items():
        if len(verts) != 2:
            raise ValidationError(
                f"ridge {list(ridge)} lies in {len(verts)} maximal faces, expected 2")
    return by_ridge.values()


def _check_connected(p, ridge_pairs):
    # two vertices are adjacent iff they share a ridge; returns the adjacency
    adj = {v: [] for v in p.vertices}
    for a, b in ridge_pairs:
        adj[a].append(b)
        adj[b].append(a)
    if _forest_rank(ridge_pairs) != len(p.vertices) - 1:
        raise ValidationError("dual complex is not connected")
    return adj


def _forest_rank(edges):
    """Rank of a graph's edges-onto-vertices boundary: the merging edges."""
    parent, merges = {}, 0
    for u, v in edges:
        while u in parent:
            u = parent[u]
        while v in parent:
            v = parent[v]
        if u != v:
            parent[u] = v
            merges += 1
    return merges


def dual_complex(p):
    """The nerve complex of the polytope: faces are facet sets with a common
    vertex.  Built on the first call and the same object on every later one."""
    if p._dual is None:
        p._dual = SimplicialComplexData(p.facet_count, frozenset(p.vertices))
    return p._dual


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
    """Inclusion-minimal subsets of 1..m that are not faces, by size and then
    lexicographically; built on the first call, the same list on later ones.
    Each is a face plus one vertex above the face's largest, and the faces
    are the subsets of the maximal faces, as bit masks (vertex i at bit i)."""
    if k._non_faces is None:
        faces = set()
        for top in k.maximal_faces:
            subs = [0]
            for i in top:
                subs += [s | 1 << i for s in subs]
            faces.update(subs)
        faces.discard(0)  # every vertex is a face, so no non-face has one vertex
        found = []
        for f in faces:
            for v in range(f.bit_length(), k.vertex_count + 1):
                g = f | 1 << v
                if g in faces:
                    continue
                rest = f  # minimal iff g less any vertex of f is a face (g less v is f)
                while rest and g ^ (rest & -rest) in faces:
                    rest &= rest - 1
                if not rest:
                    found.append(tuple(i for i in range(1, v + 1) if g >> i & 1))
        k._non_faces = sorted(found, key=lambda t: (len(t), t))
    return k._non_faces


def _isomorphism_search(k1, k2, bound, colours=None):
    """Iterator over the colour-preserving `isomorphisms(k1, k2)`, by
    backtracking over vertex images in increasing order; the budget is
    checked before any node.

    A bijection is an isomorphism iff it carries the minimal non-faces of
    k1 onto those of k2.  So placing v -> c checks that each one of k1
    whose largest vertex is v maps onto one of k2, and that no other one
    of k2 through c lies inside the images (equal counts), so that each of
    those pulls back onto one of k1.  With `colours = (colours1, colours2)`,
    vertex v of k1 (colour colours1[v-1]) tries only the c of k2 whose
    colour colours2[c-1] is equal, and nothing is yielded when the sorted
    colour lists differ.
    """
    m = k1.vertex_count
    if m > bound:
        raise BudgetError(f"automorphism search limited to {bound} vertices, got {m}", bound)
    nf1, nf2 = minimal_non_faces(k1), minimal_non_faces(k2)
    # one colour per vertex, so unequal vertex counts never match either
    colours1, colours2 = colours or ([0] * m, [0] * k2.vertex_count)
    if list(map(len, nf1)) != list(map(len, nf2)) or sorted(colours1) != sorted(colours2):
        return iter(())
    masks = [sum(1 << c for c in g) for g in nf2]
    closing = [[f for f in nf1 if f[-1] == v] for v in range(m + 1)]
    through = [[g for g in masks if g >> c & 1] for c in range(m + 1)]
    options = [None] + [[c for c in range(1, m + 1) if colours2[c - 1] == colour]
                        for colour in colours1]
    targets = set(masks)
    image = [0] * (m + 1)  # 1-based; read only at a leaf
    bit = [0] * (m + 1)  # bit[v] == 1 << image[v]

    def extend(vertex, placed):  # placed: mask of the images so far
        if vertex > m:
            yield tuple(image[1:])
            return
        closed = closing[vertex]
        for cand in options[vertex]:
            now = placed | 1 << cand
            if now == placed:  # cand is an image already
                continue
            image[vertex], bit[vertex] = cand, 1 << cand
            if (all(sum(map(bit.__getitem__, f)) in targets for f in closed)
                    and len([g for g in through[cand] if g & now == g]) == len(closed)):
                yield from extend(vertex + 1, now)

    return extend(1, 0)


def isomorphisms(k1, k2, bound=DEFAULT_SEARCH_BOUND):
    """All vertex bijections mapping faces of k1 onto faces of k2, in
    increasing lexicographic order; each maps vertex i to result[i-1]."""
    return list(_isomorphism_search(k1, k2, bound))


def automorphisms(k, bound=DEFAULT_SEARCH_BOUND):
    """All vertex permutations preserving the face set, identity included."""
    return isomorphisms(k, k, bound=bound)
