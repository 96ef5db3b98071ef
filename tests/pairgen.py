"""Seeded polytopes and characteristic pairs for the search oracles.

Polytopes are `SimplePolytopeData`, pairs are column lists; nothing here
calls the search code under test.
"""

import random
from itertools import combinations, product

from momang.charpair import from_columns
from momang.combinatorics import simple_polytope, simplicial_complex


def polygon(m):
    """The m-gon with facets 1..m in cyclic order."""
    return simple_polytope(m, 2, [[i, i % m + 1] for i in range(1, m + 1)])


def simplex_product(dims):
    """Delta^{d_1} x ... x Delta^{d_r}; factor k owns the k-th block of facets."""
    offset, factors = 0, []
    for d in dims:
        factors.append(list(combinations(range(offset + 1, offset + d + 2), d)))
        offset += d + 1
    vertices = [sum(choice, ()) for choice in product(*factors)]
    return simple_polytope(offset, sum(dims), vertices)


def cube(n):
    return simplex_product([1] * n)


def staged_columns(rng, dims, twist=2):
    """A generalized Bott tower over simplex_product(dims).

    Factor k has the standard fan of Delta^{d_k} on its own block of
    coordinates, and its last facet is twisted by random entries in the
    blocks of later factors; the block-triangular shape keeps every
    vertex submatrix unimodular.
    """
    n = sum(dims)
    cols, start = [], 0
    for d in dims:
        block = range(start, start + d)
        cols += [[int(r == i) for r in range(n)] for i in block]
        last = [-1 if r in block else 0 for r in range(n)]
        for r in range(start + d, n):
            last[r] = rng.randint(-twist, twist)
        cols.append(last)
        start += d
    return cols


def polygon_columns(rng, m):
    """A pair over the m-gon, m >= 3: blow-ups of the projective plane.

    Inserting v_i + v_{i+1} between two adjacent columns keeps every
    adjacent determinant at +-1.
    """
    cols = [[1, 0], [0, 1], [-1, -1]]
    while len(cols) < m:
        i = rng.randrange(len(cols))
        a, b = cols[i], cols[(i + 1) % len(cols)]
        cols.insert(i + 1, [x + y for x, y in zip(a, b)])
    return cols


def random_unimodular(rng, n):
    """An element of GL(n, Z) as a product of elementary moves and sign flips."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-1, 1))
            mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    return [[x * sign for x in row]
            for row, sign in zip(mat, (rng.choice((-1, 1)) for _ in mat))]


def relabel(p, cols, perm):
    """The same pair with facet i renamed perm[i-1]."""
    moved = [None] * len(cols)
    for i, j in enumerate(perm):
        moved[j - 1] = cols[i]
    verts = [[perm[i - 1] for i in v] for v in p.vertices]
    return simple_polytope(p.facet_count, p.dim, verts), moved


def disguise(rng, p, cols):
    """A random base change, column signs and facet relabelling of a pair;
    returns the new polytope and its CharacteristicMatrix."""
    n = p.dim
    delta = random_unimodular(rng, n)
    signs = [rng.choice((-1, 1)) for _ in cols]
    cols = [[s * sum(delta[r][k] * col[k] for k in range(n)) for r in range(n)]
            for col, s in zip(cols, signs)]
    perm = list(range(1, p.facet_count + 1))
    rng.shuffle(perm)
    q, cols = relabel(p, cols, perm)
    return q, from_columns(cols)


def seeded_pairs():
    """Bott towers over the n-cubes up to n = 5, generalized towers over
    simplex products and blow-ups of the plane, every other one disguised."""
    rng = random.Random(11)
    pairs = [(cube(n), staged_columns(rng, [1] * n))
             for n in range(1, 6) for _ in range(2)]
    pairs += [(simplex_product(dims), staged_columns(rng, dims))
              for dims in ([1, 2], [2, 2], [1, 3], [1, 1, 2], [3])]
    pairs += [(polygon(m), polygon_columns(rng, m)) for m in range(3, 9)]
    for k, (p, cols) in enumerate(pairs):
        yield disguise(rng, p, cols) if k % 2 else (p, from_columns(cols))


def relabel_complex(k, perm):
    return simplicial_complex(k.vertex_count,
                              [[perm[i - 1] for i in f] for f in k.maximal_faces])


def random_complex(rng, m):
    """A random complex on 1..m with a few faces of mixed sizes."""
    while True:
        faces = {frozenset(rng.sample(range(1, m + 1), rng.randint(1, m - 1)))
                 for _ in range(rng.randint(2, 6))}
        maximal = [f for f in faces if not any(f < g for g in faces)]
        if set().union(*maximal) == set(range(1, m + 1)):
            return simplicial_complex(m, maximal)


def random_flag_complex(rng, m):
    """The clique complex of a random graph on 1..m."""
    edges = {e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.5}
    cliques = [set(c) for size in range(1, m + 1)
               for c in combinations(range(1, m + 1), size)
               if all(e in edges for e in combinations(c, 2))]
    return simplicial_complex(m, [c for c in cliques if not any(c < d for d in cliques)])
