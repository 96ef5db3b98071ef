"""Seeded input generators for the three workloads.

Everything here is plain data: polytopes as vertex-facet incidence,
characteristic matrices as column lists, functors as label lists.  The
program under test only ever sees the JSON files written from these
objects.  Each operation carries an `expect` record that names the
independent check to run on its answer (see checks.py).
"""

import random
from itertools import combinations, product

# ---------------------------------------------------------------- polytopes


def polygon(m):
    return {"m": m, "n": 2,
            "vertices": sorted(sorted([i, i % m + 1]) for i in range(1, m + 1))}


def simplex(n):
    m = n + 1
    return {"m": m, "n": n,
            "vertices": [list(c) for c in combinations(range(1, m + 1), n)]}


def simplex_product(dims):
    """Delta^{d_1} x ... x Delta^{d_r}; factor k owns facets block k, in order."""
    offset = 0
    factor_vertices = []
    for d in dims:
        facets = range(offset + 1, offset + d + 2)
        factor_vertices.append([list(c) for c in combinations(facets, d)])
        offset += d + 1
    vertices = sorted(sorted(sum(choice, [])) for choice in product(*factor_vertices))
    return {"m": offset, "n": sum(dims), "vertices": vertices}


def cube(n):
    return simplex_product([1] * n)


def face_set(polytope):
    """All faces of the dual complex (empty face included) as frozensets."""
    faces = {frozenset()}
    for v in polytope["vertices"]:
        for size in range(1, len(v) + 1):
            faces.update(frozenset(c) for c in combinations(v, size))
    return faces


def relabel_polytope(polytope, perm):
    """Facet i becomes facet perm[i-1]."""
    return {"m": polytope["m"], "n": polytope["n"],
            "vertices": sorted(sorted(perm[i - 1] for i in v)
                               for v in polytope["vertices"])}


# ------------------------------------------------------- integer matrices


def det(mat):
    """Exact determinant by cofactor-free Bareiss elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def columns_matrix(cols, idx):
    """n x len(idx) submatrix of the columns with the given 1-based indices."""
    return [[cols[i - 1][r] for i in idx] for r in range(len(cols[0]))]


def random_unimodular(rng, n):
    """A random element of GL(n, Z) as a product of elementary moves."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-1, 1))
            mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    for i in range(n):
        if rng.random() < 0.5:
            mat[i] = [-x for x in mat[i]]
    return mat


def transform(cols, delta, signs):
    """Columns of delta . lam . diag(signs)."""
    n = len(delta)
    return [[s * sum(delta[r][k] * col[k] for k in range(n)) for r in range(n)]
            for col, s in zip(cols, signs)]


def minor_multiset(cols, n):
    """Sorted |n x n minors| over all column subsets: an invariant of a pair
    under base change, column signs and facet relabelling."""
    return sorted(abs(det(columns_matrix(cols, idx)))
                  for idx in combinations(range(1, len(cols) + 1), n))


# ------------------------------------------------------------ pair families


def staged_pair(rng, dims, twist=2):
    """Generalized Bott tower over Delta^{d_1} x ... x Delta^{d_r}.

    Factor k contributes the standard fan of Delta^{d_k} on its own block of
    coordinates; the last facet of each factor is twisted by a random vector
    in the blocks of later factors.  The block-triangular shape makes every
    vertex submatrix unimodular.
    """
    polytope = simplex_product(dims)
    n = polytope["n"]
    cols = []
    start = 0
    for k, d in enumerate(dims):
        block = range(start, start + d)
        for i in block:
            cols.append([1 if r == i else 0 for r in range(n)])
        last = [-1 if r in block else 0 for r in range(n)]
        for r in range(start + d, n):
            last[r] = rng.randint(-twist, twist)
        cols.append(last)
        start += d
    return polytope, cols


def blown_up_polygon(rng, m):
    """Columns of a toric polygon pair: a Hirzebruch square blown up at
    random vertices to m facets, rotated by a random offset."""
    cols = [[1, 0], [0, 1], [-1, rng.randint(0, 2)], [0, -1]]
    while len(cols) < m:
        i = rng.randrange(len(cols))
        a, b = cols[i], cols[(i + 1) % len(cols)]
        cols.insert(i + 1, [a[0] + b[0], a[1] + b[1]])
    shift = rng.randrange(m)
    return cols[shift:] + cols[:shift]


def self_intersections(cols):
    """a_i with lam_{i-1} + lam_{i+1} = a_i lam_i; facet i squares to -a_i [pt]."""
    m = len(cols)
    out = []
    for i in range(m):
        prev, cur, nxt = cols[i - 1], cols[i], cols[(i + 1) % m]
        s = [prev[0] + nxt[0], prev[1] + nxt[1]]
        r = 0 if cur[0] != 0 else 1
        a = s[r] // cur[r]
        if [a * cur[0], a * cur[1]] != s:
            raise ValueError("not a smooth polygon fan")
        out.append(a)
    return out


def greedy_basis_fault(cols):
    """True when the degree-4 monomial basis search of the program hits the
    greedy fault on this toric polygon pair.

    The program eliminates the facets of the first vertex (1, 2) and scans
    monomials in the kept generators x_3..x_m with x_3^2 first.  It takes
    x_3^2 whenever its class is nonzero, and that class is -a_3 [pt]; with
    |a_3| >= 2 it is not a generator and no other monomial is tried.  The
    condition is unchanged by base changes and column signs.
    """
    return abs(self_intersections(cols)[2]) >= 2


def mutate_to_det2(rng, polytope, cols):
    """Break one vertex: column i of a random vertex becomes 2 lam_i + lam_j
    for another facet j of that vertex, so the vertex determinant doubles
    while the new column stays primitive."""
    v = rng.choice(polytope["vertices"])
    i, j = rng.sample(v, 2)
    new = [list(c) for c in cols]
    new[i - 1] = [2 * x + y for x, y in zip(cols[i - 1], cols[j - 1])]
    return new


HEXAGON_FAULT = [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [0, -1]]


def fixed_rng(tag):
    """Generator for pool members that must not depend on the workload seed."""
    return random.Random(f"pool:{tag}")


def pair_input(polytope, cols):
    return {"polytope": polytope,
            "characteristic": {"n": polytope["n"], "m": polytope["m"],
                               "columns": cols}}


def disguise(rng, polytope, cols, relabel=False):
    """Apply a random base change and column signs, and optionally a facet
    relabelling; returns the new polytope, columns and the signs used."""
    n, m = polytope["n"], polytope["m"]
    signs = [rng.choice((1, -1)) for _ in range(m)]
    cols = transform(cols, random_unimodular(rng, n), signs)
    if not relabel:
        return polytope, cols, signs
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    moved = [None] * m
    for i, j in enumerate(perm):
        moved[j - 1] = cols[i]
    return relabel_polytope(polytope, perm), moved, signs


def op(name, cmd, inputs, expect, flags=()):
    return {"name": name, "cmd": cmd, "inputs": inputs, "flags": list(flags),
            "expect": expect}


# ------------------------------------------------------------------ homology

HOMOLOGY_FIXED = (
    [(f"{m}-gon", polygon(m)) for m in range(4, 9)]
    + [("3-cube", cube(3)), ("d2xd2", simplex_product([2, 2])),
       ("d1xd1xd2", simplex_product([1, 1, 2])), ("d5", simplex(5))])
# The complex flavour of these two took 3.4 and 5.4 s on a 2-vCPU VM, two
# thirds of a pass with them; without them a pass is short enough to repeat
# six or seven times in a run, and their quaternionic flavour (about 1 s
# each) stays.
QUATERNIONIC_ONLY = {"8-gon", "d1xd1xd2"}
GRAPH_COUNT, GRAPH_VERTICES, GRAPH_EDGES = 12, 6, 8
# The fixed complexes put ten operations below ~55 ms and nine above ~90 ms.
# The graphs' complex runs and the 6-gon's form one size class in between,
# so the median operation falls inside it; only the first GRAPH_BOTH graphs
# also run quaternionic (~25 ms), which would otherwise push the median to
# the class's edge.
GRAPH_BOTH = 4
FLAVORS = ("complex", "quaternionic")


def random_graph(rng, m, e):
    """Edge list of a random graph on 1..m with e edges and no isolated vertex."""
    pairs = list(combinations(range(1, m + 1), 2))
    while True:
        edges = sorted(rng.sample(pairs, e))
        if {v for edge in edges for v in edge} == set(range(1, m + 1)):
            return [list(edge) for edge in edges]


def graph_pool():
    """The fixed graphs; a graph's homology cost depends on its shape, so the
    shapes do not come from the workload seed."""
    rng = fixed_rng("graphs")
    return [random_graph(rng, GRAPH_VERTICES, GRAPH_EDGES) for _ in range(GRAPH_COUNT)]


GRAPH_POOL = graph_pool()


def reorder_graph(rng, edges):
    """The same graph with its edges, and the ends of each edge, listed in a
    seeded order.  The program orders cells by vertex label, so a vertex
    relabelling would permute the boundary matrices and change the
    elimination order of their Smith forms; the order in which faces are
    listed leaves the matrices exactly as they were."""
    edges = [rng.sample(edge, 2) for edge in edges]
    rng.shuffle(edges)
    return edges


def homology_ops(rng):
    ops = []
    complexes = [(name, p["m"], p["vertices"], {"polytope": p},
                  FLAVORS[1:] if name in QUATERNIONIC_ONLY else FLAVORS)
                 for name, p in HOMOLOGY_FIXED]
    for g, shape in enumerate(GRAPH_POOL):
        edges = reorder_graph(rng, shape)
        complexes.append((f"graph{g}", GRAPH_VERTICES, edges,
                          {"m": GRAPH_VERTICES, "maximal_faces": edges},
                          FLAVORS if g < GRAPH_BOTH else FLAVORS[:1]))
    for name, m, faces, obj, flavors in complexes:
        for flavor in flavors:
            ops.append(op(f"{name}/{flavor}", "homology", [obj],
                          {"kind": "homology", "m": m, "faces": faces,
                           "flavor": flavor},
                          flags=["--flavor", flavor]))
    return ops


# ---------------------------------------------------------------- cohomology

BOTT_SEEDED = {2: 3, 3: 3, 4: 3}     # cube dimension -> seeded towers
BOTT_POOL = (5, 4)                   # four fixed towers over the 5-cube
PRODUCTS = ([1, 2], [2, 1], [2, 2], [1, 3], [1, 1, 2])
POLYGONS = {5: 3, 6: 3, 7: 3, 8: 3}
MUTANTS = 8


def fault_pool():
    """Fixed polygon pairs that hit the greedy-basis fault: the hexagon with
    x_3^2 = -2 [pt], and the first heptagon and octagon of a fixed stream."""
    rng = fixed_rng("fault")
    found = [HEXAGON_FAULT]
    for m in (7, 8):
        while True:
            cols = blown_up_polygon(rng, m)
            if greedy_basis_fault(cols):
                found.append(cols)
                break
    return found


def cohomology_ops(rng):
    pairs = []          # (name, polytope, columns, kept_fault)
    for n, count in BOTT_SEEDED.items():
        for k in range(count):
            pairs.append((f"bott{n}.{k}",) + staged_pair(rng, [1] * n) + (False,))
    pool = fixed_rng("bott5")
    for k in range(BOTT_POOL[1]):
        pairs.append((f"bott5.{k}",) + staged_pair(pool, [1] * BOTT_POOL[0]) + (False,))
    for dims in PRODUCTS:
        for k in range(2):
            name = "d" + "xd".join(map(str, dims))
            pairs.append((f"{name}.{k}",) + staged_pair(rng, dims) + (False,))
    for m, count in POLYGONS.items():
        for k in range(count):
            # seeded polygons stay clear of the fault; the fixed pool keeps it
            cols = blown_up_polygon(rng, m)
            while greedy_basis_fault(cols):
                cols = blown_up_polygon(rng, m)
            pairs.append((f"{m}-gon.{k}", polygon(m), cols, False))
    for k, cols in enumerate(fault_pool()):
        pairs.append((f"fault{k}", polygon(len(cols)), cols, True))
    ops = []
    for name, p, cols, kept_fault in pairs:
        # every pair is toric before the disguise, so vertex signs are
        # products of the column signs applied here
        p, cols, signs = disguise(rng, p, cols)
        obj = pair_input(p, cols)
        expect = {"polytope": p, "columns": cols, "toric_signs": signs}
        ops.append(op(f"{name}/validate", "validate", [obj],
                      dict(expect, kind="validate")))
        ops.append(op(f"{name}/cohomology", "cohomology", [obj],
                      dict(expect, kind="cohomology", kept_fault=kept_fault)))
        ops.append(op(f"{name}/chern", "chern", [obj], dict(expect, kind="chern")))
    for k in range(MUTANTS):
        name, p, cols, _ = pairs[rng.randrange(len(pairs))]
        p, cols, _ = disguise(rng, p, mutate_to_det2(rng, p, cols))
        ops.append(op(f"mutant{k}/validate", "validate", [pair_input(p, cols)],
                      {"kind": "validate", "polytope": p, "columns": cols}))
    return ops


# ------------------------------------------------------------------- compare

SEGMENT = {"m": 2, "n": 1, "vertices": [[1], [2]]}
CUBE_POOL = 2          # fixed inequivalent 3-cube pairs: exhaustive search
EQUIVALENT = ("square", "prism", "3-cube")    # three seeded pairs each
# Fifteen operations take under ~12 ms and thirteen over ~20 ms.  The
# inequivalent square pairs, which search all 256 candidates in 12-14 ms
# whatever the seed, are the class in between; with six of them the median
# operation falls inside it instead of on the gap between the two.
INEQUIVALENT = {"square": 6, "prism": 2}
POLYGON_COMPARE = (5, 6, 7)
QUAT_NO_MATCH = (9, 8, 8)   # universes searched to the end
QUAT_SMALL = 7


def inequivalent_pair(rng, make):
    """Two pairs over one polytope whose |minor| multisets differ."""
    while True:
        p, c1 = make(rng)
        _, c2 = make(rng)
        if minor_multiset(c1, p["n"]) != minor_multiset(c2, p["n"]):
            return p, c1, c2


def complex_compare_op(rng, name, p, c1, c2, equivalent):
    """Disguise both sides; the second also gets a facet relabelling."""
    p1, c1, _ = disguise(rng, p, c1)
    p2, c2, _ = disguise(rng, p, c2, relabel=True)
    return op(name, "compare", [pair_input(p1, c1), pair_input(p2, c2)],
              {"kind": "compare_complex", "p1": p1, "c1": c1, "p2": p2,
               "c2": c2, "equivalent": equivalent})


def labels_with_overlap(rng, n_act, sizes, overlap):
    universe = list(range(1, n_act + 1))
    rng.shuffle(universe)
    a = universe[:sizes[0]]
    b = a[:overlap] + universe[sizes[0]:sizes[0] + sizes[1] - overlap]
    return [sorted(a), sorted(b)]


def quaternionic_op(name, n_act, labels1, labels2, b1, b2):
    inputs = [{"polytope": SEGMENT, "functor": {"n_act": n_act, "labels": lab}}
              for lab in (labels1, labels2)]
    return op(name, "compare", inputs,
              {"kind": "compare_quaternionic", "n_act": n_act,
               "labels1": labels1, "labels2": labels2, "b1": b1, "b2": b2},
              flags=["--coeffs", str([b1]), "--coeffs2", str([b2])])


def coefficient_pair(rng, equal):
    """Two coefficient rows (b_1, b_2) whose |b_1 + b_2| agree iff equal."""
    b1 = [rng.randint(1, 3), rng.randint(0, 3)]
    total = abs(sum(b1)) if equal else abs(sum(b1)) + rng.randint(1, 2)
    first = rng.randint(-2, 2)
    b2 = [first, rng.choice((1, -1)) * total - first]
    return b1, b2


def compare_ops(rng):
    ops = []
    pool = fixed_rng("cube3")
    for k in range(CUBE_POOL):
        p, c1, c2 = inequivalent_pair(pool, lambda r: staged_pair(r, [1, 1, 1]))
        ops.append(complex_compare_op(rng, f"3-cube.ineq{k}", p, c1, c2, False))
    makers = {
        "square": lambda r: staged_pair(r, [1, 1], twist=3),
        "prism": lambda r: staged_pair(r, [1, 2]),
        "3-cube": lambda r: staged_pair(r, [1, 1, 1]),
    }
    for name in EQUIVALENT:
        for k in range(3):
            p, c = makers[name](rng)
            ops.append(complex_compare_op(rng, f"{name}.eq{k}", p, c, c, True))
    for m in POLYGON_COMPARE:
        c = blown_up_polygon(rng, m)
        ops.append(complex_compare_op(rng, f"{m}-gon.eq", polygon(m), c, c, True))
        p, c1, c2 = inequivalent_pair(
            rng, lambda r: (polygon(m), blown_up_polygon(r, m)))
        ops.append(complex_compare_op(rng, f"{m}-gon.ineq", p, c1, c2, False))
    for name, count in INEQUIVALENT.items():
        for k in range(count):
            p, c1, c2 = inequivalent_pair(rng, makers[name])
            ops.append(complex_compare_op(rng, f"{name}.ineq{k}", p, c1, c2, False))
    for k, n_act in enumerate(QUAT_NO_MATCH):
        # equal label sizes, different overlaps: both segment isomorphisms
        # run the whole relabelling search
        lab1 = labels_with_overlap(rng, n_act, (3, 3), 1)
        lab2 = labels_with_overlap(rng, n_act, (3, 3), 2)
        b1, b2 = coefficient_pair(rng, True)
        ops.append(quaternionic_op(f"quat{n_act}.nomatch{k}", n_act, lab1, lab2, b1, b2))
    for k in range(3):
        sizes = (rng.randint(1, 3), rng.randint(1, 3))
        overlap = rng.randint(0, min(sizes) - 1)
        lab1 = labels_with_overlap(rng, QUAT_SMALL, sizes, overlap)
        lab2 = labels_with_overlap(rng, QUAT_SMALL, sizes, overlap)
        if rng.random() < 0.5:
            lab2 = lab2[::-1]
        b1, b2 = coefficient_pair(rng, True)
        ops.append(quaternionic_op(f"quat7.eq{k}", QUAT_SMALL, lab1, lab2, b1, b2))
    for k in range(2):
        lab1 = labels_with_overlap(rng, QUAT_SMALL, (2, 2), 1)
        lab2 = labels_with_overlap(rng, QUAT_SMALL, (2, 2), 1)
        b1, b2 = coefficient_pair(rng, False)
        ops.append(quaternionic_op(f"quat7.bdiff{k}", QUAT_SMALL, lab1, lab2, b1, b2))
    lab1 = labels_with_overlap(rng, QUAT_SMALL, (2, 3), 0)
    lab2 = labels_with_overlap(rng, QUAT_SMALL, (2, 3), 1)
    b1, b2 = coefficient_pair(rng, True)
    ops.append(quaternionic_op("quat7.nomatch", QUAT_SMALL, lab1, lab2, b1, b2))
    return ops


WORKLOADS = {"homology": homology_ops, "cohomology": cohomology_ops,
             "compare": compare_ops}


def build(workload, seed):
    """The fixed, ordered operation list of one workload for one seed.

    The order is shuffled so that operations of one size class are spread
    over the pass: the median latency then averages over the pass instead
    of sampling the few seconds in which one class would otherwise run.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
