"""Answer checks computed apart from the program.

Each check takes the operation's `expect` record (built by gen.py), the
exit code, standard output and standard error of one `momang` call, and
returns None for a right answer, FAILED for the one tolerated failure (the
greedy-basis fault on the fixed polygon pool), or a message saying what is
wrong.  Nothing here imports momang: ranks, determinants, Betti numbers
and h-vectors are computed by this file's own small routines.
"""

import json
from itertools import combinations
from math import comb, gcd

from gen import columns_matrix, det, face_set, minor_multiset

FAILED = "failed"
GREEDY_FAULT = "no unimodular monomial basis found"


def rank(rows):
    """Rank over Q by fraction-free elimination on a copy of the rows."""
    a = [list(r) for r in rows if any(r)]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c]
                row = [p * x - f * y for x, y in zip(a[i], a[r])]
                g = 0
                for x in row:
                    g = gcd(g, x)
                a[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r


# ------------------------------------------------------------------ homology


def reduced_betti(faces):
    """Reduced Betti numbers {q: b_q} of the complex with these nonempty faces
    (tuples), from the augmented simplicial chain complex; q starts at -1."""
    by_size = {0: [()]}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    top = max(by_size)
    index = {s: {f: i for i, f in enumerate(sorted(by_size[s]))} for s in by_size}
    ranks = {}
    for s in range(1, top + 1):
        lower = index[s - 1]
        rows = []
        for f in sorted(by_size[s]):
            row = [0] * len(lower)
            for pos in range(s):
                row[lower[f[:pos] + f[pos + 1:]]] = (-1) ** pos
            rows.append(row)
        ranks[s] = rank(rows)
    return {s - 1: len(by_size[s]) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            for s in range(0, top + 1)}


def hochster_ranks(m, maximal_faces, flavor):
    """Betti numbers of the moment-angle model by Hochster's formula:
    rank H_p = sum over J of b~_{p - |J| - 1}(K_J) (complex), with the shift
    3|J| + 1 in the quaternionic flavour."""
    faces = set()
    for f in maximal_faces:
        for size in range(1, len(f) + 1):
            faces.update(combinations(sorted(f), size))
    weight = 1 if flavor == "complex" else 3
    out = {}
    for size in range(m + 1):
        for subset in combinations(range(1, m + 1), size):
            sub = set(subset)
            betti = reduced_betti([f for f in faces if sub.issuperset(f)])
            for q, b in betti.items():
                if b:
                    p = q + weight * size + 1
                    out[p] = out.get(p, 0) + b
    return out


def check_homology(expect, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    data = json.loads(out)
    want = hochster_ranks(expect["m"], expect["faces"], expect["flavor"])
    got = {d["k"]: d["rank"] for d in data["degrees"]}
    if sorted(got) != list(range(len(got))):
        return f"degrees are not 0..top: {sorted(got)}"
    if any(p not in got for p in want):
        return f"Hochster rank in a degree beyond the reported top: {want}"
    for p in got:
        if got[p] != want.get(p, 0):
            return f"rank H_{p} = {got[p]}, Hochster gives {want.get(p, 0)}"
    torsion = [d["k"] for d in data["degrees"] if d["torsion"]]
    if torsion:
        return f"torsion in degrees {torsion}; every full subcomplex is torsion-free"
    euler = sum((-1) ** p * r for p, r in want.items())
    if data["euler_characteristic"] != euler:
        return f"Euler characteristic {data['euler_characteristic']}, ranks give {euler}"
    if data["flavor"] != expect["flavor"]:
        return f"flavor {data['flavor']} reported for {expect['flavor']}"
    return None


# ---------------------------------------------------------------- cohomology


def h_vector(polytope):
    n = polytope["n"]
    f = [0] * (n + 1)          # f[i] = faces of the dual complex with i vertices
    for face in face_set(polytope):
        f[len(face)] += 1
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
            for k in range(n + 1)]


def vertex_determinants(expect):
    cols = expect["columns"]
    return {",".join(map(str, v)): det(columns_matrix(cols, v))
            for v in sorted(sorted(v) for v in expect["polytope"]["vertices"])}


def pair_is_valid(expect):
    cols = expect["columns"]
    primitive = all(_content(c) == 1 for c in cols)
    return primitive and all(abs(d) == 1 for d in vertex_determinants(expect).values())


def _content(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def check_validate(expect, code, out, err):
    valid = pair_is_valid(expect)
    if code != (0 if valid else 2):
        state = "valid" if valid else "invalid"
        return f"exit {code} for a pair that is {state}: {err.strip()}"
    data = json.loads(out)
    if data["valid"] is not valid or data["pair"]["valid"] is not valid:
        return f"verdict valid={data['valid']}, vertex determinants say {valid}"
    if data["pair"]["vertex_determinants"] != vertex_determinants(expect):
        return "reported vertex determinants differ from the computed ones"
    return None


def check_cohomology(expect, code, out, err):
    if code == 2 and expect.get("kept_fault") and GREEDY_FAULT in err:
        return FAILED
    if code != 0:
        return f"exit {code}: {err.strip()}"
    data = json.loads(out)
    p, cols = expect["polytope"], expect["columns"]
    m, n = p["m"], p["n"]
    h = h_vector(p)
    degrees = {d["degree"]: d for d in data["degrees"]}
    if sorted(degrees) != list(range(0, 2 * n + 1, 2)):
        return f"degrees {sorted(degrees)}, expected 0..{2 * n} in steps of 2"
    for k in range(n + 1):
        d = degrees[2 * k]
        if d["rank"] != h[k] or d["torsion"]:
            return (f"H^{2 * k} is Z^{d['rank']} + {d['torsion']}, "
                    f"the h-vector gives Z^{h[k]}")
        if len(d["basis_monomials"]) != h[k]:
            return f"{len(d['basis_monomials'])} basis monomials in degree {2 * k}"
    x = [data["facet_classes"][str(i)] for i in range(1, m + 1)]
    if any(len(c) != h[1] for c in x):
        return "facet classes do not have h_1 coordinates"
    for j in range(n):
        rel = [sum(cols[i][j] * x[i][t] for i in range(m)) for t in range(h[1])]
        if any(rel):
            return f"linear relation {j + 1} fails on the facet classes: {rel}"
    total = data["total_class"]
    if total["2"] != [sum(c[t] for c in x) for t in range(h[1])]:
        return "degree-2 total class is not the sum of the facet classes"
    top = total[str(2 * n)]
    if len(top) != 1 or abs(top[0]) != abs(signed_vertex_count(expect)):
        return f"top total class {top}, expected +-{signed_vertex_count(expect)}"
    return None


def signed_vertex_count(expect):
    """c_n[M] of an omnioriented quasitoric manifold is the sum of its vertex
    signs (Buchstaber-Panov, Toric Topology).  The pair is a toric fan with
    its columns multiplied by `toric_signs`, so the sign of a vertex is the
    product of the signs of its facets; with no flipped column this is the
    number of vertices, the Euler characteristic."""
    signs = expect["toric_signs"]
    total = 0
    for v in expect["polytope"]["vertices"]:
        sign = 1
        for i in v:
            sign *= signs[i - 1]
        total += sign
    return total


def check_chern(expect, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    data = json.loads(out)
    r = expect["polytope"]["m"] - expect["polytope"]["n"]
    if data["basis"] is not True:
        return "kernel classes are not reported as a basis"
    if len(data["classes"]) != r or any(len(c) != r for c in data["classes"]):
        return f"expected {r} classes with {r} coordinates each"
    return None


# ------------------------------------------------------------------- compare


def carrying_bijection(expect, delta, signs):
    """A facet bijection tau with signs_i * delta * lam1_i = lam2_tau(i) that
    maps the vertices of the first polytope onto those of the second."""
    c1, c2 = expect["c1"], expect["c2"]
    n, m = len(delta), len(c1)
    images = [[s * sum(delta[r][k] * c1[i][k] for k in range(n)) for r in range(n)]
              for i, s in enumerate(signs)]
    options = [[j for j in range(m) if c2[j] == images[i]] for i in range(m)]
    verts2 = {frozenset(v) for v in expect["p2"]["vertices"]}
    verts1 = [frozenset(v) for v in expect["p1"]["vertices"]]
    tau = [None] * m

    def extend(i, used):
        if i == m:
            return {frozenset(tau[a - 1] + 1 for a in v) for v in verts1} == verts2
        for j in options[i]:
            if j not in used:
                tau[i] = j
                if extend(i + 1, used | {j}):
                    return True
        return False

    return extend(0, frozenset())


def check_compare_complex(expect, code, out, err):
    n = expect["p1"]["n"]
    equivalent = expect["equivalent"]
    same_minors = minor_multiset(expect["c1"], n) == minor_multiset(expect["c2"], n)
    if not equivalent and same_minors:
        return "inequivalent case without differing minors (generator fault)"
    if code != (0 if equivalent else 3):
        return f"exit {code}: {err.strip()}"
    data = json.loads(out)
    if data["level"] != ("equivalent" if equivalent else "inequivalent"):
        return f"verdict {data['level']}"
    cert = data["certificate"]
    if not equivalent:
        return None if cert is None else "certificate given for an inequivalent pair"
    delta, signs = cert["delta"], cert["signs"]
    if len(delta) != n or abs(det(delta)) != 1:
        return f"delta {delta} is not unimodular"
    if len(signs) != len(expect["c1"]) or any(s not in (1, -1) for s in signs):
        return f"signs {signs} are not a sign per facet"
    if sorted(cert["sigma"]) != list(range(1, len(signs) + 1)):
        return f"sigma {cert['sigma']} is not a permutation"
    if not carrying_bijection(expect, delta, signs):
        return "certificate does not carry the columns along a face-preserving bijection"
    return None


def overlap_type(labels):
    a, b = set(labels[0]), set(labels[1])
    return len(a), len(b), len(a & b)


def check_compare_quaternionic(expect, code, out, err):
    t1, t2 = overlap_type(expect["labels1"]), overlap_type(expect["labels2"])
    functors = t1 == t2 or t1 == (t2[1], t2[0], t2[2])
    lattices = abs(sum(expect["b1"])) == abs(sum(expect["b2"]))
    equivalent = functors and lattices
    if code != (0 if equivalent else 3):
        return f"exit {code}: {err.strip()}"
    data = json.loads(out)
    if data["level"] != ("equivalent" if equivalent else "inequivalent"):
        return f"verdict {data['level']}, overlap types {t1} {t2}"
    if (data["bundle"]["functors_match"] is not functors
            or data["bundle"]["equal_sublattice"] is not lattices):
        return f"bundle report {data['bundle']}"
    return None


CHECKS = {
    "homology": check_homology,
    "validate": check_validate,
    "cohomology": check_cohomology,
    "chern": check_chern,
    "compare_complex": check_compare_complex,
    "compare_quaternionic": check_compare_quaternionic,
}


def check(expect, code, out, err):
    try:
        return CHECKS[expect["kind"]](expect, code, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
