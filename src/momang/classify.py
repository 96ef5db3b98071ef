"""Decision procedures for equivariant-homeomorphism questions.

Two characteristic pairs are equivalent when one matrix is carried to
the other by a unimodular base change, an isomorphism of the dual
complexes, and per-facet signs.  The search anchors on a fixed vertex:
once both matrices are written in the basis of their anchor columns,
the base change is a diagonal sign matrix, and it and the facet signs
are solved for in closed form.  The validation of the second pair
(`charpair.solved_form`) already writes it in the basis of every one of
its vertices; those normal forms also prune the isomorphism search
entry by entry, so the dual-complex symmetries are never listed.  Kernel
bundles are compared as sublattices of the degree-2 component, which is
exactly equivalence up to reparametrizing the kernel torus.
"""

from collections import Counter

from . import intlat
from .charpair import from_columns, solved_form, validate_quaternionic_functor
from .combinatorics import DEFAULT_SEARCH_BOUND, _isomorphism_search, dual_complex
from .errors import IncomparableError, ValidationError

LEVEL_EQUIVALENT = "equivalent"
LEVEL_INEQUIVALENT = "inequivalent"
LEVEL_PRIMARY_EQUIVALENT = "primary-equivalent"
LEVEL_PRIMARY_DISTINCT = "primary-distinct"
LEVEL_INCOMPARABLE = "incomparable"


class EquivalenceCertificate:
    """Witness that lam2 = delta . lam . P_sigma . D_signs.

    `sigma` maps facet i of the first polytope to facet sigma[i-1] of the
    second polytope as given, so `apply(lam)` returns lam2 itself;
    `signs[i-1]` is the sign applied to column i.  The certificate is the
    whole proof: no kernel-bundle recheck is run on it.
    """

    __slots__ = ("delta", "sigma", "signs")

    def __init__(self, delta: list, sigma: tuple, signs: tuple):
        self.delta = delta  # unimodular n x n
        self.sigma = sigma  # facet bijection, 1-based images
        self.signs = signs  # entries +-1, per facet of the first pair

    def apply(self, lam):
        """Transform lam by this certificate, returning the target columns."""
        cols = [None] * lam.m
        for i in range(1, lam.m + 1):
            vec = intlat.mat_vec(self.delta, lam.column(i))
            cols[self.sigma[i - 1] - 1] = [self.signs[i - 1] * x for x in vec]
        return from_columns(cols)

    def inverse(self):
        delta_inv = intlat.inverse_unimodular(self.delta)
        m = len(self.sigma)
        sigma_inv = [0] * m
        signs_inv = [1] * m
        for i in range(1, m + 1):
            j = self.sigma[i - 1]
            sigma_inv[j - 1] = i
            signs_inv[j - 1] = self.signs[i - 1]
        return EquivalenceCertificate(delta_inv, tuple(sigma_inv), tuple(signs_inv))


class RigidityVerdict:
    __slots__ = ("level", "certificate", "bundle_report")

    def __init__(self, level: str, certificate: EquivalenceCertificate | None = None,
                 bundle_report: dict | None = None):
        self.level = level
        self.certificate = certificate
        self.bundle_report = {} if bundle_report is None else bundle_report


def _solve_signs(n1, n2):
    """Row signs e and column signs s with e[r]*n1[r][i] == s[i]*n2[r][i]
    for every entry, or None.

    One propagation over the rows that share a nonzero column; the first
    row of each connected class takes +, which makes e the first working
    pattern in lexicographic order with + before -.
    """
    n, m = len(n1), len(n1[0])
    e, s = [0] * n, [0] * m
    for start in range(n):
        if e[start]:
            continue
        e[start], stack = 1, [start]
        while stack:
            r = stack.pop()
            for i, (a, b) in enumerate(zip(n1[r], n2[r])):
                want = e[r] if a == b else -e[r]
                if abs(a) != abs(b) or (a and s[i] == -want):
                    return None
                if a and not s[i]:
                    s[i] = want
                    for r2 in range(n):
                        if n1[r2][i] and not e[r2]:
                            e[r2] = want if n1[r2][i] == n2[r2][i] else -want
                            stack.append(r2)
    return e, s


def _abs_keys(form):
    """Per facet f of a normal form given as facet -> row: sorted |row f|
    where the form has that row, sorted |column f| elsewhere."""
    cols = list(zip(*form.values()))
    return {f: tuple(sorted(map(abs, form[f] if f in form else cols[f - 1])))
            for f in range(1, len(cols) + 1)}


def _certificate_search(p, lam, p2, lam2, bound=DEFAULT_SEARCH_BOUND):
    """First certificate carrying lam onto lam2, in increasing order of sigma.

    With M1 the columns of lam at the anchor vertex (the lexicographically
    first) and M2 their images, any certificate has delta = M2.E.M1^-1
    for a diagonal sign matrix E, so the normal forms N = M^-1.lam satisfy
    E.N1[:, i] = s_i.N2[:, sigma(i)]; `_solve_signs` finds E and s for a
    complete sigma.  The search prunes on what that forces in absolute
    value: the vertex w of the anchor's images needs the sorted |columns|
    of N1 as a multiset, an anchor facet maps into w onto a row with its
    sorted |row| and any other facet outside w onto a column with its
    sorted |column|; once w and the row order are fixed, every column
    must match entry by entry.  Both pairs are validated first, the first
    pair first.
    """
    form1, m1_inv, _ = solved_form(p, lam)
    _, _, normal = solved_form(p2, lam2)
    last = max(form1)  # the last anchor facet
    placed = [0] * (lam.m + 1)
    alive = [None] * (lam.m + 1)  # vertices of p2 still open after placing facet i

    def same_abs_column(form, i, c):
        return all(abs(form[placed[a]][c - 1]) == abs(row[i - 1])
                   for a, row in form1.items())

    def admit(i, c):
        placed[i] = c
        if i > last:
            return same_abs_column(normal[alive[last][0]], i, c)
        alive[i] = [w for w in alive[i - 1]
                    if (c in w) == (i in form1) and keys[w][c] == keys1[i]]
        if i < last or not alive[i]:
            return bool(alive[i])
        return all(same_abs_column(normal[alive[i][0]], j, placed[j])
                   for j in range(1, last) if j not in form1)

    # built first, so that the budget is checked before the keys
    search = _isomorphism_search(dual_complex(p), dual_complex(p2), bound, admit)
    n1 = list(form1.values())
    keys1 = _abs_keys(form1)
    keys = {w: _abs_keys(form) for w, form in normal.items()}
    shape = sorted(k for i, k in keys1.items() if i not in form1)
    alive[0] = [w for w in normal
                if sorted(k for c, k in keys[w].items() if c not in w) == shape]
    for sigma in search:
        image = [sigma[i - 1] for i in form1]
        form = normal[alive[last][0]]
        n2 = [[row[j - 1] for j in sigma] for row in map(form.get, image)]
        solved = _solve_signs(n1, n2)
        if solved is None:
            continue
        e, signs = solved
        m2 = lam2.columns(image)
        delta = intlat.mat_mul([[x * y for x, y in zip(row, e)] for row in m2], m1_inv)
        return EquivalenceCertificate(delta, tuple(sigma), tuple(signs))
    return None


def equivalent_pairs(p, lam, lam2, bound=DEFAULT_SEARCH_BOUND):
    """Certificate for equivalence of two pairs over the same polytope, or None."""
    return rigidity_verdict_complex(p, lam, p, lam2, bound=bound).certificate


def compare_kernel_bundles(t, t2):
    """True iff the two tuples generate the same sublattice of degree 2."""
    m1 = t.coordinate_matrix()
    m2 = t2.coordinate_matrix()
    w1 = {len(row) for row in m1} or {0}
    w2 = {len(row) for row in m2} or {0}
    if w1 != w2:
        raise IncomparableError("tuples live over different presentations")
    return intlat.hermite_row_form(m1) == intlat.hermite_row_form(m2)


def rigidity_verdict_complex(p, lam, p2, lam2, bound=DEFAULT_SEARCH_BOUND):
    """Full verdict for two complex inputs.

    Equivalent iff some isomorphism of the dual complexes admits an
    equivalence certificate.  One pruned search over the isomorphisms, in
    increasing order, stops at the first that does, so no isomorphism is
    listed; the certificate's `sigma` is a facet bijection from the first
    polytope to the second as given.  Without a certificate, the pair is
    incomparable iff a first-hit search finds no isomorphism at all.
    Equivalent pairs carry equal kernel-bundle sublattices, so
    `bundle_report` states that without a recheck.
    """
    cert = _certificate_search(p, lam, p2, lam2, bound)
    if cert is not None:
        return RigidityVerdict(LEVEL_EQUIVALENT, certificate=cert,
                               bundle_report={"equal_sublattice": True})
    search = _isomorphism_search(dual_complex(p), dual_complex(p2), bound)
    comparable = next(search, None) is not None
    return RigidityVerdict(LEVEL_INEQUIVALENT if comparable else LEVEL_INCOMPARABLE,
                           bundle_report={"equal_sublattice": False})


def _signatures(labels):
    """Multiset of membership signatures {i : x in labels[i-1]} over the
    coordinates x that lie in some label."""
    members = {}
    for i, label in enumerate(labels, start=1):
        for x in label:
            members.setdefault(x, set()).add(i)
    return Counter(frozenset(s) for s in members.values())


def _functors_match(p, f, p2, f2, bound=DEFAULT_SEARCH_BOUND):
    """Label data equal up to dual-complex isomorphism and relabeling of the
    acting-coordinate universe.

    For a fixed isomorphism sigma, a relabeling pi with
    pi(label_i) = label'_sigma(i) for every facet exists exactly when both
    sides have the same multiset of membership signatures; with equal
    universes, the coordinates in no label match automatically.  A pi keeps
    label sizes, so only size-preserving sigma are tried; over a simplex
    boundary (m >= 3) valid labels are disjoint and the first one decides.
    """
    if f.n_act != f2.n_act:
        return False
    m = p.facet_count
    size = [len(f.label(i)) for i in range(1, m + 1)]
    size2 = [len(f2.label(c)) for c in range(1, p2.facet_count + 1)]
    # built first, so that the budget is checked on every call
    search = _isomorphism_search(dual_complex(p), dual_complex(p2), bound,
                                 lambda i, c: size[i - 1] == size2[c - 1])
    if sorted(size) != sorted(size2):
        return False
    want = _signatures([f.label(i) for i in range(1, m + 1)])
    return any(_signatures([f2.label(iso[i - 1]) for i in range(1, m + 1)]) == want
               for iso in search)


def rigidity_verdict_quaternionic(p, f, tuple1, p2, f2, tuple2,
                                  bound=DEFAULT_SEARCH_BOUND):
    """Verdict for quaternionic inputs with computed primary tuples.

    Over a 4-dimensional base the primary degree-4 tuples are complete
    invariants and a full equivalent/inequivalent verdict is emitted;
    over higher-dimensional bases only primary-equivalent or
    primary-distinct is ever reported.  Each functor is validated, the
    first first, unless its tuple was computed from it over the same
    polytope, which validated it already.
    """
    for poly, functor, tup in ((p, f, tuple1), (p2, f2, tuple2)):
        if tup.source != (poly, functor):
            report = validate_quaternionic_functor(poly, functor)
            if not report.valid:
                raise ValidationError("invalid functor: " + "; ".join(report.failures))
    if tuple1.base_dim != tuple2.base_dim:
        return RigidityVerdict(LEVEL_INCOMPARABLE,
                               bundle_report={"equal_sublattice": False})
    base_dim = tuple1.base_dim
    functors_ok = _functors_match(p, f, p2, f2, bound=bound)
    lattices_ok = (intlat.hermite_row_form(tuple1.classes)
                   == intlat.hermite_row_form(tuple2.classes))
    same = functors_ok and lattices_ok
    report = {"equal_sublattice": lattices_ok, "functors_match": functors_ok}
    if base_dim == 4:
        level = LEVEL_EQUIVALENT if same else LEVEL_INEQUIVALENT
    else:
        level = LEVEL_PRIMARY_EQUIVALENT if same else LEVEL_PRIMARY_DISTINCT
    return RigidityVerdict(level, bundle_report=report)
