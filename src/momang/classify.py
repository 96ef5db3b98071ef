"""Decision procedures for equivariant-homeomorphism questions.

Two characteristic pairs are equivalent when one matrix is carried to
the other by a unimodular base change, an isomorphism of the dual
complexes, and per-facet signs; the search anchors on a fixed vertex,
solves for the base change, and verifies it columnwise.  Kernel
bundles are compared as sublattices of the degree-2 component, which is
exactly equivalence up to reparametrizing the kernel torus.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from . import intlat
from .charpair import (from_columns, validate_characteristic_pair,
                       validate_quaternionic_functor)
from .combinatorics import dual_complex, isomorphisms
from .errors import IncomparableError, ValidationError

LEVEL_EQUIVALENT = "equivalent"
LEVEL_INEQUIVALENT = "inequivalent"
LEVEL_PRIMARY_EQUIVALENT = "primary-equivalent"
LEVEL_PRIMARY_DISTINCT = "primary-distinct"
LEVEL_INCOMPARABLE = "incomparable"


@dataclass
class EquivalenceCertificate:
    """Witness that lam2 = delta . lam . P_sigma . D_signs.

    `sigma` maps facet i of the first polytope to facet sigma[i-1] of the
    second polytope as given, so `apply(lam)` returns lam2 itself;
    `signs[i-1]` is the sign applied to column i.  The certificate is the
    whole proof: no kernel-bundle recheck is run on it.
    """

    delta: list   # unimodular n x n
    sigma: tuple  # facet bijection, 1-based images
    signs: tuple  # entries +-1, per facet of the first pair

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


@dataclass
class RigidityVerdict:
    level: str
    certificate: EquivalenceCertificate = None
    bundle_report: dict = field(default_factory=dict)


def _certificate_search(p, lam, lam2, sigmas):
    """Anchor-vertex search over the given facet bijections onto lam2's polytope."""
    n = p.dim
    anchor = min(tuple(sorted(v)) for v in p.vertices)
    m1 = lam.columns(anchor)
    for sigma in sigmas:
        image = [sigma[i - 1] for i in anchor]
        m2 = lam2.columns(image)
        for eps in product((1, -1), repeat=n):
            signed = [[m1[r][c] * eps[c] for c in range(n)] for r in range(n)]
            if abs(intlat.det(signed)) != 1:
                continue
            delta = intlat.mat_mul(m2, intlat.inverse_unimodular(signed))
            if abs(intlat.det(delta)) != 1:
                continue
            signs = [0] * lam.m
            for pos, i in enumerate(anchor):
                signs[i - 1] = eps[pos]
            ok = True
            for i in range(1, lam.m + 1):
                if signs[i - 1]:
                    continue
                cand = intlat.mat_vec(delta, lam.column(i))
                target = lam2.column(sigma[i - 1])
                if cand == target:
                    signs[i - 1] = 1
                elif [-x for x in cand] == target:
                    signs[i - 1] = -1
                else:
                    ok = False
                    break
            if ok:
                return EquivalenceCertificate(delta, tuple(sigma), tuple(signs))
    return None


def equivalent_pairs(p, lam, lam2, bound=12):
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


def rigidity_verdict_complex(p, lam, p2, lam2, bound=12):
    """Full verdict for two complex inputs.

    Equivalent iff some isomorphism of the dual complexes admits an
    equivalence certificate.  The isomorphisms already include every
    isomorphism composed with a symmetry, so they are searched once; the
    certificate's `sigma` is a facet bijection from the first polytope to
    the second as given.  Equivalent pairs carry equal kernel-bundle
    sublattices, so `bundle_report` states that without a recheck.
    """
    for poly, cand in ((p, lam), (p2, lam2)):
        report = validate_characteristic_pair(poly, cand)
        if not report.valid:
            raise ValidationError("invalid pair: " + "; ".join(report.failures))
    isos = isomorphisms(dual_complex(p), dual_complex(p2), bound=bound)
    if not isos:
        return RigidityVerdict(LEVEL_INCOMPARABLE,
                               bundle_report={"equal_sublattice": False})
    cert = _certificate_search(p, lam, lam2, isos)
    if cert is None:
        return RigidityVerdict(LEVEL_INEQUIVALENT,
                               bundle_report={"equal_sublattice": False})
    return RigidityVerdict(LEVEL_EQUIVALENT, certificate=cert,
                           bundle_report={"equal_sublattice": True})


def _signatures(labels):
    """Multiset of membership signatures {i : x in labels[i-1]} over the
    coordinates x that lie in some label."""
    members = {}
    for i, label in enumerate(labels, start=1):
        for x in label:
            members.setdefault(x, set()).add(i)
    return Counter(frozenset(s) for s in members.values())


def _functors_match(p, f, p2, f2, bound=12):
    """Label data equal up to dual-complex isomorphism and relabeling of the
    acting-coordinate universe.

    For a fixed isomorphism sigma, a relabeling pi with
    pi(label_i) = label'_sigma(i) for every facet exists exactly when both
    sides have the same multiset of membership signatures; with equal
    universes, the coordinates in no label match automatically.
    """
    if f.n_act != f2.n_act:
        return False
    m = p.facet_count
    want = _signatures([f.label(i) for i in range(1, m + 1)])
    for iso in isomorphisms(dual_complex(p), dual_complex(p2), bound=bound):
        if _signatures([f2.label(iso[i - 1]) for i in range(1, m + 1)]) == want:
            return True
    return False


def rigidity_verdict_quaternionic(p, f, tuple1, p2, f2, tuple2, bound=12):
    """Verdict for quaternionic inputs with computed primary tuples.

    Over a 4-dimensional base the primary degree-4 tuples are complete
    invariants and a full equivalent/inequivalent verdict is emitted;
    over higher-dimensional bases only primary-equivalent or
    primary-distinct is ever reported.
    """
    for poly, functor in ((p, f), (p2, f2)):
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
