"""Characteristic data over a simple polytope.

Validates integer characteristic matrices (circle-subgroup data, one
primitive column per facet) and quaternionic isotropy functors
(coordinate label sets per facet), and solves a valid pair at its
anchor vertex once for every caller.
"""

from itertools import chain, combinations

from . import intlat
from .combinatorics import dual_complex, enumerate_faces
from .errors import ShapeError, ValidationError


class CharacteristicMatrix:
    """An n x m integer matrix; column i is the subgroup vector of facet i."""

    __slots__ = ("n", "m", "entries")

    def __init__(self, n: int, m: int, entries: tuple):
        self.n = n
        self.m = m
        self.entries = entries  # tuple of row tuples
        if len(self.entries) != self.n or any(len(r) != self.m for r in self.entries):
            raise ShapeError(f"expected {self.n}x{self.m} entries")

    def column(self, i):
        """Column for facet i (1-based)."""
        return [self.entries[r][i - 1] for r in range(self.n)]

    def columns(self, facets):
        """Submatrix of the columns for the given 1-based facets, in the given order."""
        return [[self.entries[r][i - 1] for i in facets] for r in range(self.n)]

    def rows(self):
        return [list(r) for r in self.entries]


def characteristic_matrix(rows):
    rows = [tuple(r) for r in rows]
    return CharacteristicMatrix(len(rows), len(rows[0]) if rows else 0, tuple(rows))


def from_columns(columns):
    """Build a characteristic matrix from per-facet column vectors."""
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ShapeError("ragged columns")
    return characteristic_matrix([[c[r] for c in columns] for r in range(n)])


class PairReport:
    """Validation report for a (polytope, characteristic matrix) pair."""

    __slots__ = ("valid", "column_primitivity", "vertex_determinants",
                 "face_minor_gcds", "failures")

    def __init__(self, valid: bool, column_primitivity: dict, vertex_determinants: dict,
                 face_minor_gcds: dict, failures: list | None = None):
        self.valid = valid
        self.column_primitivity = column_primitivity    # facet -> bool
        self.vertex_determinants = vertex_determinants  # sorted facet tuple -> int
        # sorted facet tuple -> int (faces of codim < n)
        self.face_minor_gcds = face_minor_gcds
        self.failures = [] if failures is None else failures


def _check_shape(p, lam):
    if lam.m != p.facet_count or lam.n != p.dim:
        raise ShapeError(
            f"matrix is {lam.n}x{lam.m} but polytope has n={p.dim}, m={p.facet_count}")


def validate_characteristic_pair(p, lam):
    """Check the nonsingularity condition of the pair at its vertices.

    Every vertex submatrix must have determinant +-1; that alone decides
    validity (Davis-Januszkiewicz).  Every face lies in a vertex, and the
    columns of a face of a unimodular vertex are part of a basis, so
    such a face has maximal-minor gcd 1 and its columns are primitive.
    Only the faces that no unimodular vertex contains have their gcd
    computed, to say why the pair fails; a column is primitive iff its
    one-facet face has gcd 1.
    """
    _check_shape(p, lam)
    faces = enumerate_faces(dual_complex(p))
    vertex_dets = {v: intlat.det(lam.columns(v)) for v in faces[-1]}
    in_basis = {f for v, d in vertex_dets.items() if abs(d) == 1
                for k in range(1, lam.n + 1) for f in combinations(v, k)}
    # a column is primitive iff its one-facet face has gcd 1; when n = 1
    # those faces are the vertices, and their gcds go in no table
    gcds = {f: 1 if f in in_basis
            else intlat.maximal_minor_gcd(intlat.transpose(lam.columns(f)))
            for level in faces[:max(lam.n - 1, 1)] for f in level}
    primitivity = {i: gcds[(i,)] == 1 for i in range(1, lam.m + 1)}
    face_gcds = gcds if lam.n > 1 else {}
    failures = [f"column of facet {i} is not primitive: {lam.column(i)}"
                for i, ok in primitivity.items() if not ok]
    failures += [f"face {list(f)} has maximal-minor gcd {g}, expected 1"
                 for f, g in face_gcds.items() if g != 1]
    failures += [f"vertex {list(v)} has determinant {d}, expected +-1"
                 for v, d in vertex_dets.items() if abs(d) != 1]
    return PairReport(
        valid=all(abs(d) == 1 for d in vertex_dets.values()),
        column_primitivity=primitivity,
        vertex_determinants=vertex_dets,
        face_minor_gcds=face_gcds,
        failures=failures,
    )


def solved_form(p, lam):
    """Validate the pair by its vertex determinants alone (the report only
    words a failure) and solve it at its anchor, the lexicographically
    first vertex.  Returns the anchor as a sorted tuple, the inverse of
    its columns M, and N = M^-1.lam as an anchor facet -> row dict.
    """
    _check_shape(p, lam)
    if any(abs(intlat.det(lam.columns(v))) != 1 for v in p.vertices):
        failures = validate_characteristic_pair(p, lam).failures
        raise ValidationError("invalid pair: " + "; ".join(failures))
    anchor = min(tuple(sorted(v)) for v in p.vertices)
    inv = intlat.inverse_unimodular(lam.columns(anchor))
    return anchor, inv, dict(zip(anchor, intlat.mat_mul(inv, lam.rows())))


class QuaternionicIsotropyFunctor:
    """Per-facet coordinate label sets inside an acting universe 1..n_act."""

    __slots__ = ("n_act", "facet_labels")

    def __init__(self, n_act: int, facet_labels: tuple):
        self.n_act = n_act
        # a tuple of frozensets, index i-1 is the label of facet i
        self.facet_labels = facet_labels
        if self.n_act <= 0:
            raise ValidationError("n_act must be positive")
        for i, gamma in enumerate(self.facet_labels, start=1):
            if not gamma:
                raise ValidationError(f"facet {i} has an empty label set")
            if not all(1 <= x <= self.n_act for x in gamma):
                raise ValidationError(
                    f"facet {i} label {sorted(gamma)} leaves the universe 1..{self.n_act}")

    def label(self, facet):
        return self.facet_labels[facet - 1]


def isotropy_functor(n_act, labels):
    return QuaternionicIsotropyFunctor(n_act, tuple(frozenset(g) for g in labels))


class FunctorReport:
    __slots__ = ("valid", "disjoint_at_faces", "injective_on_faces", "failures")

    def __init__(self, valid: bool, disjoint_at_faces: bool, injective_on_faces: bool,
                 failures: list | None = None):
        self.valid = valid
        self.disjoint_at_faces = disjoint_at_faces
        self.injective_on_faces = injective_on_faces
        self.failures = [] if failures is None else failures


def _face_class(f, face):
    """The isotropy class of a face: the sorted tuple of its facet labels."""
    return tuple(sorted(tuple(sorted(f.label(i))) for i in face))


def validate_quaternionic_functor(p, f):
    """Acceptability of an isotropy functor over the polytope.

    (a) labels of facets sharing a face are pairwise disjoint, so the
    class at a face of codimension k has rank k; (b) the induced map
    from faces to label classes is injective.
    """
    if len(f.facet_labels) != p.facet_count:
        raise ValidationError(
            f"functor labels {len(f.facet_labels)} facets, polytope has {p.facet_count}")
    failures = []
    disjoint = True
    seen = {}
    injective = True
    for face in chain.from_iterable(enumerate_faces(dual_complex(p))):
        union = set()
        total = 0
        for i in face:
            union |= f.label(i)
            total += len(f.label(i))
        if len(union) != total:
            disjoint = False
            failures.append(
                f"labels of facets {list(face)} overlap: rank {len(union)} < {total}")
        cls = _face_class(f, face)
        if cls in seen:
            injective = False
            failures.append(
                f"faces {list(seen[cls])} and {list(face)} share the isotropy class {cls}")
        else:
            seen[cls] = face
    return FunctorReport(
        valid=disjoint and injective,
        disjoint_at_faces=disjoint,
        injective_on_faces=injective,
        failures=failures,
    )


def validate_global(f):
    """True iff every pair of facet labels is disjoint or nested."""
    labels = f.facet_labels
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = labels[i], labels[j]
            if a & b and not (a <= b or b <= a):
                return False
    return True
