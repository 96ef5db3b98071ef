"""Characteristic data over a simple polytope.

Validates integer characteristic matrices (circle-subgroup data, one
primitive column per facet) and quaternionic isotropy functors
(coordinate label sets per facet).
"""

from dataclasses import dataclass, field

from . import intlat
from .combinatorics import face_poset
from .errors import ShapeError, ValidationError


@dataclass(frozen=True)
class CharacteristicMatrix:
    """An n x m integer matrix; column i is the subgroup vector of facet i."""

    n: int
    m: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
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


@dataclass
class PairReport:
    """Validation report for a (polytope, characteristic matrix) pair."""

    valid: bool
    column_primitivity: dict      # facet -> bool
    vertex_determinants: dict     # sorted facet tuple -> int
    face_minor_gcds: dict         # sorted facet tuple -> int (faces of codim < n)
    failures: list = field(default_factory=list)


def validate_characteristic_pair(p, lam):
    """Check the nonsingularity condition of the pair facewise.

    Every column must be primitive, every vertex submatrix must have
    determinant +-1, and every lower-dimensional face must have maximal
    minor gcd 1 (the lattice form of injectivity of the induced torus
    map at that face).
    """
    if lam.m != p.facet_count or lam.n != p.dim:
        raise ShapeError(
            f"matrix is {lam.n}x{lam.m} but polytope has n={p.dim}, m={p.facet_count}")
    failures = []
    primitivity = {}
    for i in range(1, lam.m + 1):
        col = lam.column(i)
        ok = any(col) and intlat.is_primitive(col)
        primitivity[i] = ok
        if not ok:
            failures.append(f"column of facet {i} is not primitive: {col}")
    vertex_dets = {}
    face_gcds = {}
    for face, codim in face_poset(p):
        if codim == 0:
            continue
        sub = lam.columns(face)
        if codim == lam.n:
            d = intlat.det(sub)
            vertex_dets[face] = d
            if abs(d) != 1:
                failures.append(f"vertex {list(face)} has determinant {d}, expected +-1")
        else:
            g = intlat.maximal_minor_gcd(intlat.transpose(sub))
            face_gcds[face] = g
            if g != 1:
                failures.append(f"face {list(face)} has maximal-minor gcd {g}, expected 1")
    return PairReport(
        valid=not failures,
        column_primitivity=primitivity,
        vertex_determinants=vertex_dets,
        face_minor_gcds=face_gcds,
        failures=failures,
    )


@dataclass(frozen=True)
class QuaternionicIsotropyFunctor:
    """Per-facet coordinate label sets inside an acting universe 1..n_act."""

    n_act: int
    facet_labels: tuple  # tuple of frozensets, index i-1 is the label of facet i

    def __post_init__(self):
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


@dataclass
class FunctorReport:
    valid: bool
    disjoint_at_faces: bool
    injective_on_faces: bool
    failures: list = field(default_factory=list)


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
    for face, _codim in face_poset(p):
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
