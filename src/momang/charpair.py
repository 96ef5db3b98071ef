"""Characteristic data over a simple polytope.

Validates integer characteristic matrices (circle-subgroup data, one
primitive column per facet) and quaternionic isotropy functors
(coordinate label sets per facet), and solves a valid pair once for
every caller: a Hermite reduction at one vertex, a +-1 pivot per other.
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
    valid = all(abs(d) == 1 for d in vertex_dets.values())
    in_basis = () if valid else {f for v, d in vertex_dets.items() if abs(d) == 1
                                 for k in range(1, lam.n + 1) for f in combinations(v, k)}
    # a column is primitive iff its one-facet face has gcd 1; when n = 1
    # those faces are the vertices, and their gcds go in no table
    gcds = {f: 1 if valid or f in in_basis
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
        valid=valid,
        column_primitivity=primitivity,
        vertex_determinants=vertex_dets,
        face_minor_gcds=face_gcds,
        failures=failures,
    )


def solved_form(p, lam):
    """Validate the pair and write it in the basis of every vertex.

    The Hermite form of [M | lam | I], M the columns of the anchor (the
    lexicographically first vertex), is [I | M^-1.lam | M^-1] exactly
    when M is unimodular.  Walking an edge from w, trading facet a for b,
    is one pivot on N_w[a][b], which is det M_w' / det M_w up to sign
    (Cramer's rule), so +-1 exactly when the next vertex is unimodular
    too.  Only a failure builds the report, to word it.  Returns N at the
    anchor (a facet -> row dict, keyed by the anchor in order), M^-1, and
    N_w = M_w^-1.lam for every vertex w, keyed by w.
    """
    _check_shape(p, lam)
    n, anchor = lam.n, min(tuple(sorted(v)) for v in p.vertices)
    h = intlat.hermite_row_form([a + list(b) + c for a, b, c in zip(
        lam.columns(anchor), lam.entries, intlat.identity(n))])
    valid = [row[:n] for row in h] == intlat.identity(n)
    forms = {frozenset(anchor): dict(zip(anchor, (row[n:-n] for row in h)))}
    stack = list(forms)
    while valid and stack:
        w = stack.pop()
        form = forms[w]
        for nxt in p.neighbours[w]:
            if nxt in forms:
                continue
            (a,), (b,) = w - nxt, nxt - w
            x = form[a][b - 1]
            if x != 1 and x != -1:
                valid = False
                break
            new = form[a] if x == 1 else [-y for y in form[a]]
            # a row with no entry in column b is shared, not copied: read only
            forms[nxt] = {f: [y - row[b - 1] * z for y, z in zip(row, new)]
                          if row[b - 1] else row for f, row in form.items() if f != a}
            forms[nxt][b] = new
            stack.append(nxt)
    if not valid:
        failures = validate_characteristic_pair(p, lam).failures
        raise ValidationError("invalid pair: " + "; ".join(failures))
    return forms[frozenset(anchor)], [row[-n:] for row in h], forms


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
