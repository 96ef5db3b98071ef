"""Characteristic-class tuples of kernel bundles.

The characteristic matrix defines a torus surjection with kernel a rank
m - n subtorus acting freely on the moment-angle manifold; its quotient
is the quasitoric base.  The degree-2 classes of the circle factors are
computed here, together with the degree-4 primary tuples of the
quaternionic analogue over supported bases.
"""

from . import intlat
from .charpair import solved_form, validate_quaternionic_functor
from .cohomology import CohomologyClass
from .combinatorics import dual_complex, minimal_non_faces
from .errors import ShapeError, UnsupportedBaseError, ValidationError


class ChernTuple:
    """Degree-2 classes of the circle factors of the kernel bundle.

    `classes[k]` solves the facet-class expansion x_i = sum_k a_ki c_k;
    `basis_flag` records whether the tuple is a Z-basis of the degree-2
    component.  `contracted_classes` (diagnostics only) evaluates the
    direct contraction c_k = sum_i a_ki x_i for side-by-side comparison.
    """

    __slots__ = ("classes", "basis_flag", "contracted_classes")

    def __init__(self, classes: list, basis_flag: bool, contracted_classes: list | None = None):
        self.classes = classes  # list of CohomologyClass
        self.basis_flag = basis_flag
        self.contracted_classes = contracted_classes

    def coordinate_matrix(self):
        return [list(c.coordinates) for c in self.classes]


def kernel_chern_classes(p, lam, diagnostics=False):
    """Solve the facet classes against the kernel basis for the class tuple.

    The defining relation is x_i = sum_k a_ki c_k: the facet classes
    expand over the kernel tuple.  The contraction c_k = sum_i a_ki x_i
    is exposed only as a diagnostics tuple; on the segment datum it
    yields twice a generator and therefore cannot be the class of the
    Hopf-model bundle.
    """
    form, _, _ = solved_form(p, lam)
    a = intlat.kernel_basis(lam.rows())  # the validated pair is surjective
    # H^2 is free on the m - n kept facet classes (Davis-Januszkiewicz): no
    # ideal generator has degree 1, so a kept facet's class is a unit vector
    # and the relation over the kept facets says that the class matrix
    # inverts the transposed kept columns of the kernel basis
    kept = [i for i in range(1, lam.m + 1) if i not in form]
    coord_matrix = intlat.inverse_unimodular([[row[i - 1] for row in a] for i in kept])
    classes = [CohomologyClass(2, tuple(row)) for row in coord_matrix]
    diag = None
    if diagnostics:
        # an anchor facet's class is minus its row of the solved form
        facet_coords = [[-form[i][j - 1] for j in kept] if i in form
                        else [int(i == j) for j in kept] for i in range(1, lam.m + 1)]
        contracted = intlat.mat_mul(a, facet_coords) if a else []
        diag = [CohomologyClass(2, tuple(row)) for row in contracted]
    # the inverse of a unimodular matrix is unimodular, so the tuple is
    # always a Z-basis of the degree-2 component
    return ChernTuple(classes=classes, basis_flag=True, contracted_classes=diag)


class H4Presentation:
    """A presentation of the degree-4 cohomology of a quoric base.

    `facet_class_coords[i-1]` gives the coordinates of the class dual to
    the characteristic submanifold of facet i.
    """

    __slots__ = ("free_rank", "torsion", "facet_class_coords")

    def __init__(self, free_rank: int, torsion: list, facet_class_coords: list):
        self.free_rank = free_rank
        self.torsion = torsion
        self.facet_class_coords = facet_class_coords


class QuaternionicPrimaryTuple:
    __slots__ = ("classes", "base_dim", "source")

    def __init__(self, classes: list, base_dim: int, source: tuple | None = None):
        self.classes = classes  # list of integer coordinate vectors in the presentation
        self.base_dim = base_dim
        self.source = source  # the (polytope, functor) it was validated over, or None


def simplex_h4_presentation(m):
    """Degree-4 presentation of quaternionic projective space: Z, with every
    facet class a generator (the transverse sphere meets each stratum once)."""
    return H4Presentation(free_rank=1, torsion=[], facet_class_coords=[[1]] * m)


def quaternionic_primary_tuple(p, f, b, h4=None):
    """Primary degree-4 tuple of the kernel bundle over a quoric base.

    `b` is an r x m integer matrix expressing each of the r = m - n
    classes in the facet classes; the tuple is its evaluation against the
    presentation.  A presentation is built internally only for the
    simplex family (quaternionic projective bases), known by its one
    minimal non-face, all facets; no general matrix formula exists, so
    other bases require a caller-supplied `h4`.
    """
    report = validate_quaternionic_functor(p, f)
    if not report.valid:
        raise ValidationError("invalid functor: " + "; ".join(report.failures))
    m, n = p.facet_count, p.dim
    r = m - n
    if h4 is None:
        if minimal_non_faces(dual_complex(p)) == [tuple(range(1, m + 1))]:
            h4 = simplex_h4_presentation(m)
        else:
            raise UnsupportedBaseError(
                "no degree-4 presentation for this base; a combinatorial class "
                "formula is not available, supply one explicitly")
    if len(b) != r or any(len(row) != m for row in b):
        raise ShapeError(f"coefficient matrix must be {r}x{m}")
    width = h4.free_rank + len(h4.torsion)
    classes = []
    for row in b:
        vec = [0] * width
        for i, coeff in enumerate(row):
            for j, y in enumerate(h4.facet_class_coords[i]):
                vec[j] += coeff * y
        for j, t in enumerate(h4.torsion, start=h4.free_rank):
            vec[j] %= t
        classes.append(vec)
    return QuaternionicPrimaryTuple(classes=classes, base_dim=4 * n, source=(p, f))
