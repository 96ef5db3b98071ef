"""Kernel exact-sequence data and characteristic-class tuples of kernel bundles.

The characteristic matrix defines a torus surjection with kernel a rank
m - n subtorus acting freely on the moment-angle manifold; its quotient
is the quasitoric base.  The degree-2 classes of the circle factors are
computed here, together with the degree-4 primary tuples of the
quaternionic analogue over supported bases.
"""

from dataclasses import dataclass, field

from . import intlat
from .charpair import validate_quaternionic_functor
from .cohomology import facet_class, quasitoric_presentation, CohomologyClass
from .combinatorics import dual_complex
from .errors import (IntegrityError, ShapeError, UnsupportedBaseError,
                     ValidationError)


@dataclass
class KernelBasis:
    """Rows form a saturated Z-basis of the kernel of the characteristic matrix."""

    a: list  # (m-n) x m


def kernel_sequence(lam):
    """Kernel basis and an integral splitting of the torus surjection.

    Returns (A, S) with the rows of A a saturated basis of ker(lam) and
    S an m x n section with lam @ S = identity.  The section exists iff
    the matrix is surjective over the integers (all invariant factors 1),
    which holds whenever some vertex submatrix is unimodular.
    """
    rows = lam.rows()
    n, m = lam.n, lam.m
    snf = intlat.smith_normal_form(rows)
    if snf.invariant_factors() != [1] * n:
        raise ValidationError(
            "matrix is not integrally surjective; the sequence does not split")
    a = intlat.kernel_basis(rows)
    embed = [[1 if i == j else 0 for j in range(n)] for i in range(m)]
    s = intlat.mat_mul(intlat.mat_mul(snf.v, embed), snf.u)
    return KernelBasis(a=a), s


@dataclass
class ChernTuple:
    """Degree-2 classes of the circle factors of the kernel bundle.

    `classes[k]` solves the facet-class expansion x_i = sum_k a_ki c_k;
    `basis_flag` records whether the tuple is a Z-basis of the degree-2
    component.  `contracted_classes` (diagnostics only) evaluates the
    direct contraction c_k = sum_i a_ki x_i for side-by-side comparison.
    """

    classes: list  # list of CohomologyClass
    basis_flag: bool
    contracted_classes: list = field(default=None)

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
    pres = quasitoric_presentation(p, lam)
    a = intlat.kernel_basis(lam.rows())  # the validated pair is surjective
    r = len(a)
    m = lam.m
    facet_coords = [list(facet_class(pres, i).coordinates) for i in range(1, m + 1)]
    width = len(facet_coords[0]) if m else 0
    at = intlat.transpose(a) if a else [[] for _ in range(m)]
    solved = []
    for j in range(width):
        col = [facet_coords[i][j] for i in range(m)]
        sol = intlat.solve_integer(at, col)
        if sol is None:
            raise IntegrityError(
                "facet classes do not lie in the span of the kernel rows")
        solved.append(sol)
    coord_matrix = intlat.transpose(solved) if solved else [[] for _ in range(r)]
    classes = [CohomologyClass(2, tuple(coord_matrix[k])) for k in range(r)]
    comp = pres.component(2)
    basis_flag = (
        comp.invariants.free_rank == r
        and not comp.invariants.torsion
        and (r == 0 or abs(intlat.det(coord_matrix)) == 1)
    )
    diag = None
    if diagnostics:
        contracted = intlat.mat_mul(a, facet_coords) if a else []
        diag = [CohomologyClass(2, tuple(row)) for row in contracted]
    return ChernTuple(classes=classes, basis_flag=basis_flag,
                      contracted_classes=diag)


@dataclass
class H4Presentation:
    """A presentation of the degree-4 cohomology of a quoric base.

    `facet_class_coords[i-1]` gives the coordinates of the class dual to
    the characteristic submanifold of facet i.
    """

    free_rank: int
    torsion: list
    facet_class_coords: list


@dataclass
class QuaternionicPrimaryTuple:
    classes: list  # list of integer coordinate vectors in the presentation
    base_dim: int


def _is_simplex_dual(k):
    m = k.vertex_count
    full = frozenset(range(1, m + 1))
    return (len(k.maximal_faces) == m
            and all(len(f) == m - 1 for f in k.maximal_faces)
            and frozenset().union(*k.maximal_faces) == full)


def simplex_h4_presentation(m):
    """Degree-4 presentation of quaternionic projective space: Z, with every
    facet class a generator (the transverse sphere meets each stratum once)."""
    return H4Presentation(free_rank=1, torsion=[], facet_class_coords=[[1]] * m)


def quaternionic_primary_tuple(p, f, b, h4=None):
    """Primary degree-4 tuple of the kernel bundle over a quoric base.

    `b` is an r x m integer matrix expressing each of the r = m - n
    classes in the facet classes; the tuple is its evaluation against the
    presentation.  A presentation is built internally only for the
    simplex family (quaternionic projective bases); no general matrix
    formula exists, so other bases require a caller-supplied `h4`.
    """
    report = validate_quaternionic_functor(p, f)
    if not report.valid:
        raise ValidationError("invalid functor: " + "; ".join(report.failures))
    m, n = p.facet_count, p.dim
    r = m - n
    if h4 is None:
        if _is_simplex_dual(dual_complex(p)):
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
    return QuaternionicPrimaryTuple(classes=classes, base_dim=4 * n)
