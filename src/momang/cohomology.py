"""Graded ring presentations for quasitoric bases.

The cohomology of a quasitoric manifold is presented as the face ring of
the dual complex (one generator per facet, monomial relations from the
minimal non-faces) modulo the linear relations read off the rows of the
characteristic matrix.  Components are computed degreewise by exact
integer linear algebra on monomial spanning sets; a solved form
eliminates the generators of one unimodular vertex so that all
coefficients stay integral.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from . import intlat
from .charpair import validate_characteristic_pair
from .combinatorics import dual_complex, minimal_non_faces
from .errors import IntegrityError, ValidationError

# polynomials over the kept generators: dict {exponent tuple: coefficient}


def poly_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
        if out[mono] == 0:
            del out[mono]
    return out


def poly_scale(a, c):
    if c == 0:
        return {}
    return {mono: c * x for mono, x in a.items()}


def poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
            if out[mono] == 0:
                del out[mono]
    return out


def poly_degree_parts(a):
    parts = {}
    for mono, c in a.items():
        parts.setdefault(sum(mono), {})[mono] = c
    return parts


@dataclass
class GradedRingPresentation:
    """Face ring of a complex, optionally with the linear relations solved out.

    Generators v_1..v_m sit in degree `generator_degree`.  For quasitoric
    presentations the generators of one unimodular vertex are eliminated;
    `kept` lists the surviving 1-based facet indices and `eliminated`
    expresses each removed generator as a linear polynomial in them.
    `ideal` holds the (substituted) minimal non-face products.
    """

    m: int
    generator_degree: int
    non_faces: list                      # minimal non-faces as sorted tuples
    linear_relations: list = field(default_factory=list)  # rows of the matrix
    kept: list = field(default_factory=list)              # 1-based facet indices
    eliminated: dict = field(default_factory=dict)        # facet -> linear poly
    ideal: list = field(default_factory=list)             # polys in kept gens
    base_dim: int = 0
    _components: dict = field(default_factory=dict, repr=False)

    def generator_poly(self, i):
        """v_i as a polynomial in the kept generators (1-based facet index)."""
        if i in self.eliminated:
            return dict(self.eliminated[i])
        pos = self.kept.index(i)
        mono = tuple(1 if j == pos else 0 for j in range(len(self.kept)))
        return {mono: 1}

    def component(self, degree):
        if degree not in self._components:
            self._components[degree] = _build_component(self, degree)
        return self._components[degree]


@dataclass
class CohomologyClass:
    """A reduced class: integer coordinates over the component's monomial basis."""

    degree: int
    coordinates: tuple

    def is_zero(self):
        return not any(self.coordinates)


@dataclass
class GradedComponent:
    degree: int
    monomials: list            # spanning monomials, graded-lex order
    invariants: intlat.AbelianGroupInvariants
    basis_monomials: list      # monomials whose classes form a basis of the free part
    _v: list = field(repr=False, default_factory=list)
    _elementary: list = field(repr=False, default_factory=list)  # d_j per coordinate
    _basis_free_coords: list = field(repr=False, default_factory=list)

    def _diagonal_coords(self, vec):
        # coordinates of vec in the basis where the relation lattice is diagonal
        return [sum(vec[i] * self._v[i][j] for i in range(len(vec)))
                for j in range(len(vec))]

    def free_coordinates(self, vec):
        y = self._diagonal_coords(vec)
        free = []
        for j, d in enumerate(self._elementary):
            if d == 0:
                free.append(y[j])
            elif y[j] % d != 0:
                raise IntegrityError(
                    f"class has a nonzero torsion component in degree {self.degree}")
        return free

    def coordinates_over_basis(self, vec):
        """Express the class of vec over the chosen monomial basis."""
        target = self.free_coordinates(vec)
        if not self._basis_free_coords:
            if any(target):
                raise IntegrityError(f"nonzero class in a rank-0 component")
            return ()
        bt = intlat.transpose(self._basis_free_coords)
        sol = intlat.solve_integer(bt, target)
        if sol is None:
            raise IntegrityError(
                f"class is not an integer combination of the degree-{self.degree} basis")
        return tuple(sol)


def _monomials(num_gens, mono_degree):
    if num_gens == 0:
        return [()] if mono_degree == 0 else []
    monos = []
    for combo in combinations_with_replacement(range(num_gens), mono_degree):
        exp = [0] * num_gens
        for g in combo:
            exp[g] += 1
        monos.append(tuple(exp))
    return sorted(monos, reverse=True)


def _build_component(pres, degree):
    if degree % pres.generator_degree != 0 or degree < 0:
        raise ValidationError(
            f"degree {degree} is not a multiple of {pres.generator_degree}")
    t = degree // pres.generator_degree
    num = len(pres.kept)
    monomials = _monomials(num, t)
    index = {mono: i for i, mono in enumerate(monomials)}
    relations = []
    for g in pres.ideal:
        gdeg = next((sum(mono) for mono in g), None)
        if gdeg is None or gdeg > t:
            continue
        for mult in _monomials(num, t - gdeg):
            row = [0] * len(monomials)
            for mono, c in g.items():
                shifted = tuple(x + y for x, y in zip(mono, mult))
                row[index[shifted]] += c
            relations.append(row)
    cols = len(monomials)
    if not relations:
        snf = intlat.SmithDecomposition(u=[], d=[[0] * cols], v=intlat.identity(cols))
        elementary = [0] * cols
    else:
        snf = intlat.smith_normal_form(relations)
        diag = snf.diagonal()
        elementary = [(diag[j] if j < len(diag) else 0) for j in range(cols)]
    free_rank = sum(1 for d in elementary if d == 0)
    torsion = [d for d in elementary if d > 1]
    comp = GradedComponent(
        degree=degree,
        monomials=monomials,
        invariants=intlat.AbelianGroupInvariants(free_rank, torsion),
        basis_monomials=[],
        _v=snf.v if cols else [],
        _elementary=elementary,
    )
    # greedy monomial basis of the free part, graded-lex order
    chosen = []
    chosen_coords = []
    for mono in monomials:
        if len(chosen) == free_rank:
            break
        vec = [0] * cols
        vec[index[mono]] = 1
        try:
            fc = comp.free_coordinates(vec)
        except IntegrityError:
            continue
        if intlat.rank(chosen_coords + [fc]) > len(chosen):
            chosen.append(mono)
            chosen_coords.append(fc)
    if len(chosen) != free_rank or (
            free_rank and abs(intlat.det(chosen_coords)) != 1):
        raise IntegrityError(
            f"no unimodular monomial basis found for degree {degree}")
    comp.basis_monomials = chosen
    comp._basis_free_coords = chosen_coords
    return comp


def sr_presentation(k, deg=2):
    """Face ring of the complex: one degree-`deg` generator per vertex,
    monomial relations from the minimal non-faces, no linear relations."""
    if deg not in (2, 4):
        raise ValidationError("generator degree must be 2 or 4")
    nf = minimal_non_faces(k)
    m = k.vertex_count
    kept = list(range(1, m + 1))
    ideal = []
    for face in nf:
        exp = [0] * m
        for i in face:
            exp[i - 1] = 1
        ideal.append({tuple(exp): 1})
    return GradedRingPresentation(
        m=m, generator_degree=deg, non_faces=nf, kept=kept, ideal=ideal)


def quasitoric_presentation(p, lam):
    """Face ring of the dual complex modulo the rows of the matrix, in solved
    form: the generators of the lexicographically first unimodular vertex are
    eliminated in favor of the remaining m - n."""
    report = validate_characteristic_pair(p, lam)
    if not report.valid:
        raise ValidationError("invalid pair: " + "; ".join(report.failures))
    k = dual_complex(p)
    m, n = p.facet_count, p.dim
    vertex = None
    for cand in sorted(tuple(sorted(v)) for v in p.vertices):
        if abs(intlat.det(lam.columns(cand))) == 1:
            vertex = cand
            break
    if vertex is None:
        raise ValidationError("no vertex with a unimodular column submatrix")
    kept = [i for i in range(1, m + 1) if i not in vertex]
    lam_v = lam.columns(vertex)
    lam_r = lam.columns(kept)
    # v_vertex = -lam_v^{-1} lam_r v_kept, integral since the vertex is unimodular
    coeffs = intlat.mat_mul(intlat.inverse_unimodular(lam_v), lam_r)
    eliminated = {}
    for row, facet in enumerate(vertex):
        poly = {}
        for col in range(len(kept)):
            c = -coeffs[row][col]
            if c:
                mono = tuple(1 if j == col else 0 for j in range(len(kept)))
                poly[mono] = c
        eliminated[facet] = poly
    pres = GradedRingPresentation(
        m=m, generator_degree=2, non_faces=minimal_non_faces(k),
        linear_relations=lam.rows(), kept=kept, eliminated=eliminated,
        base_dim=2 * n)
    for face in pres.non_faces:
        g = {tuple([0] * len(kept)): 1}
        for i in face:
            g = poly_mul(g, pres.generator_poly(i))
        pres.ideal.append(g)
    return pres


def class_from_polynomial(pres, poly, degree):
    """Reduce a homogeneous polynomial in the kept generators to a class."""
    comp = pres.component(degree)
    vec = [0] * len(comp.monomials)
    index = {mono: i for i, mono in enumerate(comp.monomials)}
    t = degree // pres.generator_degree
    for mono, c in poly.items():
        if sum(mono) != t:
            raise ValidationError(f"polynomial is not homogeneous of degree {degree}")
        vec[index[mono]] += c
    return CohomologyClass(degree, comp.coordinates_over_basis(vec))


def polynomial_from_class(pres, cls):
    comp = pres.component(cls.degree)
    poly = {}
    for coord, mono in zip(cls.coordinates, comp.basis_monomials):
        if coord:
            poly[mono] = poly.get(mono, 0) + coord
    return poly


def graded_component(pres, degree):
    """The degree component as (monomial basis, abelian group invariants)."""
    comp = pres.component(degree)
    return comp.basis_monomials, comp.invariants


def facet_class(pres, i):
    """Normal form of the generator of facet i (1-based)."""
    if not 1 <= i <= pres.m:
        raise IndexError(f"facet index {i} out of range 1..{pres.m}")
    return class_from_polynomial(pres, pres.generator_poly(i), pres.generator_degree)


def multiply(pres, c1, c2):
    p1 = polynomial_from_class(pres, c1)
    p2 = polynomial_from_class(pres, c2)
    return class_from_polynomial(pres, poly_mul(p1, p2), c1.degree + c2.degree)


def total_chern_class(pres):
    """Graded parts of prod_i (1 + x_i) in the quotient ring.

    Returns one class per even degree 2..base_dim.
    """
    if not pres.linear_relations:
        raise ValidationError("total class needs a quasitoric presentation")
    n = pres.base_dim // 2
    unit = {tuple([0] * len(pres.kept)): 1}
    prod = dict(unit)
    for i in range(1, pres.m + 1):
        factor = poly_add(unit, pres.generator_poly(i))
        prod = poly_mul(prod, factor)
        prod = {mono: c for mono, c in prod.items() if sum(mono) <= n}
    parts = poly_degree_parts(prod)
    return [class_from_polynomial(pres, parts.get(t, {}), 2 * t)
            for t in range(1, n + 1)]
