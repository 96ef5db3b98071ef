"""Graded ring presentations for quasitoric bases.

The cohomology of a quasitoric manifold is presented as the face ring of
the dual complex (one generator per facet, monomial relations from the
minimal non-faces) modulo the linear relations read off the rows of the
characteristic matrix.  Components are computed degreewise by exact
integer linear algebra on monomial spanning sets: sparse elimination of
the degree's relations on +-1 pivots (`intlat.unit_pivots`), and a Smith
form of only the rows it leaves.  The pair's solved form
(`charpair.solved_form`) eliminates the generators of its anchor vertex,
so that all coefficients stay integral.
"""

from itertools import combinations_with_replacement
from math import gcd

from . import intlat
from .charpair import solved_form
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


class GradedRingPresentation:
    """Face ring of a complex, optionally with the linear relations solved out.

    Generators v_1..v_m sit in degree `generator_degree`.  For quasitoric
    presentations the generators of one unimodular vertex are eliminated;
    `kept` lists the surviving 1-based facet indices and `eliminated`
    expresses each removed generator as a linear polynomial in them.
    `ideal` holds the (substituted) minimal non-face products.
    """

    __slots__ = ("m", "generator_degree", "non_faces", "linear_relations", "kept",
                 "eliminated", "ideal", "base_dim", "_components")

    def __init__(self, m: int, generator_degree: int, non_faces: list,
                 linear_relations: list | None = None, kept: list | None = None,
                 eliminated: dict | None = None, ideal: list | None = None,
                 base_dim: int = 0):
        self.m = m
        self.generator_degree = generator_degree
        self.non_faces = non_faces  # minimal non-faces as sorted tuples
        # rows of the matrix
        self.linear_relations = [] if linear_relations is None else linear_relations
        self.kept = [] if kept is None else kept                    # 1-based facet indices
        self.eliminated = {} if eliminated is None else eliminated  # facet -> linear poly
        self.ideal = [] if ideal is None else ideal                 # polys in kept gens
        self.base_dim = base_dim
        self._components = {}

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


class CohomologyClass:
    """A reduced class: integer coordinates over the component's monomial basis."""

    __slots__ = ("degree", "coordinates")

    def __init__(self, degree: int, coordinates: tuple):
        self.degree = degree
        self.coordinates = coordinates

    def is_zero(self):
        return not any(self.coordinates)


class GradedComponent:
    __slots__ = ("degree", "monomials", "invariants", "basis_monomials", "table")

    def __init__(self, degree: int, monomials: list,
                 invariants: intlat.AbelianGroupInvariants, basis_monomials: list,
                 table: list):
        self.degree = degree
        self.monomials = monomials              # spanning monomials, graded-lex order
        self.invariants = invariants
        self.basis_monomials = basis_monomials  # monomials whose classes form a Z-basis
        self.table = table                      # monomial vector -> basis coordinates

    def coordinates_over_basis(self, vec):
        """Express the class of vec over the chosen monomial basis."""
        return tuple(intlat.mat_vec(self.table, vec))


def _monomials(num_gens, mono_degree):
    combos = combinations_with_replacement(range(num_gens), mono_degree)
    return sorted((tuple(c.count(g) for g in range(num_gens)) for c in combos),
                  reverse=True)


def _relations(pres, t, monomials):
    """The relations among the degree-t monomials as sparse rows {index in
    `monomials`: coefficient}: each ideal generator of degree <= t times
    each monomial of the remaining degree."""
    index = {mono: i for i, mono in enumerate(monomials)}
    multipliers = {}
    rows = []
    for g in pres.ideal:
        gdeg = next((sum(mono) for mono in g), None)
        if gdeg is None or gdeg > t:
            continue
        if t - gdeg not in multipliers:
            multipliers[t - gdeg] = _monomials(len(pres.kept), t - gdeg)
        for mult in multipliers[t - gdeg]:
            rows.append({index[tuple(x + y for x, y in zip(mono, mult))]: c
                         for mono, c in g.items()})
    return rows


def _monomial_basis(relations, monomials, degree):
    """Monomial basis and reduction table of the degree's quotient.

    `intlat.unit_pivots` pivots each relation at its last monomial, so each
    pivot row writes its monomial over earlier ones; back-substitution gives
    the class of every monomial over the non-pivot monomials.  With no rows
    left those are the basis, the one the graded-lex walk below would pick.
    Otherwise the quotient is that of the non-pivot monomials by the rows
    left, and only they go to a Smith form.
    """
    pivots, left = intlat.unit_pivots(relations)
    free = [j for j in range(len(monomials)) if j not in pivots]
    classes = []  # class of monomial j over the non-pivot monomials
    for j in range(len(monomials)):
        cls = [int(j == k) for k in free]
        for c, x in pivots.get(j, {}).items():
            if c != j:
                cls = [a - x * b for a, b in zip(cls, classes[c])]
        classes.append(cls)
    table = intlat.transpose(classes)
    if not left:
        return [monomials[j] for j in free], table
    snf = intlat.smith_normal_form([[row.get(j, 0) for j in free] for row in left], u=False)
    factors = snf.invariant_factors()
    if any(d > 1 for d in factors):
        raise IntegrityError(f"degree-{degree} component has torsion")
    # rows of `quotient` vanish on the rows left: they map the class of a
    # monomial to its coordinates in the free quotient Z^r
    quotient = [[row[j] for row in snf.v] for j in range(len(factors), len(free))]
    images = intlat.mat_mul(quotient, table)
    r = len(images)
    # Basis walk in graded-lex order, depth first.  `inv` holds the columns
    # of a unimodular matrix taking the kept classes to the first unit
    # vectors, so a monomial keeps them a direct summand iff the rest of its
    # image has gcd 1; a copy of `inv` is then changed to take it to the next
    # unit vector.  A dead end backs up to the next monomial that passes.
    # At rank r `inv` is the inverse of the basis, and `inv @ images` reduces.
    walk = [(intlat.identity(r), 0)]  # per level: inv, next monomial to try
    basis = []
    while len(basis) < r:
        inv, start = walk.pop()
        k = len(basis)
        for j in range(start, len(monomials) + k - r + 1):  # r - k still to take
            img = [sum(row[j] * x for row, x in zip(images, col)) for col in inv]
            if gcd(*img[k:]) == 1:
                break
        else:
            if not basis:
                raise IntegrityError(
                    f"no unimodular monomial basis found for degree {degree}")
            basis.pop()
            continue
        walk.append((inv, j + 1))
        inv = list(inv)
        for c in range(k + 1, r):      # Euclid: gather the gcd into column k
            while img[c]:
                q = img[k] // img[c]
                inv[k], inv[c] = inv[c], [x - q * y for x, y in zip(inv[k], inv[c])]
                img[k], img[c] = img[c], img[k] - q * img[c]
        inv[k] = [img[k] * x for x in inv[k]]
        for c in range(k):
            inv[c] = [x - img[c] * y for x, y in zip(inv[c], inv[k])]
        walk.append((inv, j + 1))
        basis.append(monomials[j])
    return basis, intlat.mat_mul(walk[-1][0], images)


def _build_component(pres, degree):
    if degree % pres.generator_degree != 0 or degree < 0:
        raise ValidationError(
            f"degree {degree} is not a multiple of {pres.generator_degree}")
    t = degree // pres.generator_degree
    monomials = _monomials(len(pres.kept), t)
    relations = _relations(pres, t, monomials)
    basis, table = _monomial_basis(relations, monomials, degree)
    return GradedComponent(
        degree=degree, monomials=monomials,
        invariants=intlat.AbelianGroupInvariants(len(basis), []),
        basis_monomials=basis, table=table)


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
    form: the generators of the anchor vertex are eliminated in favor of
    the remaining m - n."""
    solved, _, _ = solved_form(p, lam)
    m, n = p.facet_count, p.dim
    kept = [i for i in range(1, m + 1) if i not in solved]
    # v_anchor = -N[:, kept] v_kept, integral since the anchor is unimodular
    eliminated = {}
    for facet, row in solved.items():
        eliminated[facet] = {
            tuple(int(j == col) for j in range(len(kept))): -row[i - 1]
            for col, i in enumerate(kept) if row[i - 1]}
    pres = GradedRingPresentation(
        m=m, generator_degree=2, non_faces=minimal_non_faces(dual_complex(p)),
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
    prod = {tuple([0] * len(pres.kept)): 1}
    for i in range(1, pres.m + 1):
        # (1 + x_i) only raises degree by one: multiply what is below n
        low = {mono: c for mono, c in prod.items() if sum(mono) < n}
        prod = poly_add(prod, poly_mul(low, pres.generator_poly(i)))
    parts = poly_degree_parts(prod)
    return [class_from_polynomial(pres, parts.get(t, {}), 2 * t)
            for t in range(1, n + 1)]
