"""Graded ring presentations for quasitoric bases.

The cohomology of a quasitoric manifold is presented as the face ring of
the dual complex (one generator per facet, monomial relations from the
minimal non-faces) modulo the linear relations read off the rows of the
characteristic matrix.  Components are computed degreewise by exact
integer linear algebra on monomial spanning sets: sparse elimination on
+-1 pivots where every column allows one, a Smith form of the degree's
relations otherwise.  A solved form eliminates the generators of one
unimodular vertex so that all coefficients stay integral.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import gcd

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
    basis_monomials: list      # monomials whose classes form a Z-basis
    table: list = field(repr=False)  # monomial vector -> basis coordinates

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


def _unit_pivot_basis(relations, monomials):
    """Basis and reduction table by elimination on +-1 pivots alone.

    Columns are taken from the last monomial to the first, each pivot
    cleared from the other unpivoted rows.  If every column with an entry
    gets a +-1 pivot, the quotient is free on the non-pivot monomials and
    each pivot row writes its monomial over earlier ones, so the basis is
    the one the graded-lex walk of `_smith_basis` picks and the table is
    the same canonical map.  Returns None at the first column whose
    entries are nonzero but none of them +-1.
    """
    rows = [dict(row) for row in relations]
    live = {}                  # column -> rows that may have an entry there
    for i, row in enumerate(rows):
        for c in row:
            live.setdefault(c, set()).add(i)
    pivots = {}                # column -> its pivot row, scaled to 1 there
    for j in reversed(range(len(monomials))):
        hits = [i for i in live.pop(j, ()) if rows[i].get(j)]
        if not hits:
            continue
        units = [i for i in hits if rows[i][j] in (1, -1)]
        if not units:
            return None
        p = min(units, key=lambda i: (len(rows[i]), i))
        prow, rows[p] = rows[p], {}
        pivots[j] = prow if prow[j] == 1 else {c: -x for c, x in prow.items()}
        for i in hits:
            if i == p:
                continue
            row, f = rows[i], rows[i][j]
            for c, x in pivots[j].items():
                y = row.get(c, 0) - f * x
                if y:
                    row[c] = y
                    live.setdefault(c, set()).add(i)
                else:
                    del row[c]
    basis = [j for j in range(len(monomials)) if j not in pivots]
    classes = []               # class of monomial j over the basis
    for j in range(len(monomials)):
        cls = [int(j == k) for k in basis]
        for c, x in pivots.get(j, {}).items():
            if c != j:
                cls = [a - x * b for a, b in zip(cls, classes[c])]
        classes.append(cls)
    return [monomials[j] for j in basis], intlat.transpose(classes)


def _smith_basis(relations, monomials, degree):
    """Basis and reduction table from a Smith form of the relations; the
    path for components where some column has no +-1 pivot."""
    size = len(monomials)
    dense = [[row.get(c, 0) for c in range(size)] for row in relations]
    snf = intlat.smith_normal_form(dense or [[0] * size], u=False)
    factors = snf.invariant_factors()
    if any(d > 1 for d in factors):
        raise IntegrityError(f"degree-{degree} component has torsion")
    # rows of `free` vanish on the relations: they map the class of a
    # monomial vector to its coordinates in the free quotient Z^r
    free = [[row[j] for row in snf.v] for j in range(len(factors), size)]
    r = len(free)
    # Basis walk in graded-lex order.  `inv` holds the columns of a
    # unimodular matrix taking the kept classes to the first unit vectors,
    # so a monomial keeps them a direct summand iff the rest of its image
    # has gcd 1; `inv` is then changed to take it to the next unit vector.
    # At rank r it is the inverse of the basis, and `inv @ free` reduces.
    inv = intlat.identity(r)
    basis = []
    for j, mono in enumerate(monomials):
        k = len(basis)
        if k == r:
            break
        img = [sum(row[j] * x for row, x in zip(free, col)) for col in inv]
        if gcd(*img[k:]) != 1:
            continue
        for c in range(k + 1, r):      # Euclid: gather the gcd into column k
            while img[c]:
                q = img[k] // img[c]
                inv[k], inv[c] = inv[c], [x - q * y for x, y in zip(inv[k], inv[c])]
                img[k], img[c] = img[c], img[k] - q * img[c]
        inv[k] = [img[k] * x for x in inv[k]]
        for c in range(k):
            inv[c] = [x - img[c] * y for x, y in zip(inv[c], inv[k])]
        basis.append(mono)
    if len(basis) != r:
        raise IntegrityError(
            f"no unimodular monomial basis found for degree {degree}")
    return basis, intlat.mat_mul(inv, free)


def _build_component(pres, degree):
    if degree % pres.generator_degree != 0 or degree < 0:
        raise ValidationError(
            f"degree {degree} is not a multiple of {pres.generator_degree}")
    t = degree // pres.generator_degree
    monomials = _monomials(len(pres.kept), t)
    relations = _relations(pres, t, monomials)
    basis, table = (_unit_pivot_basis(relations, monomials)
                    or _smith_basis(relations, monomials, degree))
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
    form: the generators of the lexicographically first vertex are
    eliminated in favor of the remaining m - n."""
    report = validate_characteristic_pair(p, lam)
    if not report.valid:
        raise ValidationError("invalid pair: " + "; ".join(report.failures))
    k = dual_complex(p)
    m, n = p.facet_count, p.dim
    vertex = min(tuple(sorted(v)) for v in p.vertices)  # unimodular, as the pair is valid
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
