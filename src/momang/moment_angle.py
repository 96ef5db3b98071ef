"""Disk-sphere cell models of moment-angle manifolds and their homology.

Each coordinate carries the minimal CW structure of (D^2, S^1) in the
complex flavor or (D^4, S^3) in the quaternionic one: a base point b, a
sphere cell s, and a disc cell d with boundary s.  A cell of the model
is a tuple over {b, s, d} whose d-support is a face of the complex; the
boundary operator replaces one d by s with the usual product-complex
Koszul sign.  The boundary keeps the set J of non-b coordinates, so
the homology is computed one small block per J.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from .combinatorics import enumerate_faces
from .intlat import AbelianGroupInvariants, invariant_factors
from .errors import BudgetError, ValidationError

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"

CELL_DIMS = {
    COMPLEX: {"b": 0, "s": 1, "d": 2},
    QUATERNIONIC: {"b": 0, "s": 3, "d": 4},
}

DEFAULT_BUDGETS = {COMPLEX: 10, QUATERNIONIC: 9}


@dataclass
class CellModel:
    m: int
    flavor: str
    cells: dict       # total dimension -> sorted list of tuples over "b","s","d"
    boundaries: dict  # (J, k) -> block matrix (rows: cells of J in k-1, cols: in k)

    def top_dimension(self):
        return max(self.cells)

    def cell_counts(self):
        return {k: len(v) for k, v in self.cells.items()}


def dimension(k, flavor, n):
    """Dimension of the moment-angle manifold over an n-polytope with m facets.

    The quaternionic count is 4n + 3(m - n) = 3m + n: each of the n disc
    coordinates at a vertex chart contributes 4, each of the remaining
    m - n sphere coordinates contributes 3.
    """
    m = k.vertex_count
    if flavor == COMPLEX:
        return m + n
    if flavor == QUATERNIONIC:
        return 3 * m + n
    raise ValidationError(f"unknown flavor {flavor!r}")


@dataclass
class DimensionReport:
    """Quaternionic dimension bookkeeping, flagging the additive shortcut.

    The coordinate count 4n + 3(m-n) equals 3m + n; it agrees with the
    naive m + n only in the complex flavor.  `differs_from_m_plus_n`
    surfaces the mismatch so callers cannot silently conflate the two.
    """

    flavor: str
    value: int
    m_plus_n: int
    differs_from_m_plus_n: bool


def dimension_report(k, flavor, n):
    value = dimension(k, flavor, n)
    naive = k.vertex_count + n
    return DimensionReport(flavor, value, naive, value != naive)


def build_cell_model(k, flavor, budget=None):
    """Enumerate the cells face by face and the boundary matrices block by block.

    A cell is a face sigma of k and a set J containing it: d on sigma, s on
    J - sigma, b elsewhere.  The boundary turns one d into s and keeps J, so
    each boundary map is the direct sum of one block per J, up to signs and
    a shift the augmented chain complex of the full subcomplex K_J
    (Hochster's formula).  `boundaries` maps (J, dimension) to that block.
    """
    if flavor not in CELL_DIMS:
        raise ValidationError(f"unknown flavor {flavor!r}")
    m = k.vertex_count
    limit = DEFAULT_BUDGETS[flavor] if budget is None else budget
    if m > limit:
        raise BudgetError(
            f"cell enumeration over 3^{m} tuples exceeds the budget m <= {limit}", limit)
    dims = CELL_DIMS[flavor]
    blocks = {}  # J -> dimension -> cells whose non-b coordinates are J
    for face in [()] + [f for level in enumerate_faces(k) for f in level]:
        rest = [i for i in range(1, m + 1) if i not in face]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                cell = tuple("d" if i in face else "s" if i in extra else "b"
                             for i in range(1, m + 1))
                levels = blocks.setdefault(tuple(sorted(face + extra)), {})
                levels.setdefault(sum(dims[c] for c in cell), []).append(cell)

    cells = {}
    boundaries = {}
    for block, levels in blocks.items():
        for dim, level in levels.items():
            cells.setdefault(dim, []).extend(level)
            lower = levels.get(dim - 1)
            if lower is None:
                continue
            lower_index = {cell: j for j, cell in enumerate(lower)}
            matrix = [[0] * len(level) for _ in lower]
            for col, cell in enumerate(level):
                prefix = 0
                for i, c in enumerate(cell):
                    if c == "d":
                        target = cell[:i] + ("s",) + cell[i + 1:]
                        sign = -1 if prefix % 2 else 1
                        matrix[lower_index[target]][col] += sign
                    prefix += dims[c]
            boundaries[(block, dim)] = matrix
    for level in cells.values():
        level.sort()
    return CellModel(m=m, flavor=flavor, cells=cells, boundaries=boundaries)


@dataclass
class HomologyProfile:
    groups: dict  # degree -> AbelianGroupInvariants, degrees 0..top

    def rank(self, degree):
        g = self.groups.get(degree)
        return g.free_rank if g else 0

    def torsion(self, degree):
        g = self.groups.get(degree)
        return list(g.torsion) if g else []

    def nonzero_degrees(self):
        return [d for d, g in sorted(self.groups.items()) if not g.is_trivial()]


def homology(model):
    """Integral homology of the model from one Smith form per boundary block."""
    factors = {}
    for (_, dim), mat in model.boundaries.items():
        factors.setdefault(dim, []).extend(invariant_factors(mat))
    groups = {}
    for deg in range(model.top_dimension() + 1):
        above = factors.get(deg + 1, [])
        free = len(model.cells.get(deg, [])) - len(factors.get(deg, [])) - len(above)
        groups[deg] = AbelianGroupInvariants(free, _merge_torsion(x for x in above if x > 1))
    return HomologyProfile(groups=groups)


def _merge_torsion(orders):
    """Invariant factors of the sum of the cyclic groups Z/t, t in orders.

    Each gcd/lcm step keeps, prime by prime, the exponents sorted, so
    Z/2 + Z/3 gives [6] and Z/4 + Z/6 gives [2, 12].
    """
    chain = []
    for t in orders:
        for i, x in enumerate(chain):
            chain[i], t = gcd(x, t), lcm(x, t)
        chain.append(t)
    return [x for x in chain if x > 1]


def euler_characteristic(model):
    return sum((-1) ** dim * len(level) for dim, level in model.cells.items())


def euler_characteristic_from_homology(profile):
    return sum((-1) ** deg * g.free_rank for deg, g in profile.groups.items())


def is_sphere_profile(profile, dim):
    """True iff the profile is that of S^dim: Z in degrees 0 and dim, else 0."""
    for deg, g in profile.groups.items():
        expected_rank = 1 if deg in (0, dim) else 0
        if g.free_rank != expected_rank or g.torsion:
            return False
    return profile.rank(0) == 1 and profile.rank(dim) == 1
