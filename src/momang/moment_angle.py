"""Disk-sphere cell models of moment-angle manifolds and their homology.

Each coordinate carries the minimal CW structure of (D^2, S^1) in the
complex flavor or (D^4, S^3) in the quaternionic one: a base point, a
sphere cell of dimension c and a disc cell of dimension c + 1 (c = 1 or
3).  A cell of the model is a pair (sigma, J): a face sigma of the
complex, discs on sigma, spheres on J - sigma and base points elsewhere,
of dimension |sigma| + c|J|.  The boundary keeps J, so the model splits
into one block per J, the augmented simplicial chain complex of the full
subcomplex K_J shifted by c|J| (Hochster's formula); both flavors share
every block and differ only in the shift.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, lcm

from .combinatorics import enumerate_faces
from .intlat import AbelianGroupInvariants, invariant_factors
from .errors import BudgetError, ValidationError

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"

SPHERE_DIMS = {COMPLEX: 1, QUATERNIONIC: 3}

HOMOLOGY_BUDGET = 10


@dataclass
class CellModel:
    m: int
    flavor: str
    cells: dict       # total dimension -> list of (face sigma, block J) pairs
    boundaries: dict  # (J, k) -> block matrix (rows: cells of J in k-1, cols: in k)

    def top_dimension(self):
        return max(self.cells)

    def cell_counts(self):
        return {k: len(v) for k, v in self.cells.items()}


def _sphere_dim(flavor):
    if flavor not in SPHERE_DIMS:
        raise ValidationError(f"unknown flavor {flavor!r}")
    return SPHERE_DIMS[flavor]


def dimension(k, flavor, n):
    """Dimension n + c*m of the moment-angle manifold over an n-polytope.

    Each of the n disc coordinates at a vertex chart contributes c + 1,
    each of the remaining m - n sphere coordinates c, so the quaternionic
    count is 4n + 3(m - n) = 3m + n.
    """
    return n + _sphere_dim(flavor) * k.vertex_count


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

    Block J holds the faces of K_J by size; the boundary of (sigma, J)
    drops the vertex at position p of sigma with sign (-1)^p.  This sign
    differs from the Koszul sign of the product complex by a sign change
    of each cell, which leaves every invariant factor as it is.
    `boundaries` maps (J, dimension) to the block's matrix.
    """
    shift = _sphere_dim(flavor)
    m = k.vertex_count
    limit = HOMOLOGY_BUDGET if budget is None else budget
    if m > limit:
        raise BudgetError(
            f"cell enumeration over 3^{m} tuples exceeds the budget m <= {limit}", limit)
    blocks = {}  # J -> size -> faces of K_J
    for face in [()] + [f for level in enumerate_faces(k) for f in level]:
        rest = [i for i in range(1, m + 1) if i not in face]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                levels = blocks.setdefault(tuple(sorted(face + extra)), {})
                levels.setdefault(len(face), []).append(face)

    cells = {}
    boundaries = {}
    for block, levels in blocks.items():
        base = shift * len(block)
        for size, level in levels.items():
            cells.setdefault(size + base, []).extend((face, block) for face in level)
            if not size:
                continue
            lower = {face: row for row, face in enumerate(levels[size - 1])}
            matrix = [[0] * len(level) for _ in lower]
            for col, face in enumerate(level):
                for pos in range(size):
                    matrix[lower[face[:pos] + face[pos + 1:]]][col] = -1 if pos % 2 else 1
            boundaries[(block, size + base)] = matrix
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
    """Integral homology of the model from one Smith form per boundary block.

    A block whose non-empty J is a face of K is the augmented chain
    complex of a simplex, which is exact: its boundary out of faces of
    size s has rank C(|J|-1, s-1) and every invariant factor 1, so it
    needs no Smith form.  The block of the empty J keeps its Z.
    """
    shift = _sphere_dim(model.flavor)
    factors = {}
    for (block, dim), mat in model.boundaries.items():
        j = len(block)
        if (block, j * (shift + 1)) in model.boundaries:  # J is a face
            found = [1] * comb(j - 1, dim - shift * j - 1)
        else:
            found = invariant_factors(mat)
        factors.setdefault(dim, []).extend(found)
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
