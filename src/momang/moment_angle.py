"""Disk-sphere cell models of moment-angle manifolds and their homology.

Each coordinate carries the minimal CW structure of (D^2, S^1) in the
complex flavor or (D^4, S^3) in the quaternionic one: a base point, a
sphere cell of dimension c and a disc cell of dimension c + 1 (c = 1 or
3).  A cell of the model is a pair (sigma, J): a face sigma of the
complex, discs on sigma, spheres on J - sigma and base points elsewhere,
of dimension |sigma| + c|J|.  The boundary keeps J, so the model splits
into one block per J, the augmented simplicial chain complex of the full
subcomplex K_J shifted by c|J| (Hochster's formula); both flavors share
every block and differ only in the shift.  The block of a face is exact,
so only the reduced blocks of non-faces carry homology.
"""

from collections import Counter
from math import gcd, lcm

from .combinatorics import _forest_rank, enumerate_faces
from .intlat import AbelianGroupInvariants, invariant_factors
from .errors import BudgetError, ValidationError

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"

SPHERE_DIMS = {COMPLEX: 1, QUATERNIONIC: 3}

HOMOLOGY_BUDGET = 12


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


class DimensionReport:
    """Quaternionic dimension bookkeeping, flagging the additive shortcut.

    The coordinate count 4n + 3(m-n) equals 3m + n; it agrees with the
    naive m + n only in the complex flavor.  `differs_from_m_plus_n`
    surfaces the mismatch so callers cannot silently conflate the two.
    """

    __slots__ = ("flavor", "value", "m_plus_n", "differs_from_m_plus_n")

    def __init__(self, flavor: str, value: int, m_plus_n: int, differs_from_m_plus_n: bool):
        self.flavor = flavor
        self.value = value
        self.m_plus_n = m_plus_n
        self.differs_from_m_plus_n = differs_from_m_plus_n


def dimension_report(k, flavor, n):
    value = dimension(k, flavor, n)
    naive = k.vertex_count + n
    return DimensionReport(flavor, value, naive, value != naive)


class HomologyProfile:
    __slots__ = ("groups", "euler_characteristic")

    def __init__(self, groups: dict, euler_characteristic: int):
        self.groups = groups  # degree -> AbelianGroupInvariants, degrees 0..top
        self.euler_characteristic = euler_characteristic

    def rank(self, degree):
        g = self.groups.get(degree)
        return g.free_rank if g else 0

    def torsion(self, degree):
        g = self.groups.get(degree)
        return list(g.torsion) if g else []

    def nonzero_degrees(self):
        return [d for d, g in sorted(self.groups.items()) if not g.is_trivial()]


def homology(k, flavor, budget=None):
    """Integral homology of the model from the elimination of each block.

    Only a J that is not a face is listed: the block of a face is the
    augmented chain complex of a simplex, exact.  Walking each nonempty
    face sigma of K with each J containing it keeps the faces of K_J by
    size.  Their boundary, one sparse row per face keyed by the masks of
    its facets, drops the vertex at position p of sigma with sign (-1)^p,
    which differs from the Koszul sign of the product complex by a sign
    change of each cell and leaves every invariant factor as it is.  The
    augmentation has rank 1, so it is folded into the vertices: |J| - 1
    cells, no rank.  From the edges onto the vertices the rank is the
    vertices less the components of K_J, every factor 1.  The empty J
    keeps its Z in degree 0; the top cell is (sigma, [m]), sigma maximal.
    """
    shift = _sphere_dim(flavor)
    m = k.vertex_count
    limit = HOMOLOGY_BUDGET if budget is None else budget
    if m > limit:
        raise BudgetError(f"homology limited to m <= {limit} vertices, got {m}", limit)
    by_size = enumerate_faces(k)
    # a vertex set is a mask with bit i for vertex i; each J containing
    # sigma is sigma joined to a non-empty subset of the other vertices
    masks = {face: sum(1 << v for v in face) for level in by_size for face in level}
    is_face = set(masks.values())
    vertices = (1 << (m + 1)) - 2
    blocks = {}  # mask of a J that is not a face -> size -> faces of K_J
    for face, own in masks.items():
        rest = vertices & ~own
        extra = rest
        while extra:
            block = own | extra
            if block not in is_face:
                blocks.setdefault(block, {}).setdefault(len(face), []).append(face)
            extra = (extra - 1) & rest

    cells = Counter({0: 1})  # degree -> cells; the empty J is Z in degree 0
    ranks = Counter()  # degree -> rank of the boundary out of that degree
    torsion = {}       # degree -> invariant factors > 1 of that boundary
    for block, levels in blocks.items():
        base = shift * block.bit_count()
        for size, level in levels.items():
            if size == 1:
                cells[1 + base] += len(level) - 1
                continue
            cells[size + base] += len(level)
            if size == 2:
                ranks[2 + base] += _forest_rank(level)
            else:
                found = invariant_factors(
                    [{masks[face] ^ (1 << v): -1 if pos % 2 else 1 for pos, v in enumerate(face)}
                     for face in level])
                ranks[size + base] += len(found)
                torsion.setdefault(size + base, []).extend(x for x in found if x > 1)
    groups = {}
    for deg in range(len(by_size) + shift * m + 1):
        free = cells[deg] - ranks[deg] - ranks[deg + 1]
        groups[deg] = AbelianGroupInvariants(free, _merge_torsion(torsion.get(deg + 1, [])))
    return HomologyProfile(groups, sum((-1) ** deg * n for deg, n in cells.items()))


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


def is_sphere_profile(profile, dim):
    """True iff the profile is that of S^dim: Z in degrees 0 and dim, else 0."""
    for deg, g in profile.groups.items():
        expected_rank = 1 if deg in (0, dim) else 0
        if g.free_rank != expected_rank or g.torsion:
            return False
    return profile.rank(0) == 1 and profile.rank(dim) == 1
