"""Exact integer-lattice linear algebra.

Smith and Hermite normal forms, sparse +-1 elimination, saturated kernel
bases, primitivity and unimodularity tests.  Everything here is
arbitrary-precision integer arithmetic on plain list-of-lists matrices (or
dict rows, for the sparse elimination and invariant factors); no floating
point is used anywhere (normal-form pivots can blow up intermediate values
well past machine range).
"""

from math import prod

from .errors import ShapeError, ValidationError

Matrix = list  # list[list[int]], row-major


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ShapeError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0]) if b else 0}")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ShapeError(f"cannot apply {len(a)}x{len(a[0])} to vector of length {len(v)}")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def transpose(a):
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def copy_matrix(a):
    return [row[:] for row in a]


def det(mat):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(row) != n for row in mat):
        raise ShapeError("determinant requires a square matrix")
    a = copy_matrix(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SmithDecomposition:
    """U @ source @ V = D with U, V unimodular and D a divisibility-chain diagonal.

    `u` or `v` is None when the caller of `smith_normal_form` did not ask
    for that transform (u=False or v=False there); `d` is always built.
    """

    __slots__ = ("u", "d", "v")

    def __init__(self, u: Matrix | None, d: Matrix, v: Matrix | None):
        self.u = u
        self.d = d
        self.v = v

    def diagonal(self):
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    def invariant_factors(self):
        return [x for x in self.diagonal() if x != 0]

    def rank(self):
        return len(self.invariant_factors())


class AbelianGroupInvariants:
    """A finitely generated abelian group: Z^free_rank + sum of Z/t cyclic parts."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: list | None = None):
        self.free_rank = free_rank
        self.torsion = [] if torsion is None else torsion

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(mat, *, u=True, v=True):
    """Smith normal form, with the transforms the caller asks for.

    Returns a SmithDecomposition (u, d, v) with u @ mat @ v = d, u and v
    unimodular, and the diagonal of d nonnegative in divisibility order.
    A transform turned off by u=False or v=False is never built and is
    None; d and any transform returned are the same for every request.
    Deterministic for a fixed input: pivots are chosen as the smallest
    nonzero absolute value, ties broken by position, so the scan stops at
    the first entry of absolute value 1.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ShapeError("ragged matrix")
    a = copy_matrix(mat)
    left = identity(rows) if u else None
    right = identity(cols) if v else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if left is not None:
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if right is not None:
            for row in right:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        if left is not None:
            left[dst] = [x + factor * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        if right is not None:
            for row in right:
                row[dst] += factor * row[src]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = 0
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (pivot is None or x < best):
                    pivot, best = (i, j), x
                    if x == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            restart = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce the divisibility chain: d_t must divide the rest
            if abs(a[t][t]) == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1

    # nonnegative diagonal; sign absorbed into u
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            if left is not None:
                left[i] = [-x for x in left[i]]
    return SmithDecomposition(u=left, d=a, v=right)


def unit_pivots(rows):
    """Sparse elimination on pivots of absolute value 1.

    Rows are {column: entry} dicts whose column keys are comparable.  Each
    row is pivoted at its largest column when the entry there is +-1, and
    that column is cleared from every row not yet pivoted; the rows passed
    over are visited again while the last pass pivoted.  Returns
    {column: pivot row, scaled to 1 there} and the nonzero rows left, which
    have no entry in a pivot column.  The input rows are not changed.
    """
    rows = [dict(row) for row in rows]
    holders = {}  # column -> rows not yet pivoted with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivots, kept, done = {}, list(range(len(rows))), None
    while done != len(pivots):  # another pass while the last one pivoted
        done, left, kept = len(pivots), kept, []
        for i in left:
            row = rows[i]
            if not row:
                continue
            col = max(row)
            sign = row[col]
            if sign != 1 and sign != -1:
                kept.append(i)
                continue
            for j in row:
                holders[j].discard(i)
            if sign == -1:
                row = {j: -x for j, x in row.items()}
            del row[col]
            for r in holders.pop(col):
                target = rows[r]
                factor = target.pop(col)
                for j, x in row.items():
                    y = target.get(j, 0) - factor * x
                    if y:
                        target[j] = y
                        holders[j].add(r)
                    else:
                        del target[j]
                        holders[j].discard(r)
            row[col] = 1
            pivots[col] = row
    return pivots, [rows[i] for i in kept if rows[i]]


def invariant_factors(mat):
    """Nonzero diagonal of the Smith form, without the transform matrices.

    Rows are dense lists or sparse {column: entry} dicts; the column keys
    of a row must be comparable, since `unit_pivots` pivots a row at its
    largest column.  Each pivot of absolute value 1 splits off a factor 1
    and leaves its Schur complement (Dumas, Saunders and Villard, J.
    Symbolic Comput. 32, 2001); only the rows left without one go to the
    dense Smith form.
    """
    if len({len(row) for row in mat if not isinstance(row, dict)}) > 1:
        raise ShapeError("ragged matrix")
    pivots, left = unit_pivots(row if isinstance(row, dict) else
                               {j: x for j, x in enumerate(row) if x} for row in mat)
    cols = list(dict.fromkeys(j for row in left for j in row))
    residual = [[row.get(j, 0) for j in cols] for row in left]
    return [1] * len(pivots) + (
        smith_normal_form(residual, u=False, v=False).invariant_factors() if residual else [])


def kernel_basis(mat):
    """A saturated Z-basis of the integer kernel of mat, as rows.

    The stacked rows span ker(mat) exactly, and their Smith invariant
    factors are all 1 (the basis is a direct summand of Z^cols).
    """
    cols = len(mat[0]) if mat else 0
    snf = smith_normal_form(mat, u=False)
    r = snf.rank()
    basis = []
    for j in range(r, cols):
        row = [snf.v[i][j] for i in range(cols)]
        lead = next((x for x in row if x != 0), 1)
        if lead < 0:
            row = [-x for x in row]
        basis.append(row)
    return basis


def maximal_minor_gcd(mat):
    """gcd of the absolute values of all maximal (rows x rows) minors.

    That gcd is the rows-th determinantal divisor, the product of the
    first rows invariant factors; it is 0 iff the matrix has rank below
    its row count.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if rows > cols:
        raise ShapeError(f"need rows <= cols, got {rows}x{cols}")
    factors = invariant_factors(mat)
    return prod(factors) if len(factors) == rows else 0


def hermite_row_form(mat):
    """Canonical row-style Hermite form of the row lattice of mat.

    Positive pivots, entries above a pivot reduced into [0, pivot), zero
    rows pruned.  Two matrices have equal row lattices iff their forms
    are identical.
    """
    rows = [row[:] for row in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        while True:
            nonzero = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: (abs(rows[i][col]), i))
            rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            p = rows[pivot_row][col]
            clean = True
            for i in range(pivot_row + 1, nrows):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                    if rows[i][col] != 0:
                        clean = False
            if clean:
                break
        if rows[pivot_row][col] == 0:
            continue
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    return rows[:pivot_row]


def inverse_unimodular(mat):
    """Exact inverse of a unimodular integer matrix: the Hermite form of
    [mat | I] is [I | mat^-1] exactly when mat is square and unimodular."""
    n, widths = len(mat), {len(row) for row in mat}
    if len(widths) > 1:
        raise ShapeError("ragged matrix")
    h = hermite_row_form([row + e for row, e in zip(mat, identity(n))])
    if widths - {n} or [row[:n] for row in h] != identity(n):
        raise ValidationError("matrix is not unimodular")
    return [row[n:] for row in h]
