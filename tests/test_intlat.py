import random
from itertools import combinations, permutations
from math import gcd

import pytest

from momang import intlat
from momang.errors import ShapeError, ValidationError


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def det_by_permutations(mat):
    # Leibniz expansion, the slow oracle for the Bareiss determinant
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += sign * term
    return total


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert intlat.det(m) == det_by_permutations(m)


def test_det_identity_and_empty():
    assert intlat.det([]) == 1
    assert intlat.det(intlat.identity(5)) == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ShapeError):
        intlat.det([[1, 2, 3], [4, 5, 6]])


def test_smith_form_properties_randomized():
    rng = random.Random(2024)
    for trial in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        snf = intlat.smith_normal_form(m)
        assert intlat.mat_mul(intlat.mat_mul(snf.u, m), snf.v) == snf.d
        assert abs(intlat.det(snf.u)) == 1
        assert abs(intlat.det(snf.v)) == 1
        diag = snf.diagonal()
        assert all(x >= 0 for x in diag)
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert snf.d[i][j] == 0
        nz = [x for x in diag if x != 0]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # zeros trail the chain
        seen_zero = False
        for x in diag:
            if x == 0:
                seen_zero = True
            elif seen_zero:
                pytest.fail("nonzero after zero on the diagonal")


def test_smith_form_deterministic():
    m = [[4, 6], [2, 8]]
    first = intlat.smith_normal_form(m)
    second = intlat.smith_normal_form([row[:] for row in m])
    assert first.d == second.d and first.u == second.u and first.v == second.v


def reference_smith_normal_form(mat):
    # the full-scan Smith form: smallest pivot over the whole remaining
    # submatrix, and a divisibility rescan after every pivot
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [row[:] for row in mat]
    u = intlat.identity(rows)
    v = intlat.identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a + v:
            row[dst] += factor * row[src]

    for t in range(min(rows, cols)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows)
                   for j in range(t, cols) if a[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            i = next((i for i in range(t + 1, rows) if a[i][t] != 0), None)
            if i is not None:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    swap_rows(t, i)
                continue
            j = next((j for j in range(t + 1, cols) if a[t][j] != 0), None)
            if j is not None:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    swap_cols(t, j)
                continue
            offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                             if a[i][j] % a[t][t] != 0), None)
            if offender is None:
                break
            add_row(offender, t, 1)
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


# edge shapes: no rows, no columns, all zero, one row, one column; with
# u or v asked for, their identity blocks have zero width or zero height
SMITH_EDGE_SHAPES = [[], [[], []], [[0, 0, 0], [0, 0, 0]], [[0], [0], [0]],
                     [[0, 4, -6, 10]], [[2, -1, 3]], [[4], [-6], [0], [10]], [[0], [3], [-1]]]


def test_smith_form_matches_full_scan_reference():
    rng = random.Random(515)
    cases = []
    for trial in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 10)
        if trial % 2:
            # dense in units: the scan stops at the first +-1
            cases.append(random_matrix(rng, rows, cols, -1, 1))
        else:
            # no unit entry: every pivot comes from the full scan
            cases.append([[rng.choice([0, 2, -2, 3, -3, 4, 6, -9, 10]) for _ in range(cols)]
                          for _ in range(rows)])
    for m in cases + SMITH_EDGE_SHAPES:
        ref_u, ref_d, ref_v = reference_smith_normal_form(m)
        snf = intlat.smith_normal_form(m)
        assert (snf.u, snf.d, snf.v) == (ref_u, ref_d, ref_v), m
        # a transform not asked for is None, and the rest is unchanged
        for u, v in [(False, False), (False, True), (True, False)]:
            snf = intlat.smith_normal_form(m, u=u, v=v)
            assert snf.d == ref_d, m
            assert snf.u == (ref_u if u else None), m
            assert snf.v == (ref_v if v else None), m


def test_invariant_factors_known():
    assert intlat.invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert intlat.invariant_factors([[0, 0], [0, 0]]) == []
    assert intlat.invariant_factors([[1, 2], [3, 4]]) == [1, 2]
    assert intlat.invariant_factors([{7: 2}, {"a": 4}]) == [2, 4]
    with pytest.raises(ShapeError):
        intlat.invariant_factors([[1, 2], [3]])


def sparse_rows(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def invariant_factor_cases():
    # seeded matrices from 0x0 to 8x8, entries -3..3, about half of them 0
    rng = random.Random(1913)
    cases = [[], [[2, 0], [0, 4]], [[0] * 5 for _ in range(4)], [[0] * 3],
             [[0, 3, -1, 2, 0, 1]], [[3], [0], [-1], [2]], [[2, 4, 6]], [[], []]]
    for trial in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = [[rng.choice([0, 0, 0, 0, 0, 0, -3, -2, -1, 1, 2, 3]) for _ in range(cols)]
             for _ in range(rows)]
        kind = trial % 4
        if kind == 1 and rows and cols:
            # heavy fill-in: a unit pivot whose row and column are full
            m[0] = [rng.choice([-1, 1]) for _ in range(cols)]
            for row in m:
                row[0] = rng.choice([-1, 1])
        elif kind == 2:
            # rows with no unit: every entry scaled by 2 or 3
            for row in rng.sample(m, rng.randint(0, rows)):
                row[:] = [rng.choice([2, 3]) * x for x in row]
        elif kind == 3:
            # only -1 pivots
            m = [[-abs(x) if abs(x) == 1 else x for x in row] for row in m]
        cases.append(m)
    return cases


def test_invariant_factors_match_the_dense_smith_form():
    for m in invariant_factor_cases():
        expected = intlat.smith_normal_form(m, u=False, v=False).invariant_factors()
        rows = sparse_rows(m)
        assert intlat.invariant_factors(m) == expected, m
        assert intlat.invariant_factors(rows) == expected, m
        assert rows == sparse_rows(m), m


def test_unit_pivots_leave_only_the_residual_to_the_smith_form(monkeypatch):
    seen = []
    smith = intlat.smith_normal_form

    def counted(mat, **flags):
        seen.append(mat)
        return smith(mat, **flags)

    monkeypatch.setattr(intlat, "smith_normal_form", counted)
    assert intlat.invariant_factors([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]) == [1, 1]
    # the first row gains its unit only from the pivot of the second
    assert intlat.invariant_factors([[2, 3], [1, 1]]) == [1, 1]
    assert seen == []
    assert intlat.invariant_factors([[1, 0, 0], [0, 2, 0], [0, 0, 4]]) == [1, 2, 4]
    assert seen == [[[2, 0], [0, 4]]]


def unit_pivot_cases():
    """Seeded sparse rows: the dense cases above, and rows keyed by vertex
    masks as the homology blocks build them, zero rows among them."""
    cases = [sparse_rows(m) for m in invariant_factor_cases()]
    rng = random.Random(2718)
    for _ in range(150):
        masks = rng.sample(range(1, 1 << 7), rng.randint(1, 12))
        rows = [{mask: rng.choice([-2, -1, -1, 1, 1, 3]) for mask in
                 rng.sample(masks, rng.randint(0, min(4, len(masks))))}
                for _ in range(rng.randint(0, 10))]
        cases.append(rows + [{}] * rng.randint(0, 2))
    return cases


def dense_over(rows, cols):
    return [[row.get(j, 0) for j in cols] for row in rows]


def test_unit_pivots_split_the_rows_into_pivots_and_a_residual():
    for rows in unit_pivot_cases():
        given = [dict(row) for row in rows]
        pivots, left = intlat.unit_pivots(rows)
        assert rows == given
        for col, row in pivots.items():
            assert row[col] == 1 and max(row) == col, rows
        assert all(left) and not any(j in pivots for row in left for j in row), rows
        cols = sorted({j for row in rows for j in row})
        rest = intlat.smith_normal_form(dense_over(left, cols), u=False, v=False)
        whole = intlat.smith_normal_form(dense_over(rows, cols), u=False, v=False)
        assert [1] * len(pivots) + rest.invariant_factors() == whole.invariant_factors(), rows
        assert intlat.hermite_row_form(dense_over(list(pivots.values()) + left, cols)) == \
            intlat.hermite_row_form(dense_over(rows, cols)), rows


def test_a_row_waits_for_the_pivot_that_clears_its_largest_column():
    # x + 2y pivots only after y = 0 clears its 2; a zero row is dropped
    assert intlat.unit_pivots([{0: 1, 1: 2}, {}, {1: -1}]) == ({1: {1: 1}, 0: {0: 1}}, [])
    # the largest column decides: 2 at column 1 keeps the row, though column 0 holds 1
    assert intlat.unit_pivots([{0: 1, 1: 2}]) == ({}, [{0: 1, 1: 2}])
    # mask keys: the face {0, 2} (mask 0b101) is the larger column
    assert intlat.unit_pivots([{0b011: 1, 0b101: -1}, {0b101: 2, 0b110: 2}]) == \
        ({0b101: {0b011: -1, 0b101: 1}}, [{0b011: 2, 0b110: 2}])


def test_kernel_basis_randomized():
    rng = random.Random(99)
    for trial in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 6)
        m = random_matrix(rng, rows, cols, -5, 5)
        basis = intlat.kernel_basis(m)
        assert len(basis) == cols - len(intlat.invariant_factors(m))
        for row in basis:
            assert intlat.mat_vec(m, row) == [0] * rows
        if basis:
            # saturation: the basis spans a direct summand
            assert intlat.invariant_factors(basis) == [1] * len(basis)


def test_kernel_basis_of_surjection():
    m = [[1, 0, -1, 0], [0, 1, 0, -1]]
    basis = intlat.kernel_basis(m)
    assert len(basis) == 2
    lattice = intlat.hermite_row_form(basis)
    assert lattice == intlat.hermite_row_form([[1, 0, 1, 0], [0, 1, 0, 1]])


def reference_maximal_minor_gcd(mat):
    # the gcd of every rows x rows minor, one determinant per column subset
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    g = 0
    for subset in combinations(range(cols), rows):
        g = gcd(g, intlat.det([[mat[i][j] for j in subset] for i in range(rows)]))
    return g


def test_maximal_minor_gcd_matches_the_minors():
    rng = random.Random(21)
    assert intlat.maximal_minor_gcd([]) == reference_maximal_minor_gcd([]) == 1
    deficient = 0
    for trial in range(1500):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 6)
        mat = [[rng.randint(-3, 4) if rng.random() < 0.5 else 0 for _ in range(cols)]
               for _ in range(rows)]
        if rows > 1 and trial % 5 == 0:  # a row in the span of two others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[-2])]
        want = reference_maximal_minor_gcd(mat)
        assert intlat.maximal_minor_gcd(mat) == want, mat
        deficient += want == 0
    assert 200 < deficient < 1000


def test_maximal_minor_gcd():
    assert intlat.maximal_minor_gcd([[2, 4, 6]]) == 2
    assert intlat.maximal_minor_gcd([[1, 0], [0, 1]]) == 1
    assert intlat.maximal_minor_gcd([[1, 1, 0], [0, 2, 2]]) == 2
    assert intlat.maximal_minor_gcd([[1, 1, 0], [0, 1, 2]]) == 1
    assert intlat.maximal_minor_gcd([[0, 0]]) == 0
    with pytest.raises(ShapeError):
        intlat.maximal_minor_gcd([[1], [2]])


def test_hermite_idempotent_and_lattice_invariant():
    rng = random.Random(5)
    for trial in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, -6, 6)
        h = intlat.hermite_row_form(m)
        assert intlat.hermite_row_form(h) == h
        # multiplying by a unimodular matrix on the left keeps the row lattice
        u = intlat.identity(rows)
        for _ in range(4):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i != j:
                c = rng.randint(-2, 2)
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        assert intlat.hermite_row_form(intlat.mat_mul(u, m)) == h


def test_hermite_pivot_normalization():
    h = intlat.hermite_row_form([[0, 2], [3, 1]])
    for i, row in enumerate(h):
        lead = next(j for j, x in enumerate(row) if x)
        assert row[lead] > 0
        for above in range(i):
            assert 0 <= h[above][lead] < row[lead]


def test_inverse_unimodular():
    rng = random.Random(17)
    for trial in range(30):
        n = rng.randint(1, 4)
        u = intlat.identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        inv = intlat.inverse_unimodular(u)
        assert intlat.mat_mul(u, inv) == intlat.identity(n)
    with pytest.raises(ValidationError):
        intlat.inverse_unimodular([[2]])
