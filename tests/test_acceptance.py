"""Acceptance gate: one test per criterion, one pass/fail line each.

The verdict lines are collected here and printed by the terminal-summary
hook in conftest.py, so they appear in the run log green or red.
"""

import json
import random
import time
from itertools import combinations_with_replacement, product

from momang import bundles, classify, cli, cohomology, intlat
from momang import moment_angle as ma
from momang.charpair import (from_columns, isotropy_functor,
                             validate_characteristic_pair, validate_global,
                             validate_quaternionic_functor)
from momang.combinatorics import automorphisms, dual_complex, simple_polytope


RESULTS = {}


def report(number, label, ok):
    line = f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    RESULTS[number] = line
    assert ok, line


def simplex(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return simple_polytope(m, n, verts)


def square():
    return simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])


def projective_matrix(n):
    cols = [[1 if r == i else 0 for r in range(n)] for i in range(n)]
    cols.append([-1] * n)
    return from_columns(cols)


def hirzebruch(a):
    return from_columns([[1, 0], [0, 1], [-1, a], [0, -1]])


def test_criterion_1_complex_sphere_oracle():
    ok = True
    started = time.monotonic()
    for n in range(1, 5):
        k = dual_complex(simplex(n))
        profile = ma.homology(ma.build_cell_model(k, ma.COMPLEX))
        ok = ok and ma.is_sphere_profile(profile, 2 * n + 1)
    ok = ok and (time.monotonic() - started) < 10.0
    report(1, "complex sphere oracle", ok)


def test_criterion_2_quaternionic_sphere_oracle():
    ok = True
    for n in range(1, 4):
        k = dual_complex(simplex(n))
        profile = ma.homology(ma.build_cell_model(k, ma.QUATERNIONIC))
        ok = ok and ma.is_sphere_profile(profile, 4 * n + 3)
    report(2, "quaternionic sphere oracle", ok)


def test_criterion_3_dimension_erratum():
    ok = True
    for n in range(1, 4):
        k = dual_complex(simplex(n))
        m = k.vertex_count
        ok = ok and ma.dimension(k, ma.QUATERNIONIC, n) == 3 * m + n == 4 * n + 3
        rep = ma.dimension_report(k, ma.QUATERNIONIC, n)
        ok = ok and rep.differs_from_m_plus_n
    # oracle confirms the top nonvanishing degree for the segment
    k1 = dual_complex(simplex(1))
    profile = ma.homology(ma.build_cell_model(k1, ma.QUATERNIONIC))
    ok = ok and max(profile.nonzero_degrees()) == 7
    # the validation report surfaces the flag end to end
    code = None
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["validate", "corpus:hp1-hopf"])
    out = json.loads(buf.getvalue())
    ok = ok and code == 0 and out["dimension"]["differs_from_m_plus_n"] is True
    report(3, "quaternionic dimension 3m+n", ok)


def test_criterion_4_hopf_consistency():
    p = simplex(1)
    lam = projective_matrix(1)
    tup = bundles.kernel_chern_classes(p, lam, diagnostics=True)
    coords = [list(c.coordinates) for c in tup.classes]
    ok = coords in ([[1]], [[-1]])
    profile = ma.homology(ma.build_cell_model(dual_complex(p), ma.COMPLEX))
    ok = ok and profile.rank(1) == 0 and profile.rank(2) == 0
    ok = ok and not profile.torsion(1) and not profile.torsion(2)
    ok = ok and tup.basis_flag
    contracted = [list(c.coordinates) for c in tup.contracted_classes]
    ok = ok and contracted == [[2]] and contracted != coords
    report(4, "Hopf datum consistency", ok)


def test_criterion_5_total_chern_class():
    pres = cohomology.quasitoric_presentation(simplex(2), projective_matrix(2))
    parts = cohomology.total_chern_class(pres)
    ok = [c.coordinates for c in parts] == [(3,), (3,)]
    pres2 = cohomology.quasitoric_presentation(square(), hirzebruch(0))
    deg2, deg4 = cohomology.total_chern_class(pres2)
    ok = ok and sorted(deg2.coordinates) == [2, 2] and deg4.coordinates == (4,)
    report(5, "total Chern classes", ok)


def test_criterion_6_validator_verdicts():
    ok = True
    for n in range(1, 4):
        ok = ok and validate_characteristic_pair(simplex(n), projective_matrix(n)).valid
    for a in range(-3, 4):
        ok = ok and validate_characteristic_pair(square(), hirzebruch(a)).valid
    det2 = from_columns([[1, 0], [0, 1], [-1, 1], [1, 1]])
    rep = validate_characteristic_pair(square(), det2)
    ok = ok and not rep.valid and any("[3, 4]" in f for f in rep.failures)
    nonprim = from_columns([[2, 0], [0, 1], [-1, 1], [0, -1]])
    rep2 = validate_characteristic_pair(square(), nonprim)
    ok = ok and not rep2.valid and any("facet 1" in f for f in rep2.failures)
    report(6, "nonsingularity validator", ok)


def _oracle_equivalent(p, lam, lam2):
    # independent brute force: delta's columns are the images of the first
    # two standard columns, hence signed columns of the target matrix
    n, m = lam.n, lam.m
    signed = []
    for j in range(1, m + 1):
        col = lam2.column(j)
        signed.append(col)
        signed.append([-x for x in col])
    autos = automorphisms(dual_complex(p))
    for images in product(signed, repeat=n):
        delta = intlat.transpose(list(images))
        if abs(intlat.det(delta)) != 1:
            continue
        for sigma in autos:
            for eps in product((1, -1), repeat=m):
                if all(intlat.mat_vec(delta, lam.column(i))
                       == [eps[i - 1] * x for x in lam2.column(sigma[i - 1])]
                       for i in range(1, m + 1)):
                    return True
    return False


def test_criterion_7_hirzebruch_equivalence_table():
    p = square()
    mats = {a: hirzebruch(a) for a in range(4)}
    ok = True
    equivalent_count = 0
    for a, b in combinations_with_replacement(range(4), 2):
        cert = classify.equivalent_pairs(p, mats[a], mats[b])
        expected = _oracle_equivalent(p, mats[a], mats[b])
        ok = ok and (cert is not None) == expected == (a == b)
        if cert is not None:
            equivalent_count += 1
            ok = ok and cert.apply(mats[a]).rows() == mats[b].rows()
    # ten unordered pairs; the iff a = +-b rule leaves the four diagonal
    # pairs equivalent over nonnegative twists and the other six not
    ok = ok and equivalent_count == 4
    report(7, "Hirzebruch equivalence table vs oracle", ok)


def test_criterion_8_quaternionic_validators():
    cases = [
        (([1], [2]), True),
        (([1], [1, 2]), True),
        (([1, 2], [1]), True),
        (([1, 2], [3, 4]), True),
        (([1, 2], [2, 3]), False),
        (([1, 3], [2, 3]), False),
        (([1, 2, 3], [2]), True),
        (([1, 2], [1, 3]), False),
    ]
    ok = all(validate_global(isotropy_functor(4, [g1, g2])) is want
             for (g1, g2), want in cases)
    dup = isotropy_functor(2, [[1], [1]])
    ok = ok and not validate_quaternionic_functor(simplex(1), dup).valid
    report(8, "quaternionic validators", ok)


def test_criterion_9_quaternionic_verdicts():
    p = simplex(1)
    f = isotropy_functor(2, [[1], [2]])
    t1 = bundles.quaternionic_primary_tuple(p, f, [[1, 0]])
    t2 = bundles.quaternionic_primary_tuple(p, f, [[2, 0]])
    same = classify.rigidity_verdict_quaternionic(p, f, t1, p, f, t1)
    diff = classify.rigidity_verdict_quaternionic(p, f, t1, p, f, t2)
    ok = (same.level == classify.LEVEL_EQUIVALENT
          and diff.level == classify.LEVEL_INEQUIVALENT)
    # guard: over a base of dimension > 4 no comparison may say "equivalent"
    for n in (2, 3):
        q = simplex(n)
        g = isotropy_functor(n + 1, [[i] for i in range(1, n + 2)])
        b = [[1 if i == 0 else 0 for i in range(n + 1)]]
        tq = bundles.quaternionic_primary_tuple(q, g, b)
        verdict = classify.rigidity_verdict_quaternionic(q, g, tq, q, g, tq)
        ok = ok and verdict.level != classify.LEVEL_EQUIVALENT
        ok = ok and verdict.level == classify.LEVEL_PRIMARY_EQUIVALENT
    report(9, "quaternionic verdict levels", ok)


def test_criterion_10_lattice_infrastructure():
    started = time.monotonic()
    rng = random.Random(20240823)
    ok = True
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = intlat.smith_normal_form(m)
        ok = ok and intlat.mat_mul(intlat.mat_mul(snf.u, m), snf.v) == snf.d
        ok = ok and abs(intlat.det(snf.u)) == 1 and abs(intlat.det(snf.v)) == 1
        nz = snf.invariant_factors()
        ok = ok and all(b % a == 0 for a, b in zip(nz, nz[1:]))
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        basis = intlat.kernel_basis(m)
        ok = ok and all(intlat.mat_vec(m, row) == [0] * rows for row in basis)
        if basis:
            ok = ok and intlat.invariant_factors(basis) == [1] * len(basis)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        h = intlat.hermite_row_form(m)
        ok = ok and intlat.hermite_row_form(h) == h
        u = intlat.identity(rows)
        for _ in range(4):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i != j:
                c = rng.randint(-2, 2)
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        ok = ok and intlat.hermite_row_form(intlat.mat_mul(u, m)) == h
    ok = ok and (time.monotonic() - started) < 5.0
    report(10, "randomized lattice properties", ok)
