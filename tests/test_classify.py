import random
from itertools import combinations_with_replacement, permutations, product

import pytest

from momang import bundles, classify, intlat
from momang.charpair import from_columns, isotropy_functor
from momang.combinatorics import (automorphisms, dual_complex, isomorphisms,
                                  simple_polytope)
from momang.errors import IncomparableError, ValidationError


def segment():
    return simple_polytope(2, 1, [[1], [2]])


def square():
    return simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])


def simplex(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return simple_polytope(m, n, verts)


def projective_matrix(n):
    cols = [[1 if r == i else 0 for r in range(n)] for i in range(n)]
    cols.append([-1] * n)
    return from_columns(cols)


def hirzebruch(a):
    return from_columns([[1, 0], [0, 1], [-1, a], [0, -1]])


def oracle_equivalent(p, lam, lam2):
    """Independent brute-force decision, bypassing the anchor-vertex search.

    Requires the first n columns of lam to be the standard basis (true for
    the whole Hirzebruch family): delta is then determined by where those
    columns land, namely on signed columns of lam2, so every candidate
    delta is enumerable; each one is checked against every automorphism
    and sign pattern by direct matrix equality.
    """
    n, m = lam.n, lam.m
    for j in range(n):
        assert lam.column(j + 1) == [1 if r == j else 0 for r in range(n)]
    signed_cols = []
    for j in range(1, m + 1):
        col = lam2.column(j)
        signed_cols.append(col)
        signed_cols.append([-x for x in col])
    autos = automorphisms(dual_complex(p))
    for images in product(signed_cols, repeat=n):
        delta = intlat.transpose(list(images))
        if len(delta) != n or abs(intlat.det(delta)) != 1:
            continue
        for sigma in autos:
            for eps in product((1, -1), repeat=m):
                ok = True
                for i in range(1, m + 1):
                    lhs = intlat.mat_vec(delta, lam.column(i))
                    rhs = [eps[i - 1] * x for x in lam2.column(sigma[i - 1])]
                    if lhs != rhs:
                        ok = False
                        break
                if ok:
                    return True
    return False


def test_certificate_apply_and_inverse():
    p = square()
    lam = hirzebruch(1)
    cert = classify.EquivalenceCertificate(
        delta=[[1, 0], [0, 1]], sigma=(2, 3, 4, 1), signs=(1, -1, 1, -1))
    target = cert.apply(lam)
    back = cert.inverse().apply(target)
    assert back.rows() == lam.rows()


def test_equivalent_pairs_reflexive():
    p = square()
    for a in range(4):
        cert = classify.equivalent_pairs(p, hirzebruch(a), hirzebruch(a))
        assert cert is not None
        assert cert.apply(hirzebruch(a)).rows() == hirzebruch(a).rows()


def test_equivalent_pairs_sign_twist():
    p = segment()
    lam = projective_matrix(1)
    flipped = from_columns([[-1], [1]])
    cert = classify.equivalent_pairs(p, lam, flipped)
    assert cert is not None
    assert cert.apply(lam).rows() == flipped.rows()


def test_equivalent_pairs_rejects_invalid_input():
    with pytest.raises(ValidationError):
        classify.equivalent_pairs(segment(), from_columns([[2], [-1]]),
                                  projective_matrix(1))


def test_hirzebruch_partition_matches_oracle():
    p = square()
    mats = {a: hirzebruch(a) for a in range(4)}
    for a, b in combinations_with_replacement(range(4), 2):
        cert = classify.equivalent_pairs(p, mats[a], mats[b])
        expected = oracle_equivalent(p, mats[a], mats[b])
        assert (cert is not None) == expected, (a, b)
        assert expected == (a == b), (a, b)
        if cert is not None:
            assert cert.apply(mats[a]).rows() == mats[b].rows()


def test_negated_twist_is_equivalent():
    # a = -1 against a = 1: equivalence through a square reflection
    p = square()
    cert = classify.equivalent_pairs(p, hirzebruch(1), hirzebruch(-1))
    assert cert is not None
    assert oracle_equivalent(p, hirzebruch(1), hirzebruch(-1))


def test_compare_kernel_bundles():
    p = segment()
    t1 = bundles.kernel_chern_classes(p, projective_matrix(1))
    t2 = bundles.kernel_chern_classes(p, from_columns([[-1], [1]]))
    assert classify.compare_kernel_bundles(t1, t2)
    square_tup = bundles.kernel_chern_classes(square(), hirzebruch(0))
    with pytest.raises(IncomparableError):
        classify.compare_kernel_bundles(t1, square_tup)


def test_complex_verdicts():
    p = square()
    same = classify.rigidity_verdict_complex(p, hirzebruch(2), p, hirzebruch(2))
    assert same.level == classify.LEVEL_EQUIVALENT
    assert same.bundle_report == {"equal_sublattice": True}
    diff = classify.rigidity_verdict_complex(p, hirzebruch(1), p, hirzebruch(2))
    assert diff.level == classify.LEVEL_INEQUIVALENT
    cross = classify.rigidity_verdict_complex(
        p, hirzebruch(0), simplex(2), projective_matrix(2))
    assert cross.level == classify.LEVEL_INCOMPARABLE


def test_complex_verdict_over_relabeled_polytope():
    p = square()
    q = simple_polytope(4, 2, [[1, 3], [3, 2], [2, 4], [4, 1]])
    # same pair with facets 2 and 3 swapped
    lam = hirzebruch(1)
    relabeled = from_columns([lam.column(1), lam.column(3), lam.column(2),
                              lam.column(4)])
    verdict = classify.rigidity_verdict_complex(p, lam, q, relabeled)
    assert verdict.level == classify.LEVEL_EQUIVALENT
    assert verdict.certificate.apply(lam).rows() == relabeled.rows()


def relabel_polytope(p, perm):
    """The same polytope with facet i renamed perm[i-1]."""
    verts = [[perm[i - 1] for i in v] for v in p.vertices]
    return simple_polytope(p.facet_count, p.dim, verts)


def relabel(p, lam, perm):
    """The same pair with facet i renamed perm[i-1]."""
    cols = [None] * lam.m
    for i in range(1, lam.m + 1):
        cols[perm[i - 1] - 1] = lam.column(i)
    return relabel_polytope(p, perm), from_columns(cols)


def test_complex_verdict_matches_oracle_on_disguised_pairs():
    rng = random.Random(7)
    p = square()
    for a, b in product(range(-2, 3), repeat=2):
        flips = [rng.choice((1, -1)) for _ in range(4)]
        signed = from_columns([[s * x for x in hirzebruch(b).column(i)]
                               for i, s in zip(range(1, 5), flips)])
        expected = oracle_equivalent(p, hirzebruch(a), signed)
        assert expected == (abs(a) == abs(b)), (a, b)
        perm = list(range(1, 5))
        rng.shuffle(perm)
        q, disguised = relabel(p, signed, perm)
        verdict = classify.rigidity_verdict_complex(p, hirzebruch(a), q, disguised)
        assert (verdict.level == classify.LEVEL_EQUIVALENT) == expected, (a, b, perm)
        if expected:
            cert = verdict.certificate
            assert cert.apply(hirzebruch(a)).rows() == disguised.rows()
            assert cert.sigma in isomorphisms(dual_complex(p), dual_complex(q))


def test_quaternionic_verdicts_base_dim_four():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    t1 = bundles.quaternionic_primary_tuple(p, f, [[1, 0]])
    t2 = bundles.quaternionic_primary_tuple(p, f, [[2, 0]])
    same = classify.rigidity_verdict_quaternionic(p, f, t1, p, f, t1)
    assert same.level == classify.LEVEL_EQUIVALENT
    diff = classify.rigidity_verdict_quaternionic(p, f, t1, p, f, t2)
    assert diff.level == classify.LEVEL_INEQUIVALENT


def test_quaternionic_verdicts_high_base_never_equivalent():
    p = simplex(2)
    f = isotropy_functor(3, [[1], [2], [3]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[1, 0, 0]])
    verdict = classify.rigidity_verdict_quaternionic(p, f, tup, p, f, tup)
    assert verdict.level == classify.LEVEL_PRIMARY_EQUIVALENT
    other = bundles.quaternionic_primary_tuple(p, f, [[3, 0, 0]])
    verdict2 = classify.rigidity_verdict_quaternionic(p, f, tup, p, f, other)
    assert verdict2.level == classify.LEVEL_PRIMARY_DISTINCT


def test_quaternionic_incomparable_bases():
    p1, f1 = segment(), isotropy_functor(2, [[1], [2]])
    p2, f2 = simplex(2), isotropy_functor(3, [[1], [2], [3]])
    t1 = bundles.quaternionic_primary_tuple(p1, f1, [[1, 0]])
    t2 = bundles.quaternionic_primary_tuple(p2, f2, [[1, 0, 0]])
    verdict = classify.rigidity_verdict_quaternionic(p1, f1, t1, p2, f2, t2)
    assert verdict.level == classify.LEVEL_INCOMPARABLE


def test_functor_relabeling_detected():
    # same data with the acting coordinates renamed
    p = segment()
    f1 = isotropy_functor(2, [[1], [2]])
    f2 = isotropy_functor(2, [[2], [1]])
    t1 = bundles.quaternionic_primary_tuple(p, f1, [[1, 0]])
    t2 = bundles.quaternionic_primary_tuple(p, f2, [[1, 0]])
    verdict = classify.rigidity_verdict_quaternionic(p, f1, t1, p, f2, t2)
    assert verdict.level == classify.LEVEL_EQUIVALENT


def functors_match_oracle(p, f, p2, f2):
    """Brute force: try every relabeling of the universe for every isomorphism."""
    if f.n_act != f2.n_act:
        return False
    isos = isomorphisms(dual_complex(p), dual_complex(p2))
    for iso in isos:
        pairs = [(f.label(i), f2.label(iso[i - 1]))
                 for i in range(1, p.facet_count + 1)]
        for perm in permutations(range(1, f.n_act + 1)):
            if all(frozenset(perm[a - 1] for a in src) == dst
                   for src, dst in pairs):
                return True
    return False


def test_functors_match_agrees_with_brute_force():
    rng = random.Random(11)
    bases = [segment(), simplex(2), square()]
    matches = 0
    for trial in range(300):
        p = bases[trial % 3]
        m = p.facet_count
        n_act = rng.randint(1, 6)

        def random_label():
            return rng.sample(range(1, n_act + 1), rng.randint(1, min(3, n_act)))

        labels = [random_label() for _ in range(m)]
        f = isotropy_functor(n_act, labels)
        if trial % 2:
            # a relabeled copy: rename the universe and the facets
            pi = list(range(1, n_act + 1))
            rng.shuffle(pi)
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            p2 = relabel_polytope(p, perm)
            labels2 = [None] * m
            for i in range(1, m + 1):
                labels2[perm[i - 1] - 1] = [pi[x - 1] for x in labels[i - 1]]
            if rng.random() < 0.3:  # a perturbed copy may stop matching
                labels2[0] = random_label()
        else:
            p2 = p
            labels2 = [random_label() for _ in range(m)]
        f2 = isotropy_functor(n_act, labels2)
        want = functors_match_oracle(p, f, p2, f2)
        assert classify._functors_match(p, f, p2, f2) == want, (p.vertices, labels, labels2)
        matches += want
    assert 50 < matches < 250
