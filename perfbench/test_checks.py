"""Each answer check accepts a right answer and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The right answers are written out by hand or from this directory's own
computations; momang is not imported.
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
from checks import (FAILED, GREEDY_FAULT, check, h_vector,  # noqa: E402
                    hochster_ranks, reduced_betti)


def answer(data):
    return json.dumps(data)


def assert_rejects(expect, code, data, err=""):
    verdict = check(expect, code, answer(data), err)
    assert verdict not in (None, FAILED), verdict


# ------------------------------------------------------------------ homology


def test_reduced_betti_of_circle_and_point():
    circle = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]
    assert reduced_betti(circle) == {-1: 0, 0: 0, 1: 1}
    assert reduced_betti([]) == {-1: 1}
    assert reduced_betti([(1,), (2,)]) == {-1: 0, 0: 1}


def test_hochster_on_square_gives_product_of_spheres():
    # Z_K of the square is S^3 x S^3; quaternionic: S^7 x S^7
    square = [[1, 2], [2, 3], [3, 4], [1, 4]]
    assert hochster_ranks(4, square, "complex") == {0: 1, 3: 2, 6: 1}
    assert hochster_ranks(4, square, "quaternionic") == {0: 1, 7: 2, 14: 1}


def homology_case():
    p = gen.polygon(5)
    expect = {"kind": "homology", "m": 5, "faces": p["vertices"], "flavor": "complex"}
    ranks = hochster_ranks(5, p["vertices"], "complex")
    top = max(ranks)
    data = {"flavor": "complex", "euler_characteristic": 0,
            "degrees": [{"k": k, "rank": ranks.get(k, 0), "torsion": []}
                        for k in range(top + 1)]}
    return expect, data


def test_homology_check_accepts_hochster_ranks():
    expect, data = homology_case()
    assert check(expect, 0, answer(data), "") is None


def test_homology_check_rejects_corruptions():
    expect, data = homology_case()
    wrong_rank = copy.deepcopy(data)
    wrong_rank["degrees"][3]["rank"] += 1
    torsion = copy.deepcopy(data)
    torsion["degrees"][4]["torsion"] = [2]
    euler = copy.deepcopy(data)
    euler["euler_characteristic"] = 2
    short = copy.deepcopy(data)
    short["degrees"].pop()
    for bad in (wrong_rank, torsion, euler, short):
        assert_rejects(expect, 0, bad)
    assert check(expect, 5, "", "budget exceeded") is not None


# ---------------------------------------------------------------- cohomology

CP2 = {"m": 3, "n": 2, "vertices": [[1, 2], [1, 3], [2, 3]]}
CP2_COLUMNS = [[1, 0], [0, 1], [-1, -1]]


def cohomology_case(signs=(1, 1, 1)):
    cols = [[s * x for x in c] for c, s in zip(CP2_COLUMNS, signs)]
    expect = {"kind": "cohomology", "polytope": CP2, "columns": cols,
              "toric_signs": list(signs), "kept_fault": False}
    x = [[s] for s in signs]           # x_i = s_i u for the generator u
    c1 = sum(s for s in signs)
    c2 = sum(signs[i] * signs[j] for i in range(3) for j in range(i + 1, 3))
    data = {"kept_generators": [3],
            "degrees": [{"degree": 2 * k, "rank": 1, "torsion": [],
                         "basis_monomials": [[k]]} for k in range(3)],
            "facet_classes": {str(i + 1): x[i] for i in range(3)},
            "total_class": {"2": [c1], "4": [c2]}}
    return expect, data


def test_h_vector_of_simplex_and_cube():
    assert h_vector(CP2) == [1, 1, 1]
    assert h_vector(gen.cube(3)) == [1, 3, 3, 1]


def test_cohomology_check_accepts_cp2():
    expect, data = cohomology_case()
    assert check(expect, 0, answer(data), "") is None
    flipped, data = cohomology_case(signs=(1, -1, 1))
    assert check(flipped, 0, answer(data), "") is None


def test_cohomology_check_rejects_corruptions():
    expect, data = cohomology_case()
    rank = copy.deepcopy(data)
    rank["degrees"][1]["rank"] = 2
    torsion = copy.deepcopy(data)
    torsion["degrees"][2]["torsion"] = [3]
    facet = copy.deepcopy(data)
    facet["facet_classes"]["2"] = [2]
    c1 = copy.deepcopy(data)
    c1["total_class"]["2"] = [2]
    top = copy.deepcopy(data)
    top["total_class"]["4"] = [1]
    for bad in (rank, torsion, facet, c1, top):
        assert_rejects(expect, 0, bad)


def test_greedy_fault_counts_as_failed_only_where_kept():
    expect, _ = cohomology_case()
    err = f"error: {GREEDY_FAULT} for degree 4\n"
    assert check(expect, 2, "", err) not in (None, FAILED)
    kept = dict(expect, kept_fault=True)
    assert check(kept, 2, "", err) == FAILED
    assert check(kept, 2, "", "error: something else\n") not in (None, FAILED)


def test_greedy_fault_predictor_matches_the_named_hexagon():
    assert gen.self_intersections(gen.HEXAGON_FAULT)[2] == 2
    assert gen.greedy_basis_fault(gen.HEXAGON_FAULT)
    assert not gen.greedy_basis_fault([[1, 0], [0, 1], [-1, 0], [0, -1]])


def test_chern_check():
    expect = {"kind": "chern", "polytope": gen.cube(2)}
    good = {"classes": [[1, 0], [0, 1]], "basis": True}
    assert check(expect, 0, answer(good), "") is None
    assert_rejects(expect, 0, dict(good, basis=False))
    assert_rejects(expect, 0, dict(good, classes=[[1, 0]]))


def test_validate_check_uses_its_own_determinants():
    expect = {"kind": "validate", "polytope": CP2, "columns": CP2_COLUMNS}
    dets = {"1,2": 1, "1,3": -1, "2,3": 1}
    good = {"valid": True, "pair": {"valid": True, "vertex_determinants": dets}}
    assert check(expect, 0, answer(good), "") is None
    assert_rejects(expect, 0, {"valid": True,
                               "pair": {"valid": True,
                                        "vertex_determinants": dict(dets, **{"1,3": 1})}})
    mutant = dict(expect, columns=[[2, 1], [0, 1], [-1, -1]])
    mdets = {"1,2": 2, "1,3": -1, "2,3": 1}
    rejected = {"valid": False, "pair": {"valid": False, "vertex_determinants": mdets}}
    assert check(mutant, 2, answer(rejected), "") is None
    accepted = {"valid": True, "pair": {"valid": True, "vertex_determinants": mdets}}
    assert_rejects(mutant, 0, accepted)


# ------------------------------------------------------------------- compare

SQUARE = gen.cube(2)
HIRZEBRUCH1 = [[1, 0], [0, 1], [-1, 1], [0, -1]]


def compare_case():
    # second pair: base change delta = [[0, 1], [1, 0]], facets relabelled
    delta = [[0, 1], [1, 0]]
    signs = [1, -1, 1, 1]
    cols = gen.transform(HIRZEBRUCH1, delta, signs)
    perm = [2, 3, 4, 1]
    moved = [None] * 4
    for i, j in enumerate(perm):
        moved[j - 1] = cols[i]
    p2 = gen.relabel_polytope(SQUARE, perm)
    expect = {"kind": "compare_complex", "p1": SQUARE, "c1": HIRZEBRUCH1,
              "p2": p2, "c2": moved, "equivalent": True}
    data = {"level": "equivalent", "bundle": {"equal_sublattice": True},
            "certificate": {"delta": delta, "sigma": [1, 2, 3, 4], "signs": signs}}
    return expect, data


def test_compare_check_accepts_a_carrying_certificate():
    expect, data = compare_case()
    assert check(expect, 0, answer(data), "") is None


def test_compare_check_rejects_corruptions():
    expect, data = compare_case()
    singular = copy.deepcopy(data)
    singular["certificate"]["delta"] = [[1, 1], [1, 1]]
    not_unimodular = copy.deepcopy(data)
    not_unimodular["certificate"]["delta"] = [[0, 2], [1, 0]]
    signs = copy.deepcopy(data)
    signs["certificate"]["signs"] = [1, 1, 1, 1]
    level = copy.deepcopy(data)
    level["level"] = "inequivalent"
    for bad in (singular, not_unimodular, signs, level):
        assert_rejects(expect, 0, bad)
    assert check(expect, 3, answer(level), "") is not None


def test_compare_check_needs_differing_minors_for_inequivalence():
    h2 = [[1, 0], [0, 1], [-1, 2], [0, -1]]
    expect = {"kind": "compare_complex", "p1": SQUARE, "c1": HIRZEBRUCH1,
              "p2": SQUARE, "c2": h2, "equivalent": False}
    data = {"level": "inequivalent", "certificate": None,
            "bundle": {"equal_sublattice": False}}
    assert check(expect, 3, answer(data), "") is None
    assert_rejects(expect, 0, dict(data, level="equivalent"))
    same = dict(expect, c2=HIRZEBRUCH1)
    assert check(same, 3, answer(data), "") is not None


def test_quaternionic_check_follows_overlap_type_and_coefficients():
    expect = {"kind": "compare_quaternionic", "n_act": 7,
              "labels1": [[1, 2], [2, 3]], "labels2": [[5, 6], [4, 5]],
              "b1": [1, 2], "b2": [-4, 1]}
    data = {"level": "equivalent", "certificate": None,
            "bundle": {"equal_sublattice": True, "functors_match": True}}
    assert check(expect, 0, answer(data), "") is None
    assert_rejects(expect, 0, dict(data, level="inequivalent"))
    disjoint = dict(expect, labels2=[[5, 6], [3, 4]])
    assert check(disjoint, 0, answer(data), "") is not None
    wrong = {"level": "inequivalent", "certificate": None,
             "bundle": {"equal_sublattice": True, "functors_match": False}}
    assert check(disjoint, 3, answer(wrong), "") is None
