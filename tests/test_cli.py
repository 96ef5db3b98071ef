import json
import os
import random
import subprocess
import sys
from itertools import combinations, product
from math import comb, prod

import pytest

import pairgen
from momang import bundles, charpair, classify, cli, cohomology, intlat
from momang.combinatorics import DEFAULT_SEARCH_BOUND


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


HIRZEBRUCH_1 = {
    "polytope": {"m": 4, "n": 2, "vertices": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    "characteristic": {"n": 2, "m": 4,
                       "columns": [[1, 0], [0, 1], [-1, 1], [0, -1]]},
}
HIRZEBRUCH_1_COLUMNS = HIRZEBRUCH_1["characteristic"]["columns"]


def test_examples_lists_corpus(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    names = [e["name"] for e in json.loads(out)]
    assert "cp2" in names and "hp1-hopf" in names


def test_validate_corpus_entries(capsys):
    for entry in cli.load_corpus():
        code, out, _ = run(capsys, "validate", f"corpus:{entry['name']}")
        assert code == 0, entry["name"]
        assert json.loads(out)["valid"] is True


def test_validate_quaternionic_reports_dimension_flag(capsys):
    code, out, _ = run(capsys, "validate", "corpus:hp1-hopf")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == {
        "value": 7, "m_plus_n": 3, "differs_from_m_plus_n": True}


def test_validate_failure_exit_code(capsys, tmp_path):
    bad = dict(HIRZEBRUCH_1)
    bad["characteristic"] = {"n": 2, "m": 4,
                             "columns": [[2, 0], [0, 1], [-1, 1], [0, -1]]}
    path = write_json(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert json.loads(out)["valid"] is False


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/input.json")
    assert code == 1
    assert "input error" in err


def test_malformed_json_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"polytope": ')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "line 1" in err


def test_unknown_corpus_name(capsys):
    code, _, err = run(capsys, "validate", "corpus:nope")
    assert code == 1
    assert "nope" in err


def test_homology_output(capsys):
    code, out, _ = run(capsys, "homology", "corpus:cp1")
    assert code == 0
    data = json.loads(out)
    assert data["flavor"] == "complex"
    ranks = {d["k"]: d["rank"] for d in data["degrees"]}
    assert ranks == {0: 1, 1: 0, 2: 0, 3: 1}


def test_homology_budget_exit(capsys, tmp_path):
    obj = {"m": 13, "maximal_faces": [[i] for i in range(1, 14)]}
    path = write_json(tmp_path, "big.json", obj)
    for flavor in ("complex", "quaternionic"):
        code, _, err = run(capsys, "homology", path, "--flavor", flavor)
        assert code == 5
        assert err == "budget exceeded: homology limited to m <= 12 vertices, got 13\n"


def test_homology_quaternionic_flavor(capsys):
    code, out, _ = run(capsys, "homology", "corpus:hp1-hopf",
                       "--flavor", "quaternionic")
    assert code == 0
    data = json.loads(out)
    ranks = {d["k"]: d["rank"] for d in data["degrees"]}
    assert ranks[0] == 1 and ranks[7] == 1
    assert sum(ranks.values()) == 2


@pytest.mark.parametrize("flavor", [["complex"], 5, None, "", "Complex"])
def test_homology_flavor_from_the_file_is_checked(capsys, tmp_path, flavor):
    obj = {"m": 2, "maximal_faces": [[1], [2]], "flavor": flavor}
    code, out, err = run(capsys, "homology", write_json(tmp_path, "k.json", obj))
    assert code == 1 and not out
    assert err.startswith("input error: unknown flavor")


def test_homology_flavor_from_the_file_is_used(capsys, tmp_path):
    obj = {"m": 2, "maximal_faces": [[1], [2]], "flavor": "quaternionic"}
    code, out, _ = run(capsys, "homology", write_json(tmp_path, "k.json", obj))
    assert code == 0
    assert json.loads(out)["flavor"] == "quaternionic"


def polygon(m):
    return {"polytope": {"m": m, "n": 2,
                         "vertices": [[i, i % m + 1] for i in range(1, m + 1)]}}


def mcgavran_rank(m, d):
    # rank of H_d of the complex moment-angle manifold over an m-gon
    if d in (0, m + 2):
        return 1
    if 3 <= d <= m - 1:
        return (d - 2) * comb(m - 2, d - 1) + (m - d) * comb(m - 2, m + 1 - d)
    return 0


@pytest.mark.parametrize("m", [10, 11, 12])
def test_homology_of_complex_m_gon_inside_default_budget(capsys, tmp_path, m):
    code, out, err = run(capsys, "homology", write_json(tmp_path, "p.json", polygon(m)))
    assert code == 0, err
    ranks = {d["k"]: d["rank"] for d in json.loads(out)["degrees"]}
    assert ranks == {d: mcgavran_rank(m, d) for d in range(m + 3)}
    if m == 10:
        assert [ranks[d] for d in range(3, 10)] == [35, 160, 350, 448, 350, 160, 35]


@pytest.mark.parametrize("flavor, sphere", [("complex", 3), ("quaternionic", 7)])
def test_homology_of_the_6_cube_dual_is_a_product_of_spheres(capsys, tmp_path, flavor, sphere):
    # Z_K over the 6-cube is (S^3)^6, or (S^7)^6 in the quaternionic flavour
    cube = {"polytope": {"m": 12, "n": 6,
                         "vertices": [list(v) for v in product(*[(i, i + 6) for i in range(1, 7)])]}}
    code, out, err = run(capsys, "homology", write_json(tmp_path, "c.json", cube),
                         "--flavor", flavor)
    assert code == 0, err
    degrees = json.loads(out)["degrees"]
    assert {d["k"]: d["rank"] for d in degrees} == {
        d: comb(6, d // sphere) if d % sphere == 0 else 0 for d in range(6 * sphere + 1)}
    assert all(not d["torsion"] for d in degrees)


@pytest.mark.parametrize("m", [9, 10])
def test_homology_of_quaternionic_m_gon_inside_default_budget(capsys, tmp_path, m):
    code, out, err = run(capsys, "homology", write_json(tmp_path, "p.json", polygon(m)),
                         "--flavor", "quaternionic")
    assert code == 0, err
    data = json.loads(out)
    # a class from the reduced homology H_i(K_J) has complex degree
    # |J| + i + 1 and quaternionic degree 3|J| + i + 1: the middle classes
    # (i = 0, |J| = d - 1) move from d to 3d - 2, the top one to 3m + 2
    moved = {0: 0, m + 2: 3 * m + 2, **{d: 3 * d - 2 for d in range(3, m)}}
    want = {d: 0 for d in range(3 * m + 3)}
    want.update({moved[d]: mcgavran_rank(m, d) for d in moved})
    assert {d["k"]: d["rank"] for d in data["degrees"]} == want
    assert all(not d["torsion"] for d in data["degrees"])


def test_cohomology_output(capsys, tmp_path):
    path = write_json(tmp_path, "h1.json", HIRZEBRUCH_1)
    code, out, _ = run(capsys, "cohomology", path)
    assert code == 0
    data = json.loads(out)
    ranks = [d["rank"] for d in data["degrees"]]
    assert ranks == [1, 2, 1]
    assert "total_class" in data


def test_cohomology_of_hexagon_takes_a_generator(capsys, tmp_path):
    # x3^2 = -2 [pt] here; the degree-4 basis must be a generator
    hexagon = {
        "polytope": {"m": 6, "n": 2,
                     "vertices": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]},
        "characteristic": {"n": 2, "m": 6, "columns": [
            [1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [0, -1]]},
    }
    code, out, err = run(capsys, "cohomology", write_json(tmp_path, "hex.json", hexagon))
    assert code == 0, err
    data = json.loads(out)
    assert data["degrees"][2]["basis_monomials"] == [[1, 1, 0, 0]]
    assert data["total_class"]["4"] == [6]


def test_cohomology_of_the_7_cube_bott_tower(capsys, tmp_path):
    # m = 14 facets, 7 kept generators: the top degree has 1716 monomials
    # and 3234 relations, all reduced on +-1 pivots
    n = 7
    p = pairgen.cube(n)
    cols = pairgen.staged_columns(random.Random(1), [1] * n)
    for flipped in ((), (1,)):
        signs = [-1 if i in flipped else 1 for i in range(1, 2 * n + 1)]
        body = {"polytope": {"m": 2 * n, "n": n,
                             "vertices": [sorted(v) for v in p.vertices]},
                "characteristic": {"n": n, "m": 2 * n, "columns": [
                    [s * x for x in col] for col, s in zip(cols, signs)]}}
        code, out, err = run(capsys, "cohomology", write_json(tmp_path, "c7.json", body))
        assert code == 0, err
        data = json.loads(out)
        assert [(d["degree"], d["rank"], d["torsion"]) for d in data["degrees"]] \
            == [(2 * k, comb(n, k), []) for k in range(n + 1)]
        # the top class is the vertex count, each vertex signed by its facets
        signed = sum(prod(signs[i - 1] for i in v) for v in p.vertices)
        assert data["total_class"][str(2 * n)] in ([signed], [-signed]), flipped


HP1_HOPF = {"polytope": {"m": 2, "n": 1, "vertices": [[1], [2]]},
            "functor": {"n_act": 2, "labels": [[1], [2]]}}


def malformed(section, key, value):
    body = json.loads(json.dumps(HIRZEBRUCH_1 if section != "functor" else HP1_HOPF))
    body[section][key] = value
    return body


MALFORMED = {
    "no columns": malformed("characteristic", "columns", []),
    "columns not a list": malformed("characteristic", "columns", 5),
    "vertices not lists": malformed("polytope", "vertices", [1, 2]),
    "fractional entry": malformed("characteristic", "columns",
                                  [[1.5, 0], [0, 1], [-1, 1], [0, -1]]),
    "boolean entry": malformed("characteristic", "columns",
                               [[True, 0], [0, 1], [-1, 1], [0, -1]]),
    "fractional facet": malformed("polytope", "vertices",
                                  [[1.0, 2], [2, 3], [3, 4], [1, 4]]),
    "facet count a string": malformed("polytope", "m", "2"),
    "labels not lists": malformed("functor", "labels", [1, 2]),
    "declared n a string": malformed("characteristic", "n", "2"),
    "declared n a boolean": {"polytope": {"m": 2, "n": 1, "vertices": [[1], [2]]},
                             "characteristic": {"n": True, "m": 2, "columns": [[1], [-1]]}},
    "fractional label": malformed("functor", "labels", [[1.0], [2]]),
    "boolean label": malformed("functor", "labels", [[True], [2]]),
    "fractional universe": malformed("functor", "n_act", 2.0),
    "top level a number": 5,
    "top level null": None,
    "top level a string": "polytope",
    "dimension a boolean": {"polytope": {"m": 2, "n": True, "vertices": [[1], [2]]},
                            "characteristic": {"n": 1, "m": 2, "columns": [[1], [-1]]}},
    "facet count a boolean": malformed("polytope", "m", True),
    "boolean facet beside its integer": malformed("polytope", "vertices",
                                                  [[1, True], [2, 3], [3, 4], [1, 4]]),
}


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_an_input_error(capsys, tmp_path, name, command):
    code, _, err = run(capsys, command, write_json(tmp_path, "bad.json", MALFORMED[name]))
    assert code == 1
    assert err.startswith("input error:")


@pytest.mark.parametrize("body", [5, None, "polytope"])
def test_compare_rejects_a_top_level_value_that_is_not_an_object(capsys, tmp_path, body):
    path = write_json(tmp_path, "bad.json", body)
    code, out, err = run(capsys, "compare", path, "corpus:cp1")
    assert code == 1 and not out
    assert err.startswith("input error:")


@pytest.mark.parametrize("first", [True, False])
def test_compare_of_a_functor_without_a_polytope_is_an_input_error(capsys, tmp_path, first):
    path = write_json(tmp_path, "q.json", {"functor": HP1_HOPF["functor"]})
    pair = [path, "corpus:hp1-hopf"] if first else ["corpus:hp1-hopf", path]
    code, out, err = run(capsys, "compare", *pair)
    assert (code, out) == (1, "")
    assert err == "input error: input must contain a polytope and a functor\n"


@pytest.mark.parametrize("obj", [
    {"m": 3, "maximal_faces": [[True, 2], [2, 3], [1, 3]]},
    {"m": 3, "maximal_faces": [[1, 2.0], [2, 3], [1, 3]]},
    {"m": True, "maximal_faces": [[1]]},
])
def test_homology_complex_vertices_must_be_integers(capsys, tmp_path, obj):
    code, out, err = run(capsys, "homology", write_json(tmp_path, "k.json", obj))
    assert code == 1 and not out
    assert err.startswith("input error:")


def test_validate_output_of_failing_pairs_is_pinned(capsys, tmp_path, monkeypatch):
    # three square pairs: a determinant -3 vertex, a non-primitive column,
    # and every vertex failing, so that gcds other than 1 are reported
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "validate_failures.json")) as fh:
        recorded = json.load(fh)
    monkeypatch.chdir(tmp_path)
    square = {"m": 4, "n": 2, "vertices": [[1, 2], [2, 3], [3, 4], [1, 4]]}
    for want in recorded:
        body = {"polytope": square,
                "characteristic": {"n": 2, "m": 4, "columns": want["columns"]}}
        write_json(tmp_path, want["file"], body)
        code, out, err = run(capsys, "validate", want["file"])
        assert (code, out, err) == (want["code"], want["stdout"], want["stderr"])


def invalid_pairs(tmp_path):
    """(bad, good, failures): the three square pairs of validate_failures.json
    with their recorded failures, and seeded towers with one column scaled
    by 2 or 3, so the vertices through that facet have determinant +-2 or
    +-3, with the failures `validate` gives; each beside a valid pair over
    the same polytope."""
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "validate_failures.json")) as fh:
        recorded = json.load(fh)
    square = pairgen.polygon(4)
    good = write_json(tmp_path, "square.json", pair_body(square, HIRZEBRUCH_1_COLUMNS))
    for want in recorded:
        bad = write_json(tmp_path, want["file"], pair_body(square, want["columns"]))
        yield bad, good, json.loads(want["stdout"])["pair"]["failures"]
    rng = random.Random("invalid towers")
    for k, dims in enumerate(([1, 1], [1, 1, 1], [1, 2], [2, 1], [2, 2], [1, 1, 2], [3])):
        p = pairgen.simplex_product(dims)
        cols = pairgen.staged_columns(rng, dims)
        scale = rng.choice((-3, -2, 2, 3))
        facet = rng.randrange(len(cols))
        scaled = [[scale * x for x in col] if i == facet else col
                  for i, col in enumerate(cols)]
        good = write_json(tmp_path, f"tower{k}.json", pair_body(p, cols))
        bad = write_json(tmp_path, f"scaled{k}.json", pair_body(p, scaled))
        yield bad, good, None


def test_invalid_pairs_fail_alike_in_every_command(capsys, tmp_path):
    seen = 0
    for bad, good, failures in invalid_pairs(tmp_path):
        code, out, _ = run(capsys, "validate", bad)
        report = json.loads(out)["pair"]
        assert code == 2 and report["valid"] is False
        if failures is None:  # a scaled tower
            dets = {abs(d) for d in report["vertex_determinants"].values()}
            assert len(dets) == 2 and dets - {1} <= {2, 3}, report
            failures = report["failures"]
        assert report["failures"] == failures
        message = "validation failure: invalid pair: " + "; ".join(failures) + "\n"
        for argv in (["cohomology", bad], ["chern", bad], ["chern", "--diagnostics", bad],
                     ["compare", bad, good], ["compare", good, bad]):
            assert run(capsys, *argv) == (2, "", message), argv
        seen += 1
    assert seen == 10


def test_matrix_of_the_wrong_shape_is_an_input_error(capsys, tmp_path):
    square = pairgen.polygon(4)
    good = write_json(tmp_path, "good.json", pair_body(square, HIRZEBRUCH_1_COLUMNS))
    wide = write_json(tmp_path, "wide.json", dict(
        pair_body(square, []), characteristic={"columns": [[1, 0]] * 5}))
    tall = write_json(tmp_path, "tall.json", dict(
        pair_body(square, []), characteristic={"columns": [[1, 0, 0]] * 4}))
    for bad, message in ((wide, "matrix is 2x5 but polytope has n=2, m=4"),
                         (tall, "matrix is 3x4 but polytope has n=2, m=4")):
        for argv in (["validate", bad], ["cohomology", bad], ["chern", bad],
                     ["compare", bad, good], ["compare", good, bad]):
            assert run(capsys, *argv) == (1, "", f"input error: {message}\n"), argv


def test_declared_shape_of_the_wrong_type_is_named(capsys, tmp_path):
    body = malformed("characteristic", "n", "2")
    code, _, err = run(capsys, "validate", write_json(tmp_path, "bad.json", body))
    assert code == 1
    assert "declared n must be an integer, not str" in err


def test_chern_diagnostics(capsys):
    code, out, _ = run(capsys, "chern", "corpus:cp1", "--diagnostics")
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == [[1]]
    assert data["basis"] is True
    assert data["contracted_classes"] == [[2]]
    code, out, _ = run(capsys, "chern", "corpus:cp1")
    assert "contracted_classes" not in json.loads(out)


def test_qprimary_default_and_explicit_coeffs(capsys):
    code, out, _ = run(capsys, "qprimary", "corpus:hp1-hopf")
    assert code == 0
    assert json.loads(out) == {"classes": [[1]], "base_dim": 4}
    code, out, _ = run(capsys, "qprimary", "corpus:hp1-hopf",
                       "--coeffs", "[[2, 0]]")
    assert json.loads(out)["classes"] == [[2]]


@pytest.mark.parametrize("command", ["qprimary", "compare"])
@pytest.mark.parametrize("coeffs", ["5", "null", "[[1.5, 0]]", "[[true, 0]]"])
def test_malformed_coeffs_are_an_input_error(capsys, command, coeffs):
    inputs = ["corpus:hp1-hopf"] * (2 if command == "compare" else 1)
    code, out, err = run(capsys, command, *inputs, "--coeffs", coeffs)
    assert code == 1 and not out
    assert err.startswith("input error:")


def test_compare_equivalent(capsys):
    code, out, _ = run(capsys, "compare", "corpus:hirzebruch-1",
                       "corpus:hirzebruch-1")
    assert code == 0
    data = json.loads(out)
    assert data["level"] == "equivalent"
    assert data["certificate"] is not None


def test_compare_inequivalent(capsys):
    code, out, _ = run(capsys, "compare", "corpus:hirzebruch-1",
                       "corpus:hirzebruch-2")
    assert code == 3
    assert json.loads(out)["level"] == "inequivalent"


def test_compare_budget_zero_is_a_budget_error(capsys):
    code, out, err = run(capsys, "compare", "corpus:hirzebruch-1",
                         "corpus:hirzebruch-2", "--budget", "0")
    assert code == 5 and not out
    assert "budget" in err


def test_compare_incomparable(capsys):
    code, out, _ = run(capsys, "compare", "corpus:cp2", "corpus:hirzebruch-1")
    assert code == 4
    assert json.loads(out)["level"] == "incomparable"


@pytest.mark.parametrize("first, second, m", [
    ("corpus:hirzebruch-1", "corpus:hirzebruch-2", 4),
    ("corpus:hp1-hopf", "corpus:hp1-hopf", 2)])
def test_compare_budget_below_m_keeps_its_message(capsys, first, second, m):
    code, out, err = run(capsys, "compare", first, second, "--budget", str(m - 1))
    assert (code, out) == (5, "")
    assert err == (f"budget exceeded: automorphism search limited to {m - 1} "
                   f"vertices, got {m}\n")


def test_compare_validates_before_the_budget(capsys, tmp_path):
    # a 13-gon is over the default bound of 12: a valid pair stops at the
    # budget, an invalid one is reported as invalid first
    cols = pairgen.polygon_columns(random.Random(13), 13)
    valid = dict(polygon(13), characteristic={"n": 2, "m": 13, "columns": cols})
    invalid = dict(polygon(13), characteristic={
        "n": 2, "m": 13, "columns": [[2 * x for x in cols[0]]] + cols[1:]})
    good = write_json(tmp_path, "good.json", valid)
    bad = write_json(tmp_path, "bad.json", invalid)
    code, out, err = run(capsys, "compare", good, good)
    assert (code, out) == (5, "") and err.startswith("budget exceeded: ")
    for first, second in ((bad, good), (good, bad), (bad, bad)):
        code, out, err = run(capsys, "compare", first, second)
        assert (code, out) == (2, ""), err
        assert err.startswith("validation failure: invalid pair: column of facet 1 ")


def test_compare_incomparable_with_equal_counts(capsys, tmp_path):
    # the 3-cube against the tetrahedron with two vertices cut off: both
    # have m = 6 facets, n = 3 and 8 vertices, but no isomorphism
    cube = {"polytope": {"m": 6, "n": 3,
                         "vertices": [sorted(v) for v in pairgen.cube(3).vertices]},
            "characteristic": {"n": 3, "m": 6, "columns": pairgen.staged_columns(
                random.Random(0), [1, 1, 1])}}
    cut = {"polytope": {"m": 6, "n": 3, "vertices": [
        [1, 3, 4], [2, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 5], [1, 2, 6],
        [1, 4, 6], [2, 4, 6]]},
        "characteristic": {"n": 3, "m": 6, "columns": [
            [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1], [0, 0, -1]]}}
    a, b = write_json(tmp_path, "a.json", cube), write_json(tmp_path, "b.json", cut)
    for first, second in ((a, b), (b, a)):
        code, out, err = run(capsys, "compare", first, second)
        assert code == 4, err
        assert json.loads(out) == {"level": "incomparable", "certificate": None,
                                   "bundle": {"equal_sublattice": False}}


def test_compare_quaternionic(capsys):
    code, out, _ = run(capsys, "compare", "corpus:hp1-hopf", "corpus:hp1-hopf",
                       "--coeffs", "[[1, 0]]", "--coeffs2", "[[2, 0]]")
    assert code == 3
    code, out, _ = run(capsys, "compare", "corpus:hp2", "corpus:hp2")
    assert code == 0
    assert json.loads(out)["level"] == "primary-equivalent"


def test_compare_certificate_over_relabeled_polytope(capsys, tmp_path):
    # the Hirzebruch-1 pair with facets 2 and 3 swapped
    relabeled = {
        "polytope": {"m": 4, "n": 2, "vertices": [[1, 3], [3, 2], [2, 4], [4, 1]]},
        "characteristic": {"n": 2, "m": 4,
                           "columns": [[1, 0], [-1, 1], [0, 1], [0, -1]]},
    }
    first = write_json(tmp_path, "h1.json", HIRZEBRUCH_1)
    second = write_json(tmp_path, "h1-relabeled.json", relabeled)
    code, out, _ = run(capsys, "compare", first, second)
    assert code == 0
    cert = json.loads(out)["certificate"]
    sigma, delta, signs = cert["sigma"], cert["delta"], cert["signs"]
    targets = {frozenset(v) for v in relabeled["polytope"]["vertices"]}
    for v in HIRZEBRUCH_1["polytope"]["vertices"]:
        assert frozenset(sigma[i - 1] for i in v) in targets
    cols1 = HIRZEBRUCH_1["characteristic"]["columns"]
    cols2 = relabeled["characteristic"]["columns"]
    for i, col in enumerate(cols1):
        image = [signs[i] * sum(d * x for d, x in zip(row, col)) for row in delta]
        assert image == cols2[sigma[i] - 1]


def test_compare_quaternionic_large_universe(capsys, tmp_path):
    # a universe of 20 coordinates is matched without a relabeling search
    def pair(labels):
        return {"polytope": {"m": 2, "n": 1, "vertices": [[1], [2]]},
                "functor": {"n_act": 20, "labels": labels}}
    first = write_json(tmp_path, "q1.json", pair([[1, 2, 3], [4, 5]]))
    second = write_json(tmp_path, "q2.json", pair([[20, 7], [9, 1, 13]]))
    code, out, _ = run(capsys, "compare", first, second)
    assert code == 0
    assert json.loads(out)["bundle"]["functors_match"] is True


@pytest.mark.parametrize("m", range(3, 13))
def test_compare_quaternionic_simplex_ladder(capsys, tmp_path, m):
    # over the boundary of the (m-1)-simplex, inside the default budget
    def functor(name, labels):
        vertices = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
        return write_json(tmp_path, name, {
            "polytope": {"m": m, "n": m - 1, "vertices": vertices},
            "functor": {"n_act": m + 1, "labels": labels}})

    def compare(first, second):
        code, out, _ = run(capsys, "compare", first, second)
        return code, json.loads(out)["bundle"]["functors_match"]

    singles = functor("singles.json", [[i] for i in range(1, m + 1)])
    wide_first = functor("first.json", [[1, m + 1]] + [[i] for i in range(2, m + 1)])
    wide_last = functor("last.json", [[i] for i in range(1, m)] + [[m, m + 1]])
    shifted = functor("shifted.json", [[i % m + 1] for i in range(1, m + 1)])
    assert compare(singles, shifted) == (0, True)
    assert compare(wide_first, singles) == (3, False)
    assert compare(wide_first, wide_last) == (0, True)


def recorded(monkeypatch, modules, name):
    """Calls to `name` through each module's own binding, as argument tuples."""
    calls = []
    for module in modules:
        def record(*args, fn=getattr(module, name), **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, record)
    return calls


def quaternionic_body(m, n, vertices, n_act, labels):
    return {"polytope": {"m": m, "n": n, "vertices": vertices},
            "functor": {"n_act": n_act, "labels": labels}}


def test_compare_validates_each_functor_once(capsys, tmp_path, monkeypatch):
    calls = recorded(monkeypatch, (charpair, bundles, classify),
                     "validate_quaternionic_functor")
    triangle = [[1, 2], [2, 3], [1, 3]]
    simplex = [[j for j in range(1, 7) if j != i] for i in range(1, 7)]
    singles = write_json(tmp_path, "singles.json",
                         quaternionic_body(6, 5, simplex, 7, [[i] for i in range(1, 7)]))
    wide = write_json(tmp_path, "wide.json", quaternionic_body(
        6, 5, simplex, 7, [[1, 7]] + [[i] for i in range(2, 7)]))
    t1 = write_json(tmp_path, "t1.json", quaternionic_body(3, 2, triangle, 3, [[1], [2], [3]]))
    t2 = write_json(tmp_path, "t2.json", quaternionic_body(3, 2, triangle, 4, [[4], [2], [3]]))
    for argv, code in [(["corpus:hp1-hopf", "corpus:hp1-hopf", "--coeffs", "[[1, 0]]",
                         "--coeffs2", "[[2, 0]]"], 3),
                       (["corpus:hp2", "corpus:hp2"], 0), ([singles, wide], 3),
                       ([wide, singles], 3), ([t1, t2], 3), (["corpus:hp1-hopf", t1], 4)]:
        calls.clear()
        assert run(capsys, "compare", *argv)[0] == code, argv
        first, second = (cli.load_input(path) for path in argv[:2])
        assert [(p.facet_count, sorted(map(sorted, f.facet_labels))) for p, f in calls] == [
            (obj["polytope"]["m"], sorted(map(sorted, obj["functor"]["labels"])))
            for obj in (first, second)], argv


def test_compare_reports_the_first_invalid_functor_first(capsys, tmp_path):
    # the first functor is validated, and its tuple made, before the second is validated
    triangle = [[1, 2], [2, 3], [1, 3]]
    square = [[1, 2], [2, 3], [3, 4], [1, 4]]
    bad1 = write_json(tmp_path, "bad1.json", quaternionic_body(2, 1, [[1], [2]], 2, [[1], [1]]))
    bad2 = write_json(tmp_path, "bad2.json",
                      quaternionic_body(3, 2, triangle, 3, [[1], [1], [2]]))
    good2 = write_json(tmp_path, "good2.json",
                       quaternionic_body(3, 2, triangle, 3, [[1], [2], [3]]))
    unsupported = write_json(tmp_path, "square.json",
                             quaternionic_body(4, 2, square, 4, [[1], [2], [3], [4]]))
    one = ("validation failure: invalid functor: "
           "faces [1] and [2] share the isotropy class ((1,),)\n")
    three = ("validation failure: invalid functor: faces [1] and [2] share the isotropy "
             "class ((1,),); labels of facets [1, 2] overlap: rank 1 < 2; faces [1, 3] and "
             "[2, 3] share the isotropy class ((1,), (2,))\n")
    for first, second, want in [(bad1, bad2, one), (bad2, bad1, three),
                                ("corpus:hp1-hopf", bad2, three), (good2, bad2, three),
                                (bad2, good2, three), ("corpus:hp2", bad1, one)]:
        assert run(capsys, "compare", first, second) == (2, "", want), (first, second)
    # a valid first functor over a base with no presentation fails before the second
    unsupported_base = ("validation failure: no degree-4 presentation for this base; a "
                        "combinatorial class formula is not available, supply one explicitly\n")
    assert run(capsys, "compare", unsupported, bad1) == (2, "", unsupported_base)
    assert run(capsys, "compare", bad1, unsupported) == (2, "", one)


def solve_counts(monkeypatch):
    """det and Smith-form calls, each tagged with whether a pair was being
    solved (inside `charpair.solved_form`) when it was made."""
    inside = [False]
    calls = []

    def solving(*args, fn=charpair.solved_form):
        inside[0] = True
        try:
            return fn(*args)
        finally:
            inside[0] = False
    for module in (classify, cohomology, bundles):
        monkeypatch.setattr(module, "solved_form", solving)
    for name in ("det", "smith_normal_form"):
        def record(*args, fn=getattr(intlat, name), name=name, **kwargs):
            calls.append((name, inside[0]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(intlat, name, record)
    return calls


def test_valid_pairs_are_solved_without_determinants_or_smith_forms(
        capsys, tmp_path, monkeypatch):
    calls = solve_counts(monkeypatch)
    paths = [write_json(tmp_path, f"pair{k}.json", pair_body(p, [lam.column(i) for i in
                                                                 range(1, lam.m + 1)]))
             for k, (p, lam) in enumerate(pairgen.seeded_pairs())]
    for path in paths + ["corpus:hirzebruch-1", "corpus:cp1-cubed"]:
        for argv in (["cohomology", path], ["chern", path], ["chern", "--diagnostics", path],
                     ["compare", path, path]):
            calls.clear()
            assert run(capsys, *argv)[0] == 0, argv
            assert ("det", True) not in calls and ("smith_normal_form", True) not in calls
            assert ("det", False) not in calls, argv
            if argv[0] == "chern":  # the kernel basis keeps its one Smith form
                assert calls == [("smith_normal_form", False)], argv
            if argv[0] == "compare":
                assert calls == [], argv
    # an invalid pair still builds the report, whose vertex determinants word it
    bad = write_json(tmp_path, "bad.json",
                     pair_body(pairgen.polygon(4), [[2, 0], [0, 1], [-1, 1], [0, -1]]))
    calls.clear()
    assert run(capsys, "cohomology", bad)[0] == 2
    assert ("det", True) in calls


def pair_body(poly, cols):
    return {"polytope": {"m": poly.facet_count, "n": poly.dim,
                         "vertices": [sorted(v) for v in poly.vertices]},
            "characteristic": {"n": poly.dim, "m": poly.facet_count, "columns": cols}}


def assert_certificate_carries(out, cols1, cols2):
    cert = json.loads(out)["certificate"]
    lam = cli.parse_characteristic({"columns": cols1})
    applied = classify.EquivalenceCertificate(
        cert["delta"], tuple(cert["sigma"]), tuple(cert["signs"])).apply(lam)
    assert applied.rows() == cli.parse_characteristic({"columns": cols2}).rows()


def cube_pair_files(tmp_path, n, seed, equivalent, twist=2):
    """A Bott tower over the n-cube and a disguised copy of it, or of a
    tower with a different |minor| multiset; twist=0 is the untwisted
    tower, the product of projective lines."""
    def minors(cols):
        return sorted(abs(intlat.det([[c[r] for c in sub] for r in range(n)]))
                      for sub in combinations(cols, n))

    rng = random.Random(seed)
    p = pairgen.cube(n)
    first = pairgen.staged_columns(rng, [1] * n, twist)
    second = first
    while not equivalent and minors(second) == minors(first):
        second = pairgen.staged_columns(rng, [1] * n, twist)
    q, lam2 = pairgen.disguise(rng, p, second)
    cols2 = [lam2.column(i) for i in range(1, lam2.m + 1)]
    return (write_json(tmp_path, "a.json", pair_body(p, first)),
            write_json(tmp_path, "b.json", pair_body(q, cols2)), first, cols2)


@pytest.mark.parametrize("n", [5, 6])
def test_compare_cubes_inside_the_default_budget(capsys, tmp_path, n):
    # the 6-cube (m = 12, |Aut| = 46 080) is the largest input the default
    # bound admits; listing Aut takes about 5 s per pair there, so the
    # suite's time shows a verdict that falls back to listing it
    a, b, _, _ = cube_pair_files(tmp_path, n, 1, equivalent=False)
    code, out, err = run(capsys, "compare", a, b)
    assert code == 3, err
    assert json.loads(out)["level"] == "inequivalent"
    for seed, twist in ((2, 2), (3, 0)):
        a, b, cols1, cols2 = cube_pair_files(tmp_path, n, seed, True, twist)
        for second, target in ((b, cols2), (a, cols1)):
            code, out, err = run(capsys, "compare", a, second)
            assert code == 0, err
            assert_certificate_carries(out, cols1, target)


@pytest.mark.parametrize("dims", [[3, 3, 3], [2, 2, 2, 2]])
def test_compare_simplex_product_towers_inside_the_default_budget(capsys, tmp_path, dims):
    # generalized Bott towers over m = 12 simplex products, where every two
    # facets are adjacent: even trials against an independent tower, odd
    # ones against a copy, each disguised
    rng = random.Random(str(dims))
    p = pairgen.simplex_product(dims)
    for trial in range(6):
        cols = pairgen.staged_columns(rng, dims, twist=1)
        other = cols if trial % 2 else pairgen.staged_columns(rng, dims, twist=1)
        q, lam2 = pairgen.disguise(rng, p, other)
        cols2 = [lam2.column(i) for i in range(1, lam2.m + 1)]
        a = write_json(tmp_path, "a.json", pair_body(p, cols))
        b = write_json(tmp_path, "b.json", pair_body(q, cols2))
        code, out, err = run(capsys, "compare", a, b)
        assert code == (0 if trial % 2 else 3), (trial, err)
        if trial % 2:
            assert_certificate_carries(out, cols, cols2)
        else:
            assert json.loads(out)["level"] == "inequivalent"


def test_compare_mixed_flavors(capsys):
    code, _, err = run(capsys, "compare", "corpus:cp1", "corpus:hp1-hopf")
    assert code == 4
    assert "incomparable" in err


def test_json_output_deterministic(capsys):
    _, first, _ = run(capsys, "cohomology", "corpus:cp2")
    _, second, _ = run(capsys, "cohomology", "corpus:cp2")
    assert first == second


def test_text_format(capsys):
    code, out, _ = run(capsys, "homology", "corpus:cp1", "--format", "text")
    assert code == 0
    assert "euler_characteristic: 0" in out


def fresh(code, *argv):
    """Run `code` with `argv` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, check=False)


def alone(*argv):
    # one `main` call in a fresh interpreter: the parser is built for it alone
    proc = fresh("import sys; from momang import cli; sys.exit(cli.main(sys.argv[1:]))",
                 *argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_import_loads_no_code_generation_modules():
    # dataclasses and the modules it loads (inspect, ast, dis) cost a
    # third of a start-up; nothing in momang needs them
    proc = fresh("import sys, momang, momang.cli; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "momang.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis"})


def test_parser_is_built_once_and_shared():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_leaves_no_state_for_the_next_call(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "a.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["compare", "corpus:hirzebruch-1", "corpus:hirzebruch-2"]
    assert run(capsys, *argv) == alone(*argv)


def test_flavor_flag_does_not_carry_to_the_next_call(capsys, tmp_path):
    obj = {"m": 2, "maximal_faces": [[1], [2]], "flavor": "complex"}
    path = write_json(tmp_path, "k.json", obj)
    code, out, _ = run(capsys, "homology", "--flavor", "quaternionic", path)
    assert code == 0 and json.loads(out)["flavor"] == "quaternionic"
    code, out, err = run(capsys, "homology", path)
    assert (code, out, err) == alone("homology", path)
    assert json.loads(out)["flavor"] == "complex"


def test_budget_flag_does_not_carry_to_the_next_call(capsys):
    argv = ["compare", "corpus:hirzebruch-1", "corpus:hirzebruch-2"]
    code, _, _ = run(capsys, *argv, "--budget", "0")
    assert code == 5
    assert cli.build_parser().parse_args(argv).budget == DEFAULT_SEARCH_BOUND
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == alone(*argv)
    assert code == 3
