import json

import pytest

from momang import cli


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
    obj = {"m": 11, "maximal_faces": [[i] for i in range(1, 12)]}
    path = write_json(tmp_path, "big.json", obj)
    code, _, err = run(capsys, "homology", path)
    assert code == 5
    assert "budget" in err


def test_homology_quaternionic_flavor(capsys):
    code, out, _ = run(capsys, "homology", "corpus:hp1-hopf",
                       "--flavor", "quaternionic")
    assert code == 0
    data = json.loads(out)
    ranks = {d["k"]: d["rank"] for d in data["degrees"]}
    assert ranks[0] == 1 and ranks[7] == 1
    assert sum(ranks.values()) == 2


def test_cohomology_output(capsys, tmp_path):
    path = write_json(tmp_path, "h1.json", HIRZEBRUCH_1)
    code, out, _ = run(capsys, "cohomology", path)
    assert code == 0
    data = json.loads(out)
    ranks = [d["rank"] for d in data["degrees"]]
    assert ranks == [1, 2, 1]
    assert "total_class" in data


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


def test_compare_incomparable(capsys):
    code, out, _ = run(capsys, "compare", "corpus:cp2", "corpus:hirzebruch-1")
    assert code == 4
    assert json.loads(out)["level"] == "incomparable"


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
