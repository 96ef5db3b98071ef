"""Replay of recorded CLI runs over the bundled corpus.

`tests/data/cli_corpus.json` holds the exit code, standard output and
standard error of 160 in-process `cli.main` calls: `validate`, `homology`
in both flavours, `cohomology`, `chern` and `qprimary` on each corpus
entry, and `compare` on every ordered pair of entries.
`tests/data/cli_cohomology_residual.json` holds the same for `cohomology`
on pairs whose graded components leave rows that no +-1 pivot reduces
(`residual_inputs`).  A change that is meant to alter one of these
outputs rewrites both files with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import contextlib
import io
import json
import os
import random

import pairgen
from momang import cli, intlat
from test_cohomology import HEXAGON, blown_up_polygon

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "cli_corpus.json")
RESIDUAL = os.path.join(HERE, "data", "cli_cohomology_residual.json")


def corpus_argvs():
    names = [f"corpus:{e['name']}" for e in cli.load_corpus()]
    argvs = []
    for name in names:
        argvs += [["validate", name],
                  ["homology", name, "--flavor", "complex"],
                  ["homology", name, "--flavor", "quaternionic"],
                  ["cohomology", name], ["chern", name], ["qprimary", name]]
    argvs += [["compare", a, b] for a in names for b in names]
    return argvs


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_corpus_outputs_match_the_recording():
    with open(DATA) as fh:
        recorded = json.load(fh)
    assert [r["argv"] for r in recorded] == corpus_argvs()
    for want in recorded:
        assert run(want["argv"]) == want, " ".join(want["argv"])


def pair_body(p, cols):
    return {"polytope": {"m": p.facet_count, "n": p.dim,
                         "vertices": [sorted(v) for v in p.vertices]},
            "characteristic": {"n": p.dim, "m": p.facet_count, "columns": cols}}


def residual_inputs():
    """Named pairs whose graded components leave rows for a Smith form: the
    hexagon; blown-up polygons drawn as in
    `test_blown_up_polygons_have_unimodular_bases`, with a residual in
    degree 4; the seeded pairs with a residual; and disguised Delta^2 x
    Delta^2 towers.  Seeded pair 11 and towers 2 and 5 are those on which
    a greedy basis walk, with no backing up, meets a dead end in degree 6."""
    inputs = [("hexagon", pair_body(pairgen.polygon(6), HEXAGON))]
    rng = random.Random(2024)
    for trial in range(60):
        m = 5 + trial % 4
        cols = blown_up_polygon(rng, m)
        if trial in (0, 7, 19, 27, 38, 59):
            inputs.append((f"blown-up {m}-gon, trial {trial}",
                           pair_body(pairgen.polygon(m), cols)))
    for k, (p, lam) in enumerate(pairgen.seeded_pairs()):
        if k in (5, 7, 9, 11, 18, 20):
            inputs.append((f"seeded pair {k}", pair_body(
                p, [lam.column(i) for i in range(1, lam.m + 1)])))
    rng = random.Random(22)
    p = pairgen.simplex_product([2, 2])
    for k in range(16):
        q, lam = pairgen.disguise(rng, p, pairgen.staged_columns(rng, [2, 2]))
        if k in (2, 4, 5, 6, 15):
            inputs.append((f"disguised d2xd2 tower {k}", pair_body(
                q, [lam.column(i) for i in range(1, lam.m + 1)])))
    return inputs


def run_cohomology(directory, body):
    path = os.path.join(directory, "pair.json")
    with open(path, "w") as fh:
        json.dump(body, fh)
    record = run(["cohomology", path])
    del record["argv"]
    return record


def test_residual_cohomology_outputs_match_the_recording(tmp_path, monkeypatch):
    left = []

    def pivots(rows, fn=intlat.unit_pivots):
        found = fn(rows)
        left.append(bool(found[1]))
        return found

    monkeypatch.setattr(intlat, "unit_pivots", pivots)
    with open(RESIDUAL) as fh:
        recorded = json.load(fh)
    assert [(r["name"], r["input"]) for r in recorded] == residual_inputs()
    for want in recorded:
        left.clear()
        got = run_cohomology(str(tmp_path), want["input"])
        assert got == {k: want[k] for k in ("code", "stdout", "stderr")}, want["name"]
        assert any(left), want["name"]


if __name__ == "__main__":
    import tempfile

    with open(DATA, "w") as fh:
        json.dump([run(argv) for argv in corpus_argvs()], fh, indent=1)
        fh.write("\n")
    with tempfile.TemporaryDirectory() as tmp, open(RESIDUAL, "w") as fh:
        json.dump([dict(name=name, input=body, **run_cohomology(tmp, body))
                   for name, body in residual_inputs()], fh, indent=1)
        fh.write("\n")
