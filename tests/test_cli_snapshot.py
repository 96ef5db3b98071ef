"""Replay of recorded CLI runs over the bundled corpus.

`tests/data/cli_corpus.json` holds the exit code, standard output and
standard error of 160 in-process `cli.main` calls: `validate`, `homology`
in both flavours, `cohomology`, `chern` and `qprimary` on each corpus
entry, and `compare` on every ordered pair of entries.  A change that is
meant to alter one of these outputs rewrites the file with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import contextlib
import io
import json
import os

from momang import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cli_corpus.json")


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


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        json.dump([run(argv) for argv in corpus_argvs()], fh, indent=1)
        fh.write("\n")
