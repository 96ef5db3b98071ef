"""Benchmark of momang: three seeded workloads whose answers are checked by
computations made apart from the program.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
The workload seed only shapes the generated JSON inputs.  One worker
process with one thread calls `momang.cli.main(argv)` in a closed loop,
pass after pass over the fixed operation list, until `--seconds` have gone
by.  With `--trace 0` the last line of standard output is the end-to-end
result; with `--trace 1` the worker wraps the layer functions (spans.py)
and the last line carries the per-layer totals of one pass.  Results and
spans are also written under `.perfbench_out/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import gen
from checks import FAILED, check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 6          # fresh interpreters before and again after the passes
WORKER_TIMEOUT = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}
# per-layer metrics: <span>.<s|self_s|calls|raised> from the span totals,
# anything else from the counters in spans.COUNTERS
PER_LAYER = [
    "moment_angle.build_cell_model.s", "moment_angle.homology.s",
    "moment_angle.cells", "moment_angle.boundary_entries",
    "intlat.smith_normal_form.s", "intlat.smith_normal_form.calls",
    "intlat.smith_normal_form.entries", "intlat.invariant_factors.s",
    "intlat.rank.calls",
    "cohomology.component.s", "cohomology.component.builds",
    "cohomology.component.monomials", "cohomology.component.raised",
    "cohomology.total_chern_class.s",
    "intlat.det.s", "intlat.det.calls",
    "intlat.inverse_unimodular.s", "intlat.inverse_unimodular.calls",
    "combinatorics.isomorphisms.s", "combinatorics.isomorphisms.calls",
    "combinatorics.isomorphisms.found",
    "classify.rigidity_verdict_complex.s", "classify.rigidity_verdict_complex.self_s",
    "classify.certificate_search.s", "classify.certificate_search.calls",
    "classify.rigidity_verdict_quaternionic.s", "classify.functors_match.s",
    "charpair.validate_characteristic_pair.s",
    "charpair.validate_characteristic_pair.calls",
    "charpair.validate_quaternionic_functor.calls",
    "intlat.maximal_minor_gcd.s", "intlat.maximal_minor_gcd.calls",
    "combinatorics.face_poset.s",
    "bundles.kernel_chern_classes.s", "bundles.kernel_chern_classes.calls",
    "cohomology.quasitoric_presentation.s", "cohomology.quasitoric_presentation.calls",
    "intlat.solve_integer.s", "intlat.solve_integer.calls",
    "cli.main.self_s", "cli.build_parser.s",
    "combinatorics.simple_polytope.s", "combinatorics.minimal_non_faces.s",
    "trace.wall_s",
]
SPAN_FIELDS = {"calls": 0, "builds": 0, "raised": 1, "s": 2, "self_s": 3}


def setup_times(starts):
    """Seconds to import momang and load its corpus, in each of `starts`
    fresh interpreters."""
    times = []
    for _ in range(starts):
        done = subprocess.run([sys.executable, WORKER, "setup", ROOT],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def layer_value(name, layer):
    """Value of one per-layer metric in one pass's totals."""
    span, _, field = name.rpartition(".")
    if field in SPAN_FIELDS:
        st = layer["stats"].get(span, [0, 0, 0, 0])
        value = st[SPAN_FIELDS[field]]
        return value / 1e9 if field in ("s", "self_s") else value
    return layer["counts"].get(name, 0)


def layer_metrics(result, problems):
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.wall_s":
            metrics[name] = {"value": statistics.median(
                p["wall_s"] for p in result["passes"]), "unit": "s"}
            continue
        values = [layer_value(name, layer) for layer in result["layers"]]
        timed = name.endswith((".s", ".self_s"))
        if not timed and len(set(values)) != 1:
            problems.append(f"{name} differs between passes: {values}")
        metrics[name] = {"value": statistics.median(values) if timed else values[0],
                         "unit": "s" if timed else "count"}
    return metrics


def op_means(passes):
    """Mean latency in ms of each operation over the passes.  A shared host
    may switch between a fast and a slow speed (on a 2-vCPU VM the same call
    took 13 or 19 ms); a mean weighs the two by the time spent in each, while
    a median over single calls jumps to whichever held for just over half."""
    return [statistics.fmean(p["op_ms"][i] for p in passes)
            for i in range(len(passes[0]["op_ms"]))]


def end_to_end_metrics(result, setup_s):
    passes = result["passes"]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_ms": statistics.median(op_means(passes)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def write_inputs(ops, run_dir):
    """Input files for every operation; returns the argv lists."""
    os.makedirs(run_dir)
    argvs = []
    for i, o in enumerate(ops):
        paths = []
        for k, obj in enumerate(o["inputs"]):
            path = os.path.join(run_dir, f"{i:03d}-{k}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            paths.append(path)
        argvs.append([o["cmd"]] + paths + o["flags"])
    return argvs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "momang", "__init__.py")):
        print(f"no program at {ROOT}/src/momang; run from a full checkout",
              file=sys.stderr)
        return 2

    ops = gen.build(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    try:
        argvs = write_inputs(ops, run_dir)
        ops_path = os.path.join(run_dir, "ops.json")
        with open(ops_path, "w") as fh:
            json.dump(argvs, fh)
        if not args.trace:
            # the first start may compile bytecode and is not counted; the
            # starts before and after the passes see the host at two times
            setup = setup_times(SETUP_STARTS + 1)[1:]
        out_path = os.path.join(run_dir, "result.json")
        subprocess.run([sys.executable, WORKER, "run", ROOT, ops_path,
                        str(args.seconds), str(args.trace), out_path],
                       cwd=ROOT, timeout=WORKER_TIMEOUT, check=True)
        with open(out_path) as fh:
            result = json.load(fh)
        if not args.trace:
            setup += setup_times(SETUP_STARTS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = []
    failed_ops = 0
    for o, (code, out, err) in zip(ops, result["answers"]):
        verdict = check(o["expect"], code, out, err)
        if verdict == FAILED:
            failed_ops += 1
        elif verdict is not None:
            problems.append(f"{o['name']}: {verdict}")
    if not result["consistent"]:
        problems.append("answers differ between passes")
    if args.trace:
        metrics = layer_metrics(result, problems)
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as fh:
            json.dump({"ops": [o["name"] for o in ops], "layers": result["layers"],
                       "spans": result["spans"],
                       "spans_dropped": result["spans_dropped"]}, fh)
    else:
        metrics = end_to_end_metrics(result, statistics.median(setup))
    passes = len(result["passes"])
    report = {"correct": not problems, "attempted": len(ops) * passes,
              "failed": failed_ops * passes, "metrics": metrics}
    op_ms = {o["name"]: ms for o, ms in zip(ops, op_means(result["passes"]))}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(report, problems=problems, op_ms=op_ms,
                       pass_wall_s=[p["wall_s"] for p in result["passes"]]),
                  fh, indent=1)
    for line in problems[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
