"""Child process of run.py: runs one workload against the program in src/.

    python3 perfbench/worker.py setup ROOT
        prints the seconds from the first line of this file until momang is
        imported and its bundled corpus is loaded.
    python3 perfbench/worker.py run ROOT OPS_JSON SECONDS TRACE OUT_JSON
        runs whole passes over the operation list, in this one process and
        thread, each operation one `momang.cli.main(argv)` call, as many
        passes as fit in SECONDS (at least one); writes timings, the first
        pass's answers and (with TRACE 1) per-pass layer totals and spans
        to OUT_JSON.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402  (timed from T0 in setup mode)


def import_program(root):
    sys.path.insert(0, f"{root}/src")
    import momang
    import momang.cli
    if not momang.__file__.startswith(f"{root}/src/"):
        raise SystemExit(f"momang imported from {momang.__file__}, not {root}/src")
    return momang


def setup(root):
    momang = import_program(root)
    momang.cli.load_corpus()
    print(time.perf_counter() - T0)


def call(cli, argv):
    """One operation: exit code, stdout, stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a wrong answer, not a crash
            code = None
            traceback.print_exc(file=err)
    took = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), took


def run(root, ops_path, seconds, traced, out_path):
    momang = import_program(root)
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer = None
    if traced:
        from spans import Tracer, install
        tracer = Tracer(per_op=2000)
        install(tracer, momang)
    call(momang.cli, ["examples"])          # lazy set-up outside the timing
    if tracer:
        tracer.reset()
        tracer.spans.clear()
    answers, passes, layers = [], [], []
    consistent = True
    begin = time.perf_counter()
    while True:
        op_ms = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, argv in enumerate(ops):
            if tracer:
                tracer.start_op(i)
            code, out, err, took = call(momang.cli, argv)
            op_ms.append(took * 1000)
            if not passes:
                answers.append([code, out, err])
            elif answers[i] != [code, out, err]:
                consistent = False
        passes.append({"wall_s": time.perf_counter() - wall0,
                       "cpu_s": time.process_time() - cpu0, "op_ms": op_ms})
        if tracer:
            layers.append(tracer.snapshot())
            tracer.recording = False
        # another pass only if it should end within the measuring time
        if time.perf_counter() - begin + passes[-1]["wall_s"] > seconds:
            break
    result = {"passes": passes, "answers": answers, "consistent": consistent,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result.update(layers=layers, spans=tracer.spans, spans_dropped=tracer.dropped)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        # imported only here, so that setup mode times momang's own imports
        import contextlib
        import io
        import json
        import resource
        import traceback
        root, ops_path, seconds, traced, out_path = sys.argv[2:7]
        run(root, ops_path, float(seconds), traced == "1", out_path)
