"""One workload's closed loop, run by run.py in a process of its own.

A single client runs the op list in order, each `hesspave.cli.main(argv)`
call starting after the previous one returns, and repeats the list (one
pass) until `--seconds` have gone by and at least MIN_SAMPLES ops were timed,
always finishing the pass it is in, so every op weighs the same in the
pooled latencies.
Each op is timed around `cli.main` alone, on the wall clock and on the
thread's CPU clock, and its output is checked after the clocks stop.  The
workload's reference loop (reference.py) is timed on the CPU clock before the
first op and after every op; an op's record carries the mean of the two
around it.  Every record goes to stdout as one JSON line; a "start" line
before each op lets run.py tell which op was running if this process dies.

With `--trace 1` the passes alternate untraced and traced, so the tracing
overhead is measured on the same ops; a traced pass ends with a "trace" line
holding its span totals and counters.

With `--probe` the process only imports `hesspave.cli` and builds the op
list, and prints how much CPU time that took: the set-up every CLI user
pays.  The `python` reference loop is timed just before and just after.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from time import perf_counter, thread_time

import reference
import workloads

MIN_SAMPLES = 110  # so that at least 10 timed ops lie beyond p90
MAX_RUN_S = 120.0


def probe(workload: str, seed: int) -> dict:
    reference.time_loop("python")  # warm-up
    ref_before = reference.time_loop("python")
    c0 = thread_time()
    import hesspave.cli  # noqa: F401

    workloads.build_ops(workload, seed)
    setup_s = thread_time() - c0
    ref = (ref_before + reference.time_loop("python")) / 2
    import numpy

    return {"setup_s": setup_s, "ref": ref, "numpy": numpy.__version__,
            "hesspave": sys.modules["hesspave"].__file__}


def run_op(main, argv: list[str]) -> tuple[object, float, float, str]:
    """(exit code or failure text, wall and CPU seconds inside cli.main, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        c0 = thread_time()
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        except MemoryError:
            code = "raised MemoryError"
        except Exception as e:  # a crash is a failed op, and the loop goes on
            code = f"raised {type(e).__name__}: {e}"
        cpu = thread_time() - c0
        seconds = perf_counter() - t0
    return code, seconds, cpu, out.getvalue()


def trace_record(tracer, pass_s: float) -> dict:
    return {
        "pass_s": pass_s,
        "root_s": tracer.root_s,
        "stats": {k: [v.calls, v.total, v.self] for k, v in tracer.stats.items()},
        "counts": dict(tracer.counts),
    }


def loop(args) -> None:
    import hesspave.cli as cli

    ops = workloads.build_ops(args.workload, args.seed)
    digests = workloads.load_digests()
    emit = sys.stdout
    t_start = perf_counter()
    samples = 0
    p, i = args.start_pass, args.start_op
    kind = workloads.REFERENCE[args.workload]
    reference.time_loop(kind)  # warm-up
    ref_before = reference.time_loop(kind)
    while True:
        tracer = None
        if args.trace and p % 2 == 1:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        pass_s = 0.0
        try:
            for i in range(i, len(ops)):
                op = ops[i]
                print(json.dumps({"start": [p, i]}), file=emit, flush=True)
                code, seconds, cpu, out = run_op(cli.main, op["argv"])
                if isinstance(code, str):
                    fail, wrong, work = code, False, 0
                else:
                    fail, work = workloads.check_output(op, code, out, digests)
                    wrong = fail is not None
                pass_s += seconds
                samples += 1
                ref_after = reference.time_loop(kind)
                rec = {"pass": p, "op": i, "s": seconds, "cpu": cpu,
                       "ref": (ref_before + ref_after) / 2, "fail": fail, "wrong": wrong,
                       "work": work, "out_bytes": len(out.encode())}
                ref_before = ref_after
                print(json.dumps(rec), file=emit, flush=True)
                if perf_counter() - t_start >= MAX_RUN_S:
                    return
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None and args.start_op == 0:
            print(json.dumps({"trace": trace_record(tracer, pass_s), "pass": p}),
                  file=emit, flush=True)
        p, i, args.start_op = p + 1, 0, 0
        # A traced run needs one untraced and one traced pass.
        if (perf_counter() - t_start >= args.seconds and samples >= MIN_SAMPLES
                and (not args.trace or p >= 2)):
            return


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--start-pass", type=int, default=0)
    ap.add_argument("--start-op", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps(probe(args.workload, args.seed)))
    else:
        loop(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
