"""hesspave benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload poincare --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program under test is the
`hesspave` package in `src/`.  The workload runs in a worker process of its
own (worker.py) under an address-space cap, single-threaded, with
HESSPAVE_WORKERS unset, the hash seed fixed and the BLAS/OpenMP thread counts
pinned to 1.  If the worker dies (say, killed for memory), the op it was
running counts as failed and a new worker carries on from the next op.

Set-up time is measured first, in SETUP_PROBES fresh processes after one
warm-up that fills the bytecode cache, and reported as their median.  The
end-to-end times are CPU times rescaled by a reference loop timed around
each op and each probe (reference.py); the unscaled medians are printed too.

stdout: one line recording the environment, a table of every metric with its
unit, and last a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter as _now

import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
AS_CAP_BYTES = 2 << 30
RUN_DEADLINE_S = 160.0  # workers are killed after this, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HESSPAVE_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def measure_setup(args, env) -> tuple[list[tuple[float, float]], dict]:
    """(set-up CPU seconds, `python` reference loop seconds) of each probe, and
    the last probe's report."""
    times, info = [], {}
    for k in range(SETUP_PROBES + 1):
        res = subprocess.run(worker_cmd(args, "--probe"), env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        info = json.loads(res.stdout)
        if k:
            times.append((info["setup_s"], info["ref"]))
    if not Path(info["hesspave"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hesspave from {info['hesspave']}, not from {SRC}")
    return times, info


def run_workload(args, env, deadline_s: float) -> list[dict]:
    """Every record the workers wrote; restarts a worker that dies mid-pass."""
    records: list[dict] = []
    start = [0, 0]
    t0 = _now()
    while True:
        remaining = max(args.seconds - (_now() - t0), 0.0)
        cmd = worker_cmd(args, "--seconds", str(remaining), "--trace", str(args.trace),
                         "--start-pass", str(start[0]), "--start-op", str(start[1]))
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                preexec_fn=cap_address_space)
        watchdog = threading.Timer(max(deadline_s - (_now() - t0), 1.0), proc.kill)
        watchdog.start()
        running = None
        try:
            for line in proc.stdout:
                rec = json.loads(line)
                if "start" in rec:
                    running = rec["start"]
                else:
                    records.append(rec)
                    if "op" in rec:
                        running = None
        finally:
            proc.stdout.close()
            proc.wait()
            watchdog.cancel()
        if proc.returncode == 0:
            return records
        if running is None:
            raise RuntimeError(f"worker exited with code {proc.returncode} between ops")
        p, i = running
        records.append({"pass": p, "op": i, "s": None, "cpu": None, "ref": None,
                        "wrong": False, "work": 0,
                        "out_bytes": 0, "fail": f"worker died with code {proc.returncode}"})
        if _now() - t0 >= deadline_s:
            return records
        start = [p, i + 1]


def environment(args, probe_info: dict) -> dict:
    try:  # a plain checkout has no .git, and the machine may have no git at all
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hesspave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": probe_info["numpy"], "nproc": os.cpu_count(), "cpu": cpu or platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(), "as_cap_bytes": AS_CAP_BYTES,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hesspave" / "cli.py").is_file():
        print(f"error: no hesspave sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = pinned_env()
    setup_times, probe_info = measure_setup(args, env)
    records = run_workload(args, env, RUN_DEADLINE_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    ops = [r for r in records if "op" in r]
    attempted = len(ops)
    failed = sum(1 for r in ops if r["fail"] is not None)
    correct = not any(r["wrong"] for r in ops)
    n_ops = len(workloads.build_ops(args.workload, args.seed))
    if args.trace:
        metrics, notes = layers.per_layer(records, n_ops)
    else:
        metrics, notes = end_to_end(ops, n_ops, workloads.REFERENCE[args.workload],
                                    setup_times, peak_rss_mb)
    print(json.dumps({"environment": environment(args, probe_info)}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(ops: list[dict], n_ops: int, kind: str,
               setup_times: list[tuple[float, float]], peak_rss_mb: float):
    """Timings in CPU seconds, rescaled to the nominal speed of the workload's
    reference loop (see reference.py)."""
    def scaled(r: dict) -> float:
        return reference.scaled(r["cpu"], r["ref"], kind)

    complete = list(layers.complete_passes(ops, n_ops).values())
    walls = [sum(scaled(r) for r in rs) for rs in complete]
    lat_ms = sorted(scaled(r) * 1000.0 for rs in complete for r in rs)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    busy = sum(scaled(r) for r in ops if r["s"] is not None)
    failed = sum(1 for r in ops if r["fail"] is not None)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "work_per_s": (sum(r["work"] for r in ops) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(reference.scaled(s, ref, "python")
                                      for s, ref in setup_times), "s"),
        "ok_frac": (1.0 - failed / len(ops), "fraction"),
    }
    beyond = sum(1 for x in lat_ms if x > deciles[8])
    refs = [r["ref"] for r in ops if r["ref"] is not None]
    notes = [
        f"fail_frac {failed / len(ops):.6g} ({failed} of {len(ops)} ops)",
        f"op_p50_ms and op_p90_ms over {len(lat_ms)} latency samples, {beyond} beyond p90; "
        f"wall_s over {len(walls)} complete passes; setup_s over {len(setup_times)} probes",
        "unscaled medians: pass wall clock "
        f"{statistics.median(sum(r['s'] for r in rs) for rs in complete):.6g} s, "
        f"pass CPU {statistics.median(sum(r['cpu'] for r in rs) for rs in complete):.6g} s, "
        f"set-up CPU {statistics.median(s for s, _ in setup_times):.6g} s; "
        f"{kind} reference loop {statistics.median(refs) * 1000.0:.6g} ms "
        f"(nominal {reference.LOOPS[kind][1] * 1000.0:.6g} ms)",
    ]
    reasons = sorted({r["fail"].split(":")[0] for r in ops if r["fail"]})
    if reasons:
        notes.append("failures: " + "; ".join(reasons))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


if __name__ == "__main__":
    sys.exit(main())
