"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hesspave.cli as cli  # noqa: E402
import hesspave.paving as paving  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_op  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_follow_the_seed(workload):
    assert workloads.build_ops(workload, 7) == workloads.build_ops(workload, 7)
    assert workloads.build_ops(workload, 7) != workloads.build_ops(workload, 8)


def _is_partition(op) -> bool:
    parts = [int(v) for v in op["argv"][op["argv"].index("--lambda") + 1].split(",")]
    return parts == sorted(parts, reverse=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_ops_pass_their_checks(workload):
    """The three smallest ops of each workload, run once and checked."""
    digests = workloads.load_digests()
    ops = sorted(workloads.build_ops(workload, workloads.DEFAULT_SEED), key=lambda op: op["n"])
    for op in ops[:3]:
        code, seconds, cpu, out = run_op(cli.main, op["argv"])
        assert seconds > 0 and cpu > 0
        if isinstance(code, str):
            # The one known crash: verify on a composition that is not a partition.
            assert workload == "verify" and not _is_partition(op), (op["argv"], code)
            continue
        assert workloads.check_output(op, code, out, digests)[0] is None, op["argv"]


def test_checks_catch_wrong_output():
    op = {"argv": ["poincare", "--lambda", "2,1", "--h", "springer", "--workers", "1"],
          "expect": 0, "n": 3}
    code, _, _, out = run_op(cli.main, op["argv"])
    assert workloads.check_output(op, code, out, {})[0] is None
    payload = json.loads(out)
    payload["total_cells"] += 1
    bad = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert workloads.check_output(op, code, bad, {})[0] is not None
    digest = {workloads.op_key(op["argv"]): "0" * 64}
    assert workloads.check_output(op, code, out, digest)[0] == "digest mismatch"
    assert workloads.check_output(op, 1, out, {})[0].startswith("exit 1")


def test_tracer_counts_fillings_and_restores_names():
    originals = (cli.poincare, paving.iter_fillings, cli.enumerate_cells)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.poincare is not originals[0]
        _, _, _, out = run_op(cli.main, ["poincare", "--lambda", "3,2,1"])
    finally:
        tracer.uninstall()
    assert (cli.poincare, paving.iter_fillings, cli.enumerate_cells) == originals
    assert tracer.counts["paving.fillings"] == json.loads(out)["total_cells"]
    assert tracer.stats["paving.iter_fillings"].calls > 0
    assert tracer.root_s >= tracer.stats["paving.poincare"].total


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
