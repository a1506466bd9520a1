"""Seeded op lists for the four benchmark workloads, and the output checks.

An op is one `hesspave` CLI invocation: an argv list for `hesspave.cli.main`,
the exit code it must return, and what it is checked against.  The seed picks
the non-Springer h's, the row order of the permuted compositions, the
`verify --seed` and the op order; the shapes, the Springer entries and the
q's are fixed, so the work in one pass varies little from seed to seed.

This module imports nothing from hesspave, so building an op list is cheap and
can be timed on its own as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("poincare", "cells", "verify", "count")
# The reference loop (reference.py) whose speed each workload's timings are
# rescaled by: `count` spends its time in numpy, the others in Python.
REFERENCE = {"poincare": "python", "cells": "python", "verify": "python", "count": "numpy"}
DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Shapes per workload.  Each pass is dominated by Springer ops on fixed
# partitions.  The seeded ops (permuted compositions and near-Springer h) sit
# on shapes whose Springer op is cheaper than the fixed ops at p50 and p90,
# so the seed does not move those two quantiles; it moves wall time by only
# the small share the seeded ops take.
#
# Latencies are pooled over whole passes, so each op fills a block of equal
# size in the sorted samples; p50 and p90 fall in blocks of fixed ops.  A
# pass takes 2-3 s, so a run of 25 s makes about ten passes.
POINCARE_FIXED = [(6, 4, 2), (5, 5, 2), (4, 3, 2, 1), (6, 3, 3), (3, 3, 3, 1), (5, 4, 3),
                  (6, 4, 1, 1), (3, 3, 2, 2), (4, 4, 4), (4, 4, 1, 1), (5, 2, 2, 1),
                  (6, 3, 1, 1)]
POINCARE_CHEAP = [(5, 3, 2), (4, 4, 2), (6, 3, 2)]
POINCARE_PERMUTED = [(6, 2, 2), (5, 4, 1), (6, 4, 1)]
POINCARE_NEAR = [(4, 4, 3), (5, 3, 3), (5, 4, 2), (2, 4, 4), (3, 5, 3)]

CELLS_FIXED = [(4, 4, 1), (5, 2, 2), (4, 2, 1, 1), (4, 3, 2), (5, 2, 1, 1), (3, 3, 3),
               (3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2), (4, 1, 1, 1, 1), (4, 3, 1, 1)]
CELLS_CHEAP = [(4, 4), (5, 3), (6, 2, 1)]
CELLS_PERMUTED = [(4, 3, 1), (4, 2, 2), (5, 2, 1)]
CELLS_NEAR = [(4, 3, 1), (3, 3, 2), (2, 3, 3), (5, 3, 1)]

# Every partition of 4 and 5 with more than one part, and five non-partition
# compositions, all with the Springer h.  Near-Springer h on n <= 5 often
# gives an empty variety, which verify checks in a fraction of the time, so
# it would make the work per pass depend on the seed.  `verify` raises
# ValueError ("tableau is not h-strict") on every one of the compositions at
# the time of writing; they stay in and count as failed ops.
VERIFY_PARTITIONS = [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (4, 1), (3, 2), (3, 1, 1),
                     (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
VERIFY_COMPOSITIONS = [(2, 1, 2), (1, 3, 1), (2, 3), (1, 2, 1, 1), (1, 1, 3)]
VERIFY_Q = 2

# (shape, q) pairs inside the default 24-bit budget, plus one over it that
# must exit 3 at once.  The cost of `count` depends on n and q only, so the
# ops fall into blocks of equal cost; p50 falls inside the n=5, q=2 and
# n=4, q=5 block and p90 inside the q=7 one.  The largest batch, (2,2) at
# q=7, builds 7^6 matrices.
COUNT_IN_BUDGET = [((2, 2), 2), ((3, 1), 3), ((2, 1, 1), 2), ((2, 1, 1), 3), ((2, 2), 3),
                   ((2, 2, 1), 2), ((3, 2), 2), ((3, 1, 1), 2), ((4, 1), 2),
                   ((2, 2), 5), ((3, 1), 5),
                   ((2, 2), 7), ((3, 1), 7),
                   ((2, 2, 1), 3)]
COUNT_OVER_BUDGET = [((2, 2, 2), 3)]


def near_springer(n: int, rng: random.Random) -> list[int]:
    """h(i) = i-1 lowered by a seeded 0..2, clamped at 0, kept weakly increasing."""
    values, prev = [], 0
    for i in range(1, n + 1):
        prev = max(i - 1 - rng.randint(0, 2), prev, 0)
        values.append(prev)
    return values


def permuted(parts: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """A seeded row order of `parts` that is not weakly decreasing."""
    order = list(parts)
    while True:
        rng.shuffle(order)
        if order != sorted(order, reverse=True):
            return tuple(order)


def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def _op(command: str, parts, h, *extra: str, expect: int = 0) -> dict:
    n = sum(parts)
    argv = [command, "--lambda", _fmt(parts),
            "--h", "springer" if h is None else _fmt(h), *extra]
    return {"argv": argv, "expect": expect, "n": n}


def build_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; equal seeds give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "poincare":
        ops = [_op("poincare", s, None) for s in POINCARE_FIXED + POINCARE_CHEAP]
        ops += [_op("poincare", permuted(s, rng), None) for s in POINCARE_PERMUTED]
        ops += [_op("poincare", s, near_springer(sum(s), rng)) for s in POINCARE_NEAR]
    elif workload == "cells":
        fmt = ("--format", "json")
        ops = [_op("cells", s, None, *fmt) for s in CELLS_FIXED + CELLS_CHEAP]
        ops += [_op("cells", permuted(s, rng), None, *fmt) for s in CELLS_PERMUTED]
        ops += [_op("cells", s, near_springer(sum(s), rng), *fmt) for s in CELLS_NEAR]
    elif workload == "verify":
        def extra():
            return ("--q", str(VERIFY_Q), "--seed", str(rng.randrange(1000)))
        ops = [_op("verify", s, None, *extra()) for s in VERIFY_PARTITIONS]
        ops += [_op("verify", permuted(s, rng), None, *extra())
                for s in VERIFY_COMPOSITIONS]
    elif workload == "count":
        ops = []
        for shape, q in COUNT_IN_BUDGET:
            s = permuted(shape, rng) if rng.random() < 0.5 and len(set(shape)) > 1 else shape
            ops.append(_op("count", s, near_springer(sum(s), rng), "--q", str(q)))
        ops += [_op("count", s, None, "--q", str(q), expect=3) for s, q in COUNT_OVER_BUDGET]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # A seeded order, so that a slow op does not always follow the same one.
    rng.shuffle(ops)
    # Every op runs single-threaded, whatever HESSPAVE_WORKERS says.
    for op in ops:
        op["argv"] += ["--workers", "1"]
    return ops


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def flags_over_fq(n: int, q: int) -> int:
    """|Fl_n(F_q)| = prod_{i=1..n} [i]_q, the flags `count` enumerates."""
    total = 1
    for i in range(1, n + 1):
        total *= (q**i - 1) // (q - 1)
    return total


def check_output(op: dict, code, out: str, digests: dict[str, str]) -> tuple[str | None, int]:
    """(reason the op failed or None, units of work it did).

    An op fails if it exits with an unexpected code, if its canonical JSON
    differs from the committed digest, or if it breaks a cheap invariant.
    """
    if code != op["expect"]:
        return f"exit {code}, expected {op['expect']}", 0
    if op["expect"] != 0:
        return (None, 0) if out == "" else ("output on an expected non-zero exit", 0)
    want = digests.get(op_key(op["argv"]))
    if want is not None and hashlib.sha256(out.encode()).hexdigest() != want:
        return "digest mismatch", 0
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON", 0
    command = op["argv"][0]
    if command == "poincare":
        coeffs, total = payload["coefficients"], payload["total_cells"]
        if sum(coeffs) != total:
            return "coefficients do not sum to total_cells", 0
        if total and coeffs[0] != 1:
            return "nonempty variety without a unique zero cell", 0
        if payload["empty"] != (total == 0):
            return "empty flag disagrees with total_cells", 0
        return None, total
    if command == "cells":
        cells = payload["cells"]
        if payload["count"] != len(cells):
            return "count differs from the number of cells", 0
        words = [tuple(c["w"]) for c in cells]
        if any(a >= b for a, b in zip(words, words[1:])):
            return "words not sorted and distinct", 0
        if any(c["dim"] != len(c["inversions"]) for c in cells):
            return "dim differs from the number of inversions", 0
        return None, len(cells)
    if command == "verify":
        if payload["passed"] is not True:
            return "verification did not pass", 0
        return None, len(payload["checks"])
    if command == "count":
        if payload["match"] is not True:
            return "point count does not match the paving", 0
        q = int(op["argv"][op["argv"].index("--q") + 1])
        return None, flags_over_fq(op["n"], q)
    return f"unknown command {command}", 0
