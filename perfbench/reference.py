"""Fixed reference loops that track how fast the machine runs right now.

On a shared host an op's time moves with the other tenants in two ways.
Other processes take turns on our core; the thread's CPU clock leaves that
waiting out, so the benchmark times ops on it.  Other work on the same
physical core or memory slows every instruction down, by up to half, in
phases from a second to minutes long; the CPU clock counts that.  So the
worker also times a reference loop, on the same clock, around every op, and
the benchmark reports each op's time rescaled to the speed at which the loop
takes its nominal time:

    scaled = cpu_seconds * nominal / reference

where `reference` is the mean of the loop's times just before and just after
the op.  The loops never change, so a faster program lowers the scaled time
just as it lowers the raw time.  The `python` loop does the kind of work the
pure-Python layers do (tuples, dicts, small ints, a generator); the `numpy`
loop multiplies a batch of 4x4 int64 matrices mod 7, the kind of work and
working set `count` has.
"""

from __future__ import annotations

from time import thread_time


def _pairs(n: int):
    for i in range(n):
        yield i % 13, i % 7


def python_loop() -> int:
    seen: dict[tuple[int, int, int], int] = {}
    acc = 0
    for a, b in _pairs(4000):
        key = (a, b, a + b)
        seen[key] = seen.get(key, 0) + 1
        acc += len(key) * b
    return acc + len(seen)


_batch = None


def numpy_loop() -> int:
    global _batch
    import numpy as np  # not at module level: set-up time must not include it

    if _batch is None:  # 8 MiB, the size of the larger batches `count` builds
        _batch = (np.arange(65536 * 16, dtype=np.int64).reshape(65536, 4, 4) * 7919) % 7
    b = (_batch @ _batch @ _batch) % 7
    rows = np.arange(1, 5).reshape(1, 4, 1)
    return int(np.max(np.where(b != 0, rows, 0), axis=1).sum())


# (loop, its nominal CPU time: about the 10th percentile of a few thousand
# runs on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4)
LOOPS = {
    "python": (python_loop, 0.00115),
    "numpy": (numpy_loop, 0.029),
}


def time_loop(kind: str) -> float:
    """CPU seconds of one run of the `kind` loop on this thread."""
    loop = LOOPS[kind][0]
    c0 = thread_time()
    loop()
    return thread_time() - c0


def scaled(cpu_seconds: float, reference: float, kind: str) -> float:
    return cpu_seconds * LOOPS[kind][1] / reference
