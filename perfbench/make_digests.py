"""Rewrite digests.json from the current sources.

    PYTHONPATH=src python3 perfbench/make_digests.py

Runs every op of every workload once at the default seed and stores the
sha256 of the canonical JSON of each op that exits as expected and passes
the invariant checks.  Run it only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json

import hesspave.cli as cli

import workloads
from worker import run_op


def main() -> None:
    digests = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build_ops(name, workloads.DEFAULT_SEED):
            code, _, _, out = run_op(cli.main, op["argv"])
            if isinstance(code, str) or op["expect"] != 0:
                continue
            if workloads.check_output(op, code, out, {})[0] is None:
                digests[workloads.op_key(op["argv"])] = hashlib.sha256(out.encode()).hexdigest()
    with open(workloads.DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS_PATH}")


if __name__ == "__main__":
    main()
