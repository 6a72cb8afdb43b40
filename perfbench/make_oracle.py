"""Regenerate ``oracle/seed2001.json``: ExactEngine outcomes at seed 2001.

Usage (from the repository root)::

    python3 perfbench/make_oracle.py

Stores, for each input set, the golden cycle count of every program and
the exact engine's ``[detected, timed_out, mismatches]`` per defect in
index order.  ``run.py`` diffs every judgment against this file when it
runs at the default seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import worker


def main() -> int:
    work = run.HERE / "out" / f"oracle-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        oracles = {
            inputs: run.compute_oracle(inputs, run.ORACLE_SEED, work)
            for inputs in worker.INPUTS
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.ORACLE_FILE.parent.mkdir(exist_ok=True)
    with open(run.ORACLE_FILE, "w") as handle:
        handle.write("{\n")
        for position, (inputs, oracle) in enumerate(oracles.items()):
            comma = "," if position < len(oracles) - 1 else ""
            handle.write(f'"{inputs}": {json.dumps(oracle, separators=(",", ":"))}{comma}\n')
        handle.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
