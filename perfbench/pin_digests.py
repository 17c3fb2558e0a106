"""Capture the pinned result digests of the simulation workloads.

Run from the repository root on the commit whose results are the
reference::

    PYTHONPATH=src python3 perfbench/pin_digests.py

It simulates every spec of ``fig5_mesh4`` and ``sparse_mesh16`` through
``run_spec`` with the disk cache off (two worker processes) and rewrites
``perfbench/pinned_digests.json``.  The
benchmark counts every later mismatch against these digests as a failed
operation.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _digest(spec: dict) -> str:
    from repro.experiments.runner import RunSpec, result_digest, run_spec

    return result_digest(run_spec(RunSpec(**spec)))


def main() -> int:
    os.environ["REPRO_DISK_CACHE"] = "0"
    jobs = []
    for name, grid in workloads.GRIDS.items():
        jobs.extend((name, spec) for spec in grid(0))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        digests = list(pool.map(_digest, [spec for _, spec in jobs]))
    pinned: dict = {name: {} for name in workloads.GRIDS}
    for (name, spec), digest in zip(jobs, digests):
        pinned[name][workloads.label(spec)] = digest
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    with open(workloads.PINNED_PATH, "w") as handle:
        json.dump({"commit": commit, "digests": pinned}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(jobs)} digests at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
