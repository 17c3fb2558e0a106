"""Regression sentinel: diff new bench entries against the trajectory.

``perf_smoke.py`` gates its *own* fresh run; this sentinel gates the
**committed trajectory** — it reads every ``bench_results/BENCH_*.json``
file, groups comparable runs, and renders an explicit threshold verdict
for each group without running a single simulation::

    python benchmarks/sentinel.py                # verdict per group
    python benchmarks/sentinel.py --threshold 1.5
    python benchmarks/sentinel.py --json         # machine-readable

A *group* is one comparable configuration: ``(config, kernel, sweep)``
for the fig5-style trajectory, ``(kernel, sweep, scheme)`` for the
sparse one (``sweep`` is the router sweep, ``native`` or ``python``;
entries from before it was recorded count as ``python``).  Within
a group only **cold** runs count (a cache-hit run times a dict lookup);
the newest cold run is the candidate and the fastest *earlier* cold run
is the reference.  The verdict is::

    OK          newest <= threshold x reference
    REGRESSION  newest >  threshold x reference   (exit status 1)
    BASELINE    the group has no earlier cold run to compare against

The default threshold matches ``perf_smoke.REGRESSION_FACTOR`` (2x):
generous enough to absorb host variance between the machines that
appended entries, tight enough that a tick-everything-style regression —
which costs well over 2x — trips CI.  The ``metrics-smoke`` job runs
this against the committed trajectory on every PR, so a bench entry that
sneaks a regression into ``bench_results/`` fails the build even if the
perf job itself did not re-run that configuration.
"""

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import _results_dir  # noqa: E402

#: Matches perf_smoke.REGRESSION_FACTOR (kept literal: the sentinel must
#: not import simulation modules — it is a pure file reader).
DEFAULT_THRESHOLD = 2.0


def _group_key(run: Dict) -> Optional[Tuple]:
    """The comparability key for one run entry, or ``None`` to skip it."""
    wall = run.get("wall_seconds")
    if not isinstance(wall, (int, float)) or wall <= 0:
        return None
    if run.get("cache_hit"):
        return None  # a cache-hit run measured a dict lookup
    kernel = run.get("kernel", "event")
    sweep = run.get("sweep", "python")
    if "config" in run:
        return ("config", run["config"], kernel, sweep)
    if "scheme" in run:
        return ("scheme", kernel, sweep, run["scheme"])
    return None


def _load_runs(path: str) -> List[Dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"sentinel: {path}: unreadable ({exc})", file=sys.stderr)
        return []
    runs = payload.get("runs")
    return runs if isinstance(runs, list) else []


def evaluate_trajectory(
    path: str, threshold: float = DEFAULT_THRESHOLD
) -> List[Dict]:
    """Verdicts for every comparable group in one ``BENCH_*.json``.

    Trajectory order is append order, so "newest" is the last cold
    entry of its group and the reference is the fastest cold entry
    *before* it — the candidate must never gate against itself.
    """
    grouped: Dict[Tuple, List[float]] = {}
    for run in _load_runs(path):
        key = _group_key(run)
        if key is None:
            continue
        grouped.setdefault(key, []).append(float(run["wall_seconds"]))
    verdicts = []
    name = os.path.basename(path)
    for key, walls in sorted(grouped.items()):
        label = f"{name}:{'/'.join(str(part) for part in key[1:])}"
        newest = walls[-1]
        earlier = walls[:-1]
        if not earlier:
            verdicts.append(
                {
                    "group": label,
                    "verdict": "BASELINE",
                    "newest_seconds": round(newest, 3),
                    "reference_seconds": None,
                    "limit_seconds": None,
                    "threshold": threshold,
                    "runs": len(walls),
                }
            )
            continue
        reference = min(earlier)
        limit = reference * threshold
        verdicts.append(
            {
                "group": label,
                "verdict": "OK" if newest <= limit else "REGRESSION",
                "newest_seconds": round(newest, 3),
                "reference_seconds": round(reference, 3),
                "limit_seconds": round(limit, 3),
                "threshold": threshold,
                "runs": len(walls),
            }
        )
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/sentinel.py",
        description="Diff new bench entries against the pinned trajectory.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="trajectory files (default: bench_results/BENCH_*.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"regression factor (default {DEFAULT_THRESHOLD}x)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit verdicts as JSON"
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")
    paths = args.paths or sorted(
        glob.glob(os.path.join(_results_dir(), "BENCH_*.json"))
    )
    if not paths:
        print("sentinel: no trajectory files found", file=sys.stderr)
        return 2
    verdicts: List[Dict] = []
    for path in paths:
        verdicts.extend(evaluate_trajectory(path, args.threshold))
    if args.json:
        print(json.dumps({"verdicts": verdicts}, indent=2))
    else:
        for verdict in verdicts:
            if verdict["verdict"] == "BASELINE":
                print(
                    f"sentinel: {verdict['group']}: BASELINE "
                    f"({verdict['newest_seconds']}s, no prior cold run)"
                )
            else:
                print(
                    f"sentinel: {verdict['group']}: {verdict['verdict']} — "
                    f"newest {verdict['newest_seconds']}s vs limit "
                    f"{verdict['limit_seconds']}s "
                    f"({verdict['threshold']}x of "
                    f"{verdict['reference_seconds']}s reference)"
                )
    regressions = [v for v in verdicts if v["verdict"] == "REGRESSION"]
    if regressions:
        print(
            f"sentinel: {len(regressions)} regression(s) in the committed "
            "trajectory",
            file=sys.stderr,
        )
        return 1
    # With --json, stdout is the machine-readable document alone.
    print(
        f"sentinel: {len(verdicts)} group(s) checked, no regressions",
        file=sys.stderr if args.json else sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
