"""CI perf smoke: a reduced fig5 sweep must stay within 2x of its record.

Standalone (``python benchmarks/perf_smoke.py``): runs the fig5 latency
experiment at a reduced scale (two workloads, short traces) twice under
the event kernel — once with the native router sweep
(:mod:`repro.noc.native`, the default) and once with every router forced
onto the Python sweep (``native_sweep=False``) — appends both
wall-clocks to the ``bench_results/BENCH_fig5.json`` trajectory with
``config: "smoke"`` and a ``sweep`` tag, and exits non-zero if either
leg regressed by more than :data:`REGRESSION_FACTOR` against the best
previous *cold* smoke entry **for the same kernel and sweep** (entries
from before the native sweep existed count as ``python``).  Only like
configurations are compared — the smoke record never gates the full
bench configuration or vice versa.  Both legs fan the grid out over a
process pool, as ``fig5()`` does.

The Python leg is also a correctness gate: every spec in the smoke grid
must produce the same counter snapshot, cycle count and miss latency on
both sweeps.  A divergence exits non-zero immediately — digest drift is
a bug, never a perf trade.  The native leg must also really be native:
a ``disco`` spec whose ``noc.sweep`` annotation is not ``native (...)``
(a silent fallback to the Python sweep) fails the run, and so does any
spec that lands a link flit or streams an injected flit through the
Python path instead of in C, so a fallback can never pass as a
speed-up.

On top of the saturated smoke grid, a mostly-idle 16x16 mesh (the sparse
configuration: 256 cores, a few dozen accesses each) is timed on both
sweeps and written to ``bench_results/BENCH_sparse.json`` — the regime
where active-set sweeps matter more than per-stage cost.

The 2x headroom absorbs host-speed variance between the machine that
recorded the reference and the CI runner; a genuine scheduler regression
(e.g. reverting the event-driven kernel to tick-everything) costs well
over 2x and trips the gate.

A run served entirely from the runner's caches measures nothing; it is
recorded as ``cache_hit: true`` and skips the regression check (CI uses
a fresh per-job cache directory, so its runs are always cold).
"""

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import _results_dir, append_bench_fig5, save_json  # noqa: E402

SMOKE_WORKLOADS = ("blackscholes", "fluidanimate")
SMOKE_ACCESSES = 400
REGRESSION_FACTOR = 2.0

#: The mostly-idle mesh: 256 nodes, short bursty traces, long drain tails.
SPARSE_WIDTH = SPARSE_HEIGHT = 16
SPARSE_ACCESSES = 40
SPARSE_SCHEMES = ("baseline", "disco")


SWEEPS = ("native", "python")

#: Cycles a ``disco`` smoke spec runs to show which sweep it takes.
NATIVE_CHECK_CYCLES = 500


def best_cold_smoke_seconds(kernel: str = "event", sweep: str = "python") -> float:
    """The fastest cold smoke run on record for ``kernel`` and ``sweep``
    (the regression reference).  Entries predating the kernel tag were
    all event-mode runs, and entries predating the sweep tag all ran the
    Python sweep."""
    path = os.path.join(_results_dir(), "BENCH_fig5.json")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return 0.0
    cold = [
        run["wall_seconds"]
        for run in payload.get("runs", [])
        if run.get("config") == "smoke"
        and not run.get("cache_hit")
        and run.get("kernel", "event") == kernel
        and run.get("sweep", "python") == sweep
    ]
    return min(cold) if cold else 0.0


def _smoke_grid():
    from repro.experiments.fig5 import REFERENCE, SCHEMES
    from repro.experiments.runner import RunSpec

    return [
        RunSpec(
            scheme=scheme, workload=workload,
            accesses_per_core=SMOKE_ACCESSES,
        )
        for workload in SMOKE_WORKLOADS
        for scheme in (REFERENCE, *SCHEMES)
    ]


def _comparable(result):
    """Everything the router sweep must not change: the full counter
    snapshot, cycle count and miss latency."""
    return (
        dict(result.snapshot_full),
        result.cycles,
        result.avg_miss_latency,
    )


def _run_smoke_leg(sweep: str):
    """One cold fig5 smoke sweep on ``sweep``; returns (wall, cache_hit,
    per-spec comparables).

    The native leg is ``fig5()`` itself (cache misses fan out over the
    runner's pool).  The Python leg fans the same grid out over a pool
    of the same size through ``runner.simulate(native_sweep=False)``,
    which bypasses the caches, so it is always cold.
    """
    from repro.experiments.fig5 import fig5
    from repro.experiments.runner import (
        simulate, default_jobs, run_spec, simulated_runs,
    )

    grid = _smoke_grid()
    if sweep == "native":
        before = simulated_runs()
        start = time.perf_counter()
        result = fig5(workloads=SMOKE_WORKLOADS,
                      accesses_per_core=SMOKE_ACCESSES)
        wall = time.perf_counter() - start
        cache_hit = simulated_runs() == before
        # Memo readbacks (the sweep above just populated the cache).
        results = [run_spec(spec) for spec in grid]
        note = f", disco vs cc {result.improvement_of_disco_over('cc'):+.1%}"
    else:
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=min(default_jobs(), len(grid))) as pool:
            results = list(pool.map(partial(simulate, native_sweep=False), grid))
        wall = time.perf_counter() - start
        cache_hit = False
        note = ""
    comparables = {
        (spec.scheme, spec.workload): _comparable(result)
        for spec, result in zip(grid, results)
    }
    append_bench_fig5(
        config="smoke",
        wall_seconds=wall,
        cache_hit=cache_hit,
        extra={
            "workloads": list(SMOKE_WORKLOADS),
            "accesses_per_core": SMOKE_ACCESSES,
            "sweep": sweep,
        },
    )
    print(f"perf smoke [{sweep}]: {wall:.2f}s "
          f"({'cache hit' if cache_hit else 'cold'}){note}")
    return wall, cache_hit, comparables


def check_native_disco() -> int:
    """Exit status 1 unless every ``disco`` spec of the smoke grid runs on
    the native sweep.  Results carry no sweep annotation, so each spec is
    rebuilt and run for :data:`NATIVE_CHECK_CYCLES` cycles."""
    from repro.experiments.checkpoint import build_system

    status = 0
    for spec in _smoke_grid():
        if spec.scheme != "disco":
            continue
        system = build_system(spec)
        system.run(pause_at=NATIVE_CHECK_CYCLES)
        note = system.kernel.annotations["noc.sweep"]
        if not note.startswith("native (") or "Python" in note:
            print(f"perf smoke: the native leg runs {spec.workload}/disco "
                  f"on the Python sweep: noc.sweep: {note}")
            status = 1
    if not status:
        print("perf smoke: every disco spec runs on the native sweep")
    return status


def check_native_landings() -> int:
    """Exit status 1 unless every spec of the smoke grid lands its link
    flits in C on the native leg (``NativeSweep.python_landings`` stays
    0 while ``native_landings`` counts them).  Each spec is rebuilt and
    run for :data:`NATIVE_CHECK_CYCLES` cycles."""
    from repro.experiments.checkpoint import build_system

    status = 0
    for spec in _smoke_grid():
        system = build_system(spec)
        system.run(pause_at=NATIVE_CHECK_CYCLES)
        sweep = system.network.native_sweep
        name = f"{spec.workload}/{spec.scheme}"
        if sweep is None:
            print(f"perf smoke: the native leg runs {name} without the "
                  f"native sweep: {system.kernel.annotations['noc.sweep']}")
            status = 1
        elif sweep.python_landings or not sweep.native_landings:
            print(f"perf smoke: the native leg lands {sweep.python_landings} "
                  f"link flits of {name} through the Python path "
                  f"({sweep.native_landings} in C)")
            status = 1
    if not status:
        print("perf smoke: every smoke spec lands its link flits in C")
    return status


def check_native_injections() -> int:
    """Exit status 1 unless every spec of the smoke grid streams its
    injected flits in C on the native leg (``NativeSweep.python_injections``
    stays 0 while ``native_injections`` counts them).  Each spec is
    rebuilt and run for :data:`NATIVE_CHECK_CYCLES` cycles."""
    from repro.experiments.checkpoint import build_system

    status = 0
    for spec in _smoke_grid():
        system = build_system(spec)
        system.run(pause_at=NATIVE_CHECK_CYCLES)
        sweep = system.network.native_sweep
        name = f"{spec.workload}/{spec.scheme}"
        if sweep is None:
            print(f"perf smoke: the native leg runs {name} without the "
                  f"native sweep: {system.kernel.annotations['noc.sweep']}")
            status = 1
        elif sweep.python_injections or not sweep.native_injections:
            print(f"perf smoke: the native leg injects "
                  f"{sweep.python_injections} flits of {name} through the "
                  f"Python NI ({sweep.native_injections} in C)")
            status = 1
    if not status:
        print("perf smoke: every smoke spec injects its flits in C")
    return status


def _gate(sweep: str, wall: float, cache_hit: bool, reference: float) -> int:
    """Gate one leg against ``reference``, the best record read *before*
    the leg appended its own entry."""
    if cache_hit:
        print(f"perf smoke [{sweep}]: run was served from cache; "
              f"nothing to gate")
        return 0
    if not reference:
        print(f"perf smoke [{sweep}]: no cold smoke reference on record; "
              f"this run becomes the reference")
        return 0
    limit = reference * REGRESSION_FACTOR
    print(f"perf smoke [{sweep}]: reference {reference:.2f}s, "
          f"limit {limit:.2f}s")
    if wall > limit:
        print(f"perf smoke [{sweep}]: REGRESSION — {wall:.2f}s exceeds "
              f"{REGRESSION_FACTOR:.0f}x the {reference:.2f}s reference")
        return 1
    return 0


def run_sparse() -> dict:
    """Time the mostly-idle 16x16 mesh on both sweeps (always cold:
    goes through ``runner.simulate`` directly, no caches)."""
    from repro.experiments.runner import RunSpec, simulate

    runs = []
    for sweep in SWEEPS:
        for scheme in SPARSE_SCHEMES:
            spec = RunSpec(
                scheme=scheme, workload="blackscholes",
                width=SPARSE_WIDTH, height=SPARSE_HEIGHT,
                accesses_per_core=SPARSE_ACCESSES,
            )
            start = time.perf_counter()
            result = simulate(spec, native_sweep=sweep == "native")
            wall = time.perf_counter() - start
            runs.append({
                "kernel": "event",
                "sweep": sweep,
                "scheme": scheme,
                "wall_seconds": round(wall, 3),
                "cycles": result.cycles,
            })
            print(f"sparse [{sweep}/{scheme}]: {wall:.2f}s, "
                  f"{result.cycles} cycles")
    by_sweep = {
        sweep: sum(
            run["wall_seconds"] for run in runs if run["sweep"] == sweep
        )
        for sweep in SWEEPS
    }
    payload = {
        "description": (
            "Mostly-idle mesh wall-clock: "
            f"{SPARSE_WIDTH}x{SPARSE_HEIGHT} nodes, "
            f"{SPARSE_ACCESSES} accesses/core, blackscholes, "
            f"schemes {list(SPARSE_SCHEMES)}, cold (uncached) runs"
        ),
        "runs": runs,
        "total_seconds": {k: round(v, 3) for k, v in by_sweep.items()},
        "speedup_native_vs_python": round(
            by_sweep["python"] / by_sweep["native"], 3
        ) if by_sweep["native"] else None,
    }
    save_json("BENCH_sparse", payload)
    print(f"sparse: native {by_sweep['native']:.2f}s, "
          f"python {by_sweep['python']:.2f}s "
          f"({payload['speedup_native_vs_python']}x)")
    return payload


def main() -> int:
    status = 0
    legs = {}
    for sweep in SWEEPS:
        reference = best_cold_smoke_seconds("event", sweep)
        wall, cache_hit, legs[sweep] = _run_smoke_leg(sweep)
        status |= _gate(sweep, wall, cache_hit, reference)

    # Correctness gate: the Python sweep must be bit-identical to the
    # native one on every spec of the grid.
    native, python = legs["native"], legs["python"]
    diverged = [key for key in native if python[key] != native[key]]
    if diverged:
        print(f"perf smoke: DIGEST DIVERGENCE — the Python sweep differs "
              f"from the native one on {diverged}")
        status |= 1
    else:
        print(f"perf smoke: Python-sweep counters identical to native on "
              f"all {len(native)} smoke specs")
    status |= check_native_disco()
    status |= check_native_landings()
    status |= check_native_injections()

    run_sparse()
    return status


if __name__ == "__main__":
    sys.exit(main())
