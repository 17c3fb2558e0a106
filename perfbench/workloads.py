"""Inputs of the three benchmark workloads, made from the ``--seed``.

Specs are plain dicts of :class:`repro.experiments.runner.RunSpec`
fields, so this module imports nothing from the program and the same
seed always yields the same inputs.

Why these workloads (the benchmark's own record of the choice):

- ``fig5_mesh4``: the Fig. 5 grid on the default 4x4 mesh, serial and
  cold.  A saturated NoC: router sweep, NI, tile and compression costs
  all sit on the blocking path.  Built from ``benchmarks/perf_smoke.py``'s
  smoke grid (two workloads, 400 accesses per core) so it stays
  comparable with ``bench_results/BENCH_fig5.json``.
- ``sparse_mesh16``: a 16x16 mesh with a few dozen accesses per core
  (the ``BENCH_sparse.json`` configuration).  256 mostly idle routers
  with long drain tails, so kernel wake scheduling, active sets and
  arrival queues dominate, and trace generation plus system build for
  256 tiles make set-up heavy.
- ``campaign_service``: tiny 2x2 specs through an in-process
  ``CampaignService`` behind HTTP, one closed-loop client.  Simulation
  is cheap, so the runner/cache, scheduler, admission, HTTP/NDJSON and
  digest layers do most of the work, and the cache is both written
  (fresh specs) and read (repeats).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple

WORKLOADS = ("fig5_mesh4", "sparse_mesh16", "campaign_service")

#: Trace seed of the simulation workloads: the ``RunSpec`` default, as in
#: ``perf_smoke.py`` and the committed ``BENCH_*.json`` trajectories.
#: ``--seed`` permutes the order the grid runs in instead: the specs
#: share the process-wide compressor memo, so the order decides which
#: spec finds it warm, while the work and every result stay the same.
#: (Varying the trace seed moves the simulated cycle count by up to 20%
#: on sparse_mesh16, which would swamp any host-time bound.)
TRACE_SEED = 7

FIG5_WORKLOADS = ("blackscholes", "fluidanimate")
FIG5_SCHEMES = ("ideal", "baseline", "cc", "cnc", "disco")
FIG5_ACCESSES = 400

SPARSE_SIDE = 16
SPARSE_ACCESSES = 40
SPARSE_SCHEMES = ("baseline", "disco")

#: campaign_service: jobs per repetition.  Every job has the same shape,
#: two repeats (memo hits served by the service) then two fresh specs
#: (simulated in the pool, written to the disk cache).  The service
#: shards units round-robin over its dispatchers (one per worker, two on
#: a 2-core host), so each dispatcher serves a memo hit before it starts
#: a fresh spec: the first result of every job is a memo hit served while
#: the pool is idle.  With the units shuffled, ``first_result_p50_s``
#: would be a seed-dependent mixture of memo hits, memo hits racing a
#: simulation for the CPU, and fresh simulations.
CAMPAIGN_JOBS = 50
CAMPAIGN_SHAPE = ("repeat", "repeat", "fresh", "fresh")
CAMPAIGN_SCHEMES = ("ideal", "baseline", "cc", "cnc", "disco")
CAMPAIGN_WORKLOADS = ("blackscholes", "fluidanimate", "canneal", "dedup")
TINY = {"width": 2, "height": 2, "accesses_per_core": 60}

PINNED_PATH = Path(__file__).with_name("pinned_digests.json")


def label(spec: Dict) -> str:
    """Canonical name of one spec (its fields, sorted)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _shuffled(specs: List[Dict], name: str, seed: int) -> List[Dict]:
    random.Random(f"{name}:{seed}").shuffle(specs)
    return specs


def fig5_grid(seed: int) -> List[Dict]:
    return _shuffled([
        {"scheme": scheme, "workload": workload,
         "accesses_per_core": FIG5_ACCESSES, "seed": TRACE_SEED}
        for workload in FIG5_WORKLOADS
        for scheme in FIG5_SCHEMES
    ], "fig5_mesh4", seed)


def sparse_grid(seed: int) -> List[Dict]:
    return _shuffled([
        {"scheme": scheme, "workload": "blackscholes",
         "width": SPARSE_SIDE, "height": SPARSE_SIDE,
         "accesses_per_core": SPARSE_ACCESSES, "seed": TRACE_SEED}
        for scheme in SPARSE_SCHEMES
    ], "sparse_mesh16", seed)


GRIDS = {"fig5_mesh4": fig5_grid, "sparse_mesh16": sparse_grid}


class CampaignPlan(NamedTuple):
    #: Job that spawns the pool during set-up (not measured).
    warmup: List[Dict]
    #: The measured jobs, in submission order.
    jobs: List[List[Dict]]
    #: A spec no job uses, for the runner's cold ``run_spec`` probe.
    probe: Dict

    def distinct(self) -> List[Dict]:
        seen: Dict[str, Dict] = {}
        for spec in [*self.warmup, *(s for job in self.jobs for s in job),
                     self.probe]:
            seen.setdefault(label(spec), spec)
        return list(seen.values())


def campaign_plan(seed: int, jobs: int = CAMPAIGN_JOBS) -> CampaignPlan:
    """The job sequence of one seed.

    Fresh specs take the (scheme, workload) pairs in a seed-shuffled
    round robin, so every seed simulates the same mix; the seed picks
    each spec's trace seed, the pair order and which earlier spec each
    repeat names.
    """
    rng = random.Random(f"campaign_service:{seed}")
    pairs = [(s, w) for s in CAMPAIGN_SCHEMES for w in CAMPAIGN_WORKLOADS]
    rng.shuffle(pairs)
    used = set()

    def fresh() -> Dict:
        scheme, workload = pairs[len(used) % len(pairs)]
        while True:
            spec_seed = rng.randrange(1, 2**31)
            if spec_seed not in used:
                used.add(spec_seed)
                break
        return {"scheme": scheme, "workload": workload, "seed": spec_seed,
                **TINY}

    warmup = [fresh() for kind in CAMPAIGN_SHAPE if kind == "fresh"]
    finished = list(warmup)
    plan = []
    for _ in range(jobs):
        units = [fresh() if kind == "fresh" else rng.choice(finished)
                 for kind in CAMPAIGN_SHAPE]
        plan.append(units)
        finished.extend(
            spec for kind, spec in zip(CAMPAIGN_SHAPE, units) if kind == "fresh"
        )
    return CampaignPlan(warmup, plan, fresh())


def pinned_digests() -> Dict[str, Dict[str, str]]:
    """workload -> spec label -> ``result_digest`` captured at pin time."""
    with open(PINNED_PATH) as handle:
        return json.load(handle)["digests"]
