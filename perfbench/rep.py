"""One repetition of one benchmark workload, in a fresh process.

``perfbench/run.py`` starts this script once per repetition, so the
runner memo and the process-wide compressor memo always start empty::

    PYTHONPATH=src python3 perfbench/rep.py --workload fig5_mesh4 \\
        --seed 0 --mode untraced --rotate 0 --out rep.json

Modes:

- ``untraced``: the workload as a user runs it; times come from a few
  spans around calls into the program's public functions.
- ``traced``: the same, plus the per-layer ledger: the kernel's
  per-component profile, every ``compress`` call timed, a decompress
  round trip over the lines the run compressed, and runner and service
  probes.  Spans are kept in memory and written to ``--spans`` at the end.
- ``reference`` / ``reference-traced`` (campaign_service only): every
  spec of the plan through ``run_spec`` in a fresh process, giving the
  digests the streamed results are checked against and the simulation
  layers of the tiny specs.
- ``client`` (campaign_service only): the closed-loop client, started
  by the service repetition with ``--url``.

The result is one JSON object written to ``--out``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from ledger import UNATTRIBUTED, Ledger, median  # noqa: E402

#: Admission sized so one closed-loop client is never shed (the service
#: defaults, 8 units/s, would measure the token bucket, not the service).
ADMIT_RATE = 10_000.0
ADMIT_BURST = 10_000.0
QUEUE_BOUND = 100_000
CLIENT_TIMEOUT_S = 60.0
CLIENT_RUN_TIMEOUT_S = 150.0

#: Service probe on the simulation workloads: jobs of repeats of one grid
#: spec, all memo hits, so the dispatch path is measured on that spec's
#: result.
PROBE_JOBS = 5
PROBE_COPIES = 16
MEMO_PROBE_CALLS = 200
DISK_PROBE_CALLS = 5
#: Distinct compressed lines kept for the decompress round trip.
DECOMPRESS_SAMPLES = 4096

#: Network counters read from ``SimulationResult.counters_full``.
NET_COUNTERS = (
    "link_flits", "va_grants", "sa_grants", "router_compressions",
    "router_decompressions", "l1_accesses", "bank_reads",
)


def pool_workers() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Probe:
    """Spans around the simulator's public entry points.

    Installed by wrapping ``generate_traces``, ``CmpSystem.__init__``,
    ``CmpSystem.run`` and, when traced, ``CachedCompressor.compress``
    from outside; the program itself carries no tracing.
    """

    def __init__(self, ledger: Ledger, traced: bool):
        self.ledger = ledger
        self.traced = traced
        self.runs: List[Dict] = []
        self.kernel = None
        #: (parent span id, kernel phase index or None) -> [seconds, calls]
        self.calls: Dict[tuple, list] = {}
        #: line -> (algorithm, compressed line), for the decompress probe.
        self.samples: Dict[bytes, tuple] = {}

    def install(self) -> None:
        import repro.experiments.runner as runner_mod
        import repro.workloads.trace as trace_mod
        from repro.cmp.system import CmpSystem
        from repro.compression.base import CachedCompressor

        ledger, probe = self.ledger, self
        generate = trace_mod.generate_traces

        @functools.wraps(generate)
        def generate_traces(*args, **kwargs):
            with ledger.span("workloads.generate_traces", "workloads"):
                return generate(*args, **kwargs)

        trace_mod.generate_traces = generate_traces
        runner_mod.generate_traces = generate_traces

        build = CmpSystem.__init__

        @functools.wraps(build)
        def init(system, *args, **kwargs):
            with ledger.span("cmp.build", "cmp"):
                build(system, *args, **kwargs)

        run = CmpSystem.run

        @functools.wraps(run)
        def run_wrapped(system, *args, **kwargs):
            if probe.traced:
                system.kernel.enable_timing(per_component=True)
                probe.kernel = system.kernel
            try:
                with ledger.span("cmp.run", "sim") as span_id:
                    result = run(system, *args, **kwargs)
            finally:
                probe.kernel = None
            probe._note_run(system, result, span_id)
            return result

        CmpSystem.__init__ = init
        CmpSystem.run = run_wrapped
        if not self.traced:
            return

        compress = CachedCompressor.compress
        perf = time.perf_counter
        calls, samples = self.calls, self.samples

        @functools.wraps(compress)
        def compress_timed(algorithm, line):
            start = perf()
            out = compress(algorithm, line)
            elapsed = perf() - start
            kernel = probe.kernel
            # The phase being swept attributes the call to the router,
            # NI or tile layer that made it (None outside a sweep).
            key = (ledger.current,
                   kernel._sweep_index if kernel is not None else None)
            acc = calls.get(key)
            if acc is None:
                calls[key] = [elapsed, 1]
            else:
                acc[0] += elapsed
                acc[1] += 1
            if len(samples) < DECOMPRESS_SAMPLES:
                samples.setdefault(bytes(line), (algorithm, out))
            return out

        CachedCompressor.compress = compress_timed

    def _note_run(self, system, result, span_id: int) -> None:
        counters = result.counters_full
        algorithm = system.algorithm
        record = {
            "cycles": result.cycles,
            "run_s": self.ledger.spans[span_id]["seconds"],
            "routers": result.n_routers,
            "kernel": system.kernel.kernel_counters(),
            "kernel_mode": system.kernel.mode,
            "counters": {name: int(counters.get(name, 0))
                         for name in NET_COUNTERS},
            "compress_calls": algorithm.hits + algorithm.misses,
            "memo_hits": algorithm.hits,
        }
        if self.traced:
            kernel = system.kernel
            names = kernel.phases()
            phases: Dict[str, list] = {name: [0.0, 0] for name in names}
            for (phase, _label), seconds in kernel.component_seconds.items():
                phases[phase][0] += seconds
            for (phase, _label), ticks in kernel.component_ticks.items():
                phases[phase][1] += ticks
            record["phases"] = phases
            phase_span = {
                index: self.ledger.aggregate(
                    name, _phase_layer(name), phases[name][0],
                    phases[name][1], span_id,
                )
                for index, name in enumerate(names)
                if phases[name][1]
            }
            self.flush_calls(span_id, phase_span)
        self.runs.append(record)

    def flush_calls(self, run_span: Optional[int] = None,
                    phase_span: Optional[Dict[int, int]] = None) -> None:
        """Turn pending compress timings into aggregate spans."""
        for (parent, phase), (seconds, count) in self.calls.items():
            if parent == run_span and phase is not None:
                parent = phase_span[phase]
            self.ledger.aggregate(
                "compression.compress", "compression", seconds, count, parent
            )
        self.calls.clear()

    def decompress_round_trip(self, failures: List[str]) -> None:
        """Decompress every sampled line the run compressed, timed, and
        check it returns the original bytes."""
        seconds = 0.0
        perf = time.perf_counter
        for line, (algorithm, compressed) in self.samples.items():
            start = perf()
            out = algorithm.decompress(compressed)
            seconds += perf() - start
            if out != line:
                failures.append(f"decompress round trip differs ({algorithm.name})")
        self.ledger.aggregate(
            "compression.decompress", "compression", seconds,
            len(self.samples), self.ledger.current,
        )


def _phase_layer(phase: str) -> str:
    if phase.startswith("net."):
        return "noc"
    if phase.startswith("cmp."):
        return "cmp"
    return "sim"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def work_profile(runs: List[Dict]) -> Dict[str, int]:
    """Deterministic counts: two runs of the same code must agree."""
    total = {"cycles": sum(r["cycles"] for r in runs),
             "compress_calls": sum(r["compress_calls"] for r in runs)}
    for key in ("component_wakes", "wakes_skipped"):
        total[key] = sum(r["kernel"][key] for r in runs)
    for key in ("link_flits", "va_grants", "sa_grants"):
        total[key] = sum(r["counters"][key] for r in runs)
    if runs and all("phases" in r for r in runs):
        total["router_ticks"] = sum(r["phases"]["net.routers"][1] for r in runs)
    return total


def sim_layer_metrics(probe: Probe) -> Dict[str, float]:
    """Per-layer metrics of the simulation layers (traced runs only)."""
    ledger, runs = probe.ledger, probe.runs
    cycles = sum(r["cycles"] for r in runs)
    phases: Dict[str, list] = {}
    for r in runs:
        for name, (seconds, ticks) in r["phases"].items():
            acc = phases.setdefault(name, [0.0, 0])
            acc[0] += seconds
            acc[1] += ticks

    def us_per_tick(name: str) -> float:
        seconds, ticks = phases.get(name, (0.0, 0))
        return _ratio(seconds * 1e6, ticks)

    def counter(name: str) -> int:
        return sum(r["counters"][name] for r in runs)

    router_s, router_ticks = phases.get("net.routers", (0.0, 0))
    wakes = sum(r["kernel"]["component_wakes"] for r in runs)
    skipped = sum(r["kernel"]["wakes_skipped"] for r in runs)
    component_s = sum(seconds for seconds, _ in phases.values())
    kernel_self = sum(r["run_s"] for r in runs) - component_s
    calls = sum(r["compress_calls"] for r in runs)
    return {
        "compression.compress_calls": calls,
        "compression.memo_hit_ratio": _ratio(
            sum(r["memo_hits"] for r in runs), calls),
        "compression.compress_us_per_call": _ratio(
            ledger.total("compression.compress") * 1e6,
            ledger.calls("compression.compress")),
        "compression.decompress_us_per_call": _ratio(
            ledger.total("compression.decompress") * 1e6,
            ledger.calls("compression.decompress")),
        "workloads.trace_gen_s": ledger.total("workloads.generate_traces"),
        "cmp.build_s": ledger.total("cmp.build"),
        "cmp.tile_us_per_tick": us_per_tick("cmp.tiles"),
        "cmp.events_us_per_tick": us_per_tick("cmp.events"),
        "cmp.l1_accesses": counter("l1_accesses"),
        "cmp.bank_reads": counter("bank_reads"),
        "noc.router_ticks_per_cycle": _ratio(router_ticks, cycles),
        "noc.router_us_per_tick": us_per_tick("net.routers"),
        "noc.router_cycles_per_s": _ratio(
            sum(r["routers"] * r["cycles"] for r in runs), router_s),
        "noc.ni_us_per_tick": us_per_tick("net.nis"),
        "noc.arrivals_us_per_tick": us_per_tick("net.arrivals"),
        "noc.flit_hops_per_cycle": _ratio(counter("link_flits"), cycles),
        "noc.va_grants_per_cycle": _ratio(counter("va_grants"), cycles),
        "noc.sa_grants_per_cycle": _ratio(counter("sa_grants"), cycles),
        "noc.sa_grants_per_router_tick": _ratio(counter("sa_grants"),
                                                router_ticks),
        "core.router_compressions": counter("router_compressions"),
        "core.router_decompressions": counter("router_decompressions"),
        "sim.wakes_per_cycle": _ratio(wakes, cycles),
        "sim.wakes_skipped_frac": _ratio(skipped, wakes + skipped),
        "sim.kernel_self_s": kernel_self,
        "sim.us_per_wake": _ratio(kernel_self * 1e6, wakes),
    }


# --------------------------------------------------------------------------
# runner and service probes
# --------------------------------------------------------------------------


def runner_probe(ledger: Ledger, spec_fields: Dict, expected: Optional[str],
                 failures: List[str]) -> Dict[str, float]:
    """Cold, memo-hit and disk-hit ``run_spec`` on one spec.

    The cold overhead is the cold call's span minus its trace-generation,
    build and run children: what the runner adds to a direct simulation.
    """
    from repro.experiments import runner

    spec = runner.RunSpec(**spec_fields)
    runner.clear_cache()
    with ledger.span("runner.run_spec_cold", "runner") as cold:
        result = runner.run_spec(spec)
    digest = runner.result_digest(result)
    children = sum(s["seconds"] for s in ledger.spans if s["parent"] == cold)
    if expected is not None and digest != expected:
        failures.append(f"runner cold run_spec digest differs for {spec_fields}")
    perf = time.perf_counter
    memo = []
    with ledger.span("runner.memo_hits", "runner"):
        for _ in range(MEMO_PROBE_CALLS):
            start = perf()
            runner.run_spec(spec)
            memo.append(perf() - start)
    disk = []
    with ledger.span("runner.disk_hits", "runner"):
        for _ in range(DISK_PROBE_CALLS):
            runner.clear_cache()
            start = perf()
            result = runner.run_spec(spec)
            disk.append(perf() - start)
        if runner.result_digest(result) != digest:
            failures.append(f"runner disk hit digest differs for {spec_fields}")
    return {
        "runner.memo_hit_us": median(memo) * 1e6,
        "runner.disk_hit_ms": median(disk) * 1e3,
        "runner.cold_overhead_ms": (ledger.spans[cold]["seconds"] - children) * 1e3,
    }


def start_service(ledger: Ledger):
    from repro.service.client import ServiceClient
    from repro.service.http import serve
    from repro.service.scheduler import CampaignService

    with ledger.span("service.start", "service"):
        service = CampaignService(
            workers=pool_workers(), rate=ADMIT_RATE, burst=ADMIT_BURST,
            max_queue_depth=QUEUE_BOUND,
        ).start()
        server = serve(service, "127.0.0.1", 0)
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=CLIENT_TIMEOUT_S
    )
    return service, server, client


def stop_service(ledger: Ledger, service, server) -> None:
    """Stop HTTP, drain the service and wait for every pool worker."""
    with ledger.span("service.stop", "service"):
        server.shutdown()
        server.server_close()
        service.shutdown(drain=True, timeout=30.0)
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join(timeout=10.0)


def run_job(ledger: Ledger, client, units: List[Dict]) -> Dict:
    """Submit one job and stream it to ``done``.

    Returns submit/first-result/done times and the streamed digests by
    unit index; a shed or failed unit is listed in ``failures``.
    """
    from repro.service.client import OverloadedError

    record = {"results": {}, "failures": []}
    start = time.perf_counter()
    with ledger.span("service.job", "service"):
        try:
            with ledger.span("service.submit", "service"):
                job_id = client.submit(units, client="perfbench")
            record["submit_s"] = time.perf_counter() - start
            for event in client.stream(job_id):
                kind = event.get("type")
                if kind == "result":
                    record.setdefault("first_s", time.perf_counter() - start)
                    record["results"][event["index"]] = event["digest"]
                elif kind in ("failed", "timeout"):
                    record["failures"].append(f"{kind}: {event}")
                elif kind == "done":
                    break
        except OverloadedError as exc:
            record["failures"].append(f"shed: {exc}")
        except Exception as exc:  # the client keeps going; the job failed
            record["failures"].append(f"job error: {exc!r}")
    record["done_s"] = time.perf_counter() - start
    missing = len(units) - len(record["results"]) - len(record["failures"])
    record["failures"].extend(["no result streamed"] * max(0, missing))
    return record


def service_metrics(service, submit_s: List[float]) -> Dict[str, float]:
    stats = service.stats.counters()
    admission = service.admission.stats.counters()
    return {
        "service.submit_ms": median(submit_s) * 1e3,
        "service.queue_age_ms": _ratio(stats["queue_age_ms_total"],
                                       stats["queue_age_samples"]),
        "service.cache_hit_ratio": _ratio(stats["cache_hits"],
                                          stats["units_completed"]),
        "service.steals": stats["steals"],
        "service.retries": stats["retries"],
        "service.units_shed": admission["units_shed"],
    }


def service_probe(ledger: Ledger, spec_fields: Dict, expected: str,
                  failures: List[str]) -> Dict[str, float]:
    """Jobs of repeats of one (memo-resident) grid spec through the
    service over HTTP."""
    with ledger.span("service.probe", "service"):
        service, server, client = start_service(ledger)
        try:
            submits = []
            for _ in range(PROBE_JOBS):
                record = run_job(ledger, client, [spec_fields] * PROBE_COPIES)
                failures.extend(record["failures"])
                submits.append(record.get("submit_s", 0.0))
                failures.extend(
                    f"service digest differs for {spec_fields}"
                    for digest in record["results"].values()
                    if digest != expected
                )
            metrics = service_metrics(service, submits)
        finally:
            stop_service(ledger, service, server)
    return metrics


# --------------------------------------------------------------------------
# the workloads
# --------------------------------------------------------------------------


def sim_repetition(workload: str, seed: int, traced: bool,
                   rotate: int = 0) -> Dict:
    ledger = Ledger()
    failures: List[str] = []
    out: Dict = {"specs": []}
    with ledger.span("repetition", UNATTRIBUTED) as root:
        with ledger.span("import", "import"):
            import repro.workloads.trace as trace_mod
            from repro.cmp.schemes import make_scheme
            from repro.cmp.system import CmpSystem
            from repro.experiments.runner import RunSpec, result_digest

            probe = Probe(ledger, traced)
            probe.install()
        import_s = time.perf_counter() - T_START
        pinned = workloads.pinned_digests()[workload]
        grid = workloads.GRIDS[workload](seed)
        rotate %= len(grid)
        grid = grid[rotate:] + grid[:rotate]
        for fields in grid:
            start = time.perf_counter()
            name = workloads.label(fields)
            try:
                with ledger.span("spec", UNATTRIBUTED):
                    spec = RunSpec(**fields)
                    config = spec.config()
                    scheme = make_scheme(spec.scheme, algorithm=spec.algorithm)
                    traces = trace_mod.generate_traces(
                        spec.profile(), config.n_cores, spec.accesses_per_core,
                        seed=spec.seed, line_size=config.line_size,
                    )
                    system = CmpSystem(config, scheme, traces,
                                       warmup_fraction=spec.warmup_fraction)
                    result = system.run()
                    with ledger.span("runner.result_digest", "runner"):
                        digest = result_digest(result)
            except Exception as exc:  # a failed spec is counted, not fatal
                failures.append(f"{name}: {exc!r}")
                continue
            done = time.perf_counter()
            if digest != pinned.get(name):
                failures.append(f"{name}: digest {digest[:12]} differs from "
                                f"pinned {str(pinned.get(name))[:12]}")
            out["specs"].append({
                "label": name, "scheme": spec.scheme,
                "workload": spec.workload, "seconds": done - start,
                "avg_miss_latency": result.avg_miss_latency,
            })
        grid_end = time.perf_counter()
        probe.flush_calls()
        out["attempted"] = len(grid)
        out["setup_s"] = (import_s + ledger.total("workloads.generate_traces")
                          + ledger.total("cmp.build"))
        out["figure_s"] = grid_end - T_START
        out["run_s"] = sum(r["run_s"] for r in probe.runs)
        out["sim_cycles"] = sum(r["cycles"] for r in probe.runs)
        out["kernel_mode"] = probe.runs[0]["kernel_mode"] if probe.runs else "?"
        out["work"] = work_profile(probe.runs)
        if traced:
            layers = sim_layer_metrics(probe)
            digests = ledger.durations("runner.result_digest")
            with ledger.span("probes", UNATTRIBUTED):
                probe.decompress_round_trip(failures)
                layers["compression.decompress_us_per_call"] = _ratio(
                    ledger.total("compression.decompress") * 1e6,
                    ledger.calls("compression.decompress"))
                first = grid[0]
                expected = pinned.get(workloads.label(first))
                layers.update(runner_probe(ledger, first, expected, failures))
                layers["runner.result_digest_ms"] = median(digests) * 1e3
                layers.update(service_probe(ledger, first, expected, failures))
                out["attempted"] += (2 + PROBE_JOBS * PROBE_COPIES
                                     + len(probe.samples))
            out["layers"] = layers
    out["failures"] = failures
    out["wall_s"] = ledger.spans[root]["seconds"]
    out["spans"] = ledger.spans if traced else None
    out["reconcile"] = ledger.reconcile() if traced else None
    return out


def campaign_client(seed: int, url: str) -> Dict:
    """The closed-loop client: each job is submitted only after the
    previous one streamed ``done``."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=CLIENT_TIMEOUT_S)
    out: Dict = {"jobs": [], "results": [], "failures": [], "submits": []}
    start = time.perf_counter()
    for units in workloads.campaign_plan(seed).jobs:
        record = run_job(Ledger(), client, units)
        out["failures"].extend(record["failures"])
        out["results"].extend(
            [workloads.label(units[index]), digest]
            for index, digest in record["results"].items()
        )
        if "first_s" in record:
            out["jobs"].append({"first_s": record["first_s"],
                                "done_s": record["done_s"]})
            out["submits"].append(record["submit_s"])
    out["loop_s"] = time.perf_counter() - start
    return out


def campaign_repetition(seed: int, traced: bool, client_out: str) -> Dict:
    """The service, with its warm-up job submitted from this process
    (set-up) and the measured jobs from a separate client process, so
    the client never contends with the service for this interpreter."""
    ledger = Ledger()
    failures: List[str] = []
    plan = workloads.campaign_plan(seed)
    with ledger.span("repetition", UNATTRIBUTED) as root:
        with ledger.span("import", "import"):
            from repro.experiments import runner

            probe = Probe(ledger, traced)
            if traced:
                # Only the runner probe needs the spans; untraced, the
                # forked pool workers must run the program unwrapped.
                probe.install()
        service, server, client = start_service(ledger)
        try:
            warm = run_job(ledger, client, plan.warmup)
            failures.extend(warm["failures"])
            setup_s = time.perf_counter() - T_START
            with ledger.span("service.jobs", "service"):
                subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", "campaign_service", "--seed", str(seed),
                     "--mode", "client", "--url", client.base_url,
                     "--out", client_out],
                    check=True, timeout=CLIENT_RUN_TIMEOUT_S,
                )
            with open(client_out) as handle:
                out = json.load(handle)
            stats = service.stats.counters()
            out["results"] += [
                [workloads.label(plan.warmup[index]), digest]
                for index, digest in warm["results"].items()
            ]
            out.update({
                "setup_s": setup_s,
                "figure_s": setup_s + out["loop_s"],
                "units_completed": len(out["results"]) - len(warm["results"]),
                "attempted": sum(len(units) for units in plan.jobs)
                + len(plan.warmup),
                "work": {
                    "units": stats["units_completed"],
                    "cache_hits": stats["cache_hits"],
                    "fresh_units": stats["units_completed"] - stats["cache_hits"],
                },
            })
            if traced:
                layers = service_metrics(service, out["submits"])
        finally:
            stop_service(ledger, service, server)
        if traced:
            with ledger.span("probes", UNATTRIBUTED):
                digests = []
                for name, _digest in out["results"][:20]:
                    result = runner.run_spec(runner.RunSpec(**json.loads(name)))
                    start = time.perf_counter()
                    runner.result_digest(result)
                    digests.append(time.perf_counter() - start)
                layers.update(runner_probe(ledger, plan.probe, None, failures))
                layers["runner.result_digest_ms"] = median(digests) * 1e3
                out["attempted"] += 2 + len(probe.samples)
            out["layers"] = layers
    out["failures"] += failures
    out["wall_s"] = ledger.spans[root]["seconds"]
    out["spans"] = ledger.spans if traced else None
    out["reconcile"] = ledger.reconcile() if traced else None
    return out


def campaign_reference(seed: int, traced: bool) -> Dict:
    """Every spec of the plan through ``run_spec``: the digests the
    service's streamed results must match, and the simulation layers."""
    ledger = Ledger()
    failures: List[str] = []
    digests: Dict[str, str] = {}
    with ledger.span("repetition", UNATTRIBUTED) as root:
        with ledger.span("import", "import"):
            from repro.experiments import runner

            probe = Probe(ledger, traced)
            probe.install()
        specs = workloads.campaign_plan(seed).distinct()
        for fields in specs:
            name = workloads.label(fields)
            try:
                result = runner.run_spec(runner.RunSpec(**fields))
            except Exception as exc:  # counted as a failed operation
                failures.append(f"{name}: {exc!r}")
                continue
            with ledger.span("runner.result_digest", "runner"):
                digests[name] = runner.result_digest(result)
        probe.flush_calls()
        out = {
            "digests": digests,
            "sim_cycles_per_s": (sum(r["cycles"] for r in probe.runs)
                                 / sum(r["run_s"] for r in probe.runs)),
            "kernel_mode": probe.runs[0]["kernel_mode"] if probe.runs else "?",
            "work": work_profile(probe.runs),
        }
        if traced:
            with ledger.span("probes", UNATTRIBUTED):
                probe.decompress_round_trip(failures)
            out["layers"] = sim_layer_metrics(probe)
    out["failures"] = failures
    out["attempted"] = len(specs) + len(probe.samples)
    out["wall_s"] = ledger.spans[root]["seconds"]
    out["spans"] = ledger.spans if traced else None
    out["reconcile"] = ledger.reconcile() if traced else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=(
        "untraced", "traced", "reference", "reference-traced", "client"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--url", help="service address (client mode)")
    parser.add_argument(
        "--rotate", type=int, default=0,
        help="start the grid at this position; the repetitions of a run "
             "rotate it, so each spec runs at several positions")
    args = parser.parse_args(argv)
    traced = args.mode in ("traced", "reference-traced")
    if args.mode.startswith("reference") or args.mode == "client":
        if args.workload != "campaign_service":
            parser.error(f"{args.mode} mode exists for campaign_service only")
    if args.mode == "client":
        out = campaign_client(args.seed, args.url)
    elif args.mode.startswith("reference"):
        out = campaign_reference(args.seed, traced)
    elif args.workload == "campaign_service":
        out = campaign_repetition(args.seed, traced, args.out + ".client")
    else:
        out = sim_repetition(args.workload, args.seed, traced, args.rotate)
    out["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
