"""Self-tests of the benchmark (``python3 -m pytest perfbench -q``)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SPEC = {"scheme": "disco", "workload": "blackscholes", "width": 2,
             "height": 2, "accesses_per_core": 30, "seed": 7}


def declared(kind):
    return [metric["name"] for metric in BENCHMARK[kind]]


def test_metric_names_match_the_contract_alphabet():
    names = declared("end_to_end") + declared("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert ledger.valid_metric_name(name), name
    assert not ledger.valid_metric_name("noc.router us")
    assert not ledger.valid_metric_name(".hidden")


def test_layer_metric_functions_emit_declared_names():
    runs = [{
        "cycles": 100, "run_s": 0.5, "routers": 4, "memo_hits": 3,
        "compress_calls": 4, "kernel_mode": "event",
        "kernel": {"component_wakes": 50, "wakes_skipped": 2},
        "counters": {name: 7 for name in rep.NET_COUNTERS},
        "phases": {"net.routers": [0.2, 40], "net.nis": [0.1, 10],
                   "net.arrivals": [0.05, 5], "cmp.tiles": [0.05, 5],
                   "cmp.events": [0.01, 1]},
    }]
    probe = SimpleNamespace(ledger=ledger.Ledger(), runs=runs)
    counters = {"queue_age_ms_total": 6, "queue_age_samples": 3,
                "cache_hits": 1, "units_completed": 2, "steals": 0,
                "retries": 0}
    service = SimpleNamespace(
        stats=SimpleNamespace(counters=lambda: counters),
        admission=SimpleNamespace(stats=SimpleNamespace(
            counters=lambda: {"units_shed": 0})),
    )
    names = set(rep.sim_layer_metrics(probe)) | set(
        rep.service_metrics(service, [0.01, 0.02]))
    assert names <= set(declared("per_layer"))
    assert rep.sim_layer_metrics(probe)["sim.kernel_self_s"] == pytest.approx(0.09)


def test_percentiles_carry_their_sample_counts():
    p90 = ledger.percentile(range(1, 11), 0.9)
    assert p90 == (pytest.approx(9.1), 10, 1)
    tail = ledger.percentile(range(200), 0.9)
    assert tail.samples == 200 and tail.beyond == 20
    assert ledger.median([3, 1, 2]) == 2
    lines = []
    assert run.pct([1.0, 2.0, 3.0], 0.5, "job_p50_s", lines) == 2.0
    assert lines == ["  job_p50_s: p50 over 3 samples (1 beyond)"]
    with pytest.raises(ValueError):
        ledger.percentile([], 0.5)


def test_self_times_reconcile_with_the_root():
    book = ledger.Ledger()
    root = book.aggregate("repetition", ledger.UNATTRIBUTED, 10.0, 1, None)
    run_span = book.aggregate("cmp.run", "sim", 8.0, 1, root)
    phase = book.aggregate("net.routers", "noc", 5.0, 100, run_span)
    book.aggregate("compression.compress", "compression", 1.0, 10, phase)
    result = book.reconcile()
    assert result["layers"] == {ledger.UNATTRIBUTED: 2.0, "sim": 3.0,
                                "noc": 4.0, "compression": 1.0}
    assert result["sum_s"] == pytest.approx(result["wall_s"]) == 10.0
    assert result["negative"] == []
    book.aggregate("cmp.build", "cmp", 4.0, 1, run_span)
    assert book.reconcile()["negative"] == ["cmp.run"]


def _repetition_with_pin(pin_digest: str) -> dict:
    """A one-spec fig5_mesh4 repetition (in a fresh process) whose pinned
    digest is ``pin_digest`` (``None``: the spec's true digest)."""
    code = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import rep, workloads
from repro.experiments.runner import RunSpec, result_digest, run_spec
spec = {TINY_SPEC!r}
pin = {pin_digest!r} or result_digest(run_spec(RunSpec(**spec)))
workloads.GRIDS["fig5_mesh4"] = lambda seed: [dict(spec)]
workloads.pinned_digests = lambda: {{"fig5_mesh4": {{workloads.label(spec): pin}}}}
out = rep.sim_repetition("fig5_mesh4", 0, traced=False)
print(json.dumps({{"failures": out["failures"], "attempted": out["attempted"]}}))
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_DISK_CACHE"] = "0"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_perturbed_pinned_digest_counts_in_error_rate():
    clean = _repetition_with_pin(None)
    assert clean["failures"] == []
    assert run.error_rate(clean["failures"], clean["attempted"]) == 0.0
    perturbed = _repetition_with_pin("0" * 64)
    assert len(perturbed["failures"]) == 1
    assert "differs from pinned" in perturbed["failures"][0]
    assert run.error_rate(perturbed["failures"], perturbed["attempted"]) > 0


def test_a_streamed_digest_that_differs_from_run_spec_is_a_failure():
    name = workloads.label(TINY_SPEC)
    reps = [{"failures": [], "results": [[name, "a" * 64]]}]
    references = [{"failures": [], "digests": {name: "a" * 64}}]
    assert run.campaign_failures(reps, references) == []
    references.append({"failures": [], "digests": {name: "b" * 64}})
    assert len(run.campaign_failures(reps, references)) == 1
    references[0]["digests"][name] = "b" * 64
    assert len(run.campaign_failures(reps, references)) == 1


def test_work_counter_disagreement_names_the_counter(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PROFILE_STORE", tmp_path / "profiles.json")
    same = [{"work": {"cycles": 10, "sa_grants": 4}}] * 2
    assert run.check_work_profiles(same, "k") == []
    errors = run.check_work_profiles([{"work": {"cycles": 10, "sa_grants": 5}}],
                                     "k")
    assert len(errors) == 1 and "sa_grants" in errors[0]
    errors = run.check_work_profiles(
        [{"work": {"va_grants": 1}}, {"work": {"va_grants": 2}}], "other")
    assert len(errors) == 1 and "va_grants" in errors[0]


def test_repro_knobs_are_refused_by_name():
    run.refuse_knobs({"PATH": "/bin"})
    with pytest.raises(run.BenchmarkError, match="REPRO_KERNEL_MODE"):
        run.refuse_knobs({"REPRO_KERNEL_MODE": "tick"})


def test_inputs_are_a_function_of_the_seed():
    assert workloads.campaign_plan(5) == workloads.campaign_plan(5)
    assert workloads.campaign_plan(5) != workloads.campaign_plan(6)
    plan = workloads.campaign_plan(5)
    seen = {workloads.label(spec) for spec in plan.warmup}
    for units in plan.jobs:
        labels = [workloads.label(spec) for spec in units]
        fresh = [name for name in labels if name not in seen]
        assert len(fresh) == workloads.CAMPAIGN_SHAPE.count("fresh")
        seen.update(fresh)
    assert workloads.label(plan.probe) not in seen
    mix = {(spec["scheme"], spec["workload"]) for spec in plan.distinct()}
    assert len(mix) == (len(workloads.CAMPAIGN_SCHEMES)
                        * len(workloads.CAMPAIGN_WORKLOADS))
    for name, grid in workloads.GRIDS.items():
        assert grid(3) == grid(3)
        labels = sorted(workloads.label(spec) for spec in grid(3))
        assert labels == sorted(workloads.pinned_digests()[name])
