"""The repository's benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_mesh4 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload campaign_service --seed 3 --seconds 40 --trace 1

Each repetition runs in a fresh process (``perfbench/rep.py``); the
benchmark repeats until ``--seconds`` are spent (at least
:data:`MIN_REPS` times), reports medians, checks every simulated result,
and checks that the deterministic work profile of every repetition is
identical.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
one untraced and one traced repetition and the per-layer metrics.  The
last line of standard output is the result as one JSON object; the
metric names and units come from ``BENCHMARK.json``.  See
``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from ledger import median, percentile, valid_metric_name  # noqa: E402

MIN_REPS = 3
#: Every run must end well inside the 180 s the result contract allows.
HARD_LIMIT_S = 170.0
#: Where traced runs leave their span files (kept after the run).
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
PROFILE_STORE = WORK_DIR / "work_profiles.json"

#: Quoted next to the measured DISCO-vs-CC gap on fig5_mesh4 (paper §4.2).
PAPER_DISCO_VS_CC = 0.12


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


def refuse_knobs(environ=os.environ) -> None:
    """Every ``REPRO_*`` variable changes what is measured (kernel mode,
    pool size, cache location, timeouts, logging...): refuse them all."""
    knobs = sorted(name for name in environ if name.startswith("REPRO_"))
    if knobs:
        raise BenchmarkError(
            "refusing to run with " + ", ".join(knobs) + " set: each REPRO_* "
            "knob changes what is measured; unset it"
        )


def source_fingerprint() -> str:
    """Digest of the program and of the benchmark, which makes its inputs."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Spawns repetitions and keeps every process it starts accounted for."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0

    def rep(self, mode: str, rotate: int = 0) -> Dict:
        self.count += 1
        out = self.work / f"rep{self.count}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        if mode.startswith("reference"):
            env["REPRO_DISK_CACHE"] = "0"
        env["REPRO_CACHE_DIR"] = str(self.work / f"cache{self.count}")
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--mode", mode,
               "--rotate", str(rotate), "--out", str(out)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before a repetition could start")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Reap anything the repetition left in its session (pool
            # workers), then the repetition itself.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise BenchmarkError(
                f"{mode} repetition of {self.workload} "
                + ("timed out" if code is None else f"exited with {code}")
            )
        with open(out) as handle:
            result = json.load(handle)
        result["process_s"] = time.perf_counter() - start
        return result


def check_work_profiles(reps: List[Dict], key: str) -> List[str]:
    """Counts must agree exactly between repetitions and with any earlier
    run of the same code on the same inputs; returns one line per
    disagreeing counter."""
    errors = []
    profiles = [rep["work"] for rep in reps if rep.get("work")]
    for name in sorted({n for p in profiles for n in p}):
        values = {p[name] for p in profiles if name in p}
        if len(values) > 1:
            errors.append(f"work counter {name} differs between repetitions: "
                          f"{sorted(values)}")
    try:
        store = json.loads(PROFILE_STORE.read_text())
    except (OSError, ValueError):
        store = {}
    earlier = store.get(key, {})
    merged = dict(earlier)
    for profile in profiles:
        for name, value in profile.items():
            if name in earlier and earlier[name] != value:
                errors.append(f"work counter {name} differs from an earlier "
                              f"run of the same code: {value} != {earlier[name]}")
            merged[name] = value
    store[key] = merged
    PROFILE_STORE.parent.mkdir(parents=True, exist_ok=True)
    tmp = PROFILE_STORE.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    tmp.replace(PROFILE_STORE)
    return errors


def error_rate(failures: List[str], attempted: int) -> float:
    return len(failures) / attempted if attempted else 1.0


def pct(values: List[float], q: float, name: str, lines: List[str]):
    result = percentile(values, q)
    lines.append(f"  {name}: p{round(q * 100)} over {result.samples} samples "
                 f"({result.beyond} beyond)")
    return result.value


def sim_e2e(reps: List[Dict], lines: List[str]) -> Dict[str, float]:
    """One job is one spec, so its first result is its only result: the
    job percentiles are taken over each spec's median time."""
    by_spec: Dict[str, List[float]] = {}
    for rep in reps:
        for spec in rep["specs"]:
            by_spec.setdefault(spec["label"], []).append(spec["seconds"])
    per_spec = [median(times) for times in by_spec.values()]
    note = f"one job = one spec, median of {len(reps)} repetitions each"
    job_p50 = pct(per_spec, 0.5, f"job_p50_s = first_result_p50_s ({note})",
                  lines)
    return {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "figure_s": median(rep["figure_s"] for rep in reps),
        "sim_cycles_per_s": median(rep["sim_cycles"] / rep["run_s"]
                                   for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        "first_result_p50_s": job_p50,
        "job_p50_s": job_p50,
        "job_p90_s": pct(per_spec, 0.9, f"job_p90_s ({note})", lines),
        "units_per_s": median(len(rep["specs"]) / rep["figure_s"]
                              for rep in reps),
    }


def campaign_e2e(reps: List[Dict], references: List[Dict],
                 lines: List[str]) -> Dict[str, float]:
    jobs = [job for rep in reps for job in rep["jobs"]]
    return {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "figure_s": median(rep["figure_s"] for rep in reps),
        "sim_cycles_per_s": median(ref["sim_cycles_per_s"]
                                   for ref in references),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        "first_result_p50_s": pct([j["first_s"] for j in jobs], 0.5,
                                  "first_result_p50_s", lines),
        "job_p50_s": pct([j["done_s"] for j in jobs], 0.5, "job_p50_s", lines),
        "job_p90_s": pct([j["done_s"] for j in jobs], 0.9, "job_p90_s", lines),
        "units_per_s": median(rep["units_completed"] / rep["loop_s"]
                              for rep in reps),
    }


def campaign_failures(reps: List[Dict], references: List[Dict]) -> List[str]:
    """Every streamed digest against ``run_spec``'s digest of the spec,
    and every reference process against the first."""
    failures = [f for run in [*reps, *references] for f in run["failures"]]
    digests = references[0]["digests"]
    for ref in references[1:]:
        failures.extend(
            f"run_spec digest of {name} differs between reference processes"
            for name, digest in ref["digests"].items()
            if digests.get(name) != digest
        )
    for rep in reps:
        failures.extend(
            f"streamed digest differs from run_spec for {name}"
            for name, digest in rep["results"] if digests.get(name) != digest
        )
    return failures


def disco_vs_cc(reps: List[Dict]) -> Optional[float]:
    """1 - DISCO/CC of the geomean ideal-normalized miss latency."""
    latency = {(s["workload"], s["scheme"]): s["avg_miss_latency"]
               for s in reps[0]["specs"]}
    ratios = {}
    for scheme in ("cc", "disco"):
        product, count = 1.0, 0
        for workload in workloads.FIG5_WORKLOADS:
            if (workload, scheme) in latency and (workload, "ideal") in latency:
                product *= latency[workload, scheme] / latency[workload, "ideal"]
                count += 1
        if not count:
            return None
        ratios[scheme] = product ** (1.0 / count)
    return 1.0 - ratios["disco"] / ratios["cc"]


def ledger_lines(rep: Dict, label: str) -> List[str]:
    """The traced wall-clock as layer self times plus named remainders."""
    rec = rep["reconcile"]
    lines = [f"layer ledger ({label}): self seconds by layer"]
    for layer, seconds in sorted(rec["layers"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:14s} {seconds:9.4f} s "
                     f"{seconds / rec['wall_s']:6.1%}")
    start_exit = rep["process_s"] - rec["wall_s"]
    lines.append(f"  {'process start/exit':14s} {start_exit:9.4f} s (named remainder)")
    lines.append(f"  sum of layers {rec['sum_s']:.4f} s = spans' wall "
                 f"{rec['wall_s']:.4f} s; + start/exit = process wall "
                 f"{rep['process_s']:.4f} s")
    if rec["negative"]:
        lines.append(f"  WARNING spans outlasting their parent: {rec['negative']}")
    return lines


def write_spans(workload: str, seed: int, label: str, rep: Dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-{label}-spans.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": rep["spans"],
                                "reconcile": rep["reconcile"]}))
    return path


def measure(args, runner: Runner, fingerprint: str, lines: List[str]):
    """Returns (metrics, attempted, failures, correctness errors)."""
    campaign = args.workload == "campaign_service"
    errors: List[str] = []
    if args.trace:
        plain = runner.rep("untraced")
        traced = runner.rep("traced")
        reps = [plain, traced]
        metrics = dict(traced["layers"])
        baseline = plain["loop_s"] if campaign else plain["figure_s"]
        measured = traced["loop_s"] if campaign else traced["figure_s"]
        metrics["telemetry.trace_overhead_frac"] = measured / baseline - 1.0
        ledgers = [("repetition", traced)]
        if campaign:
            references = [runner.rep("reference-traced")]
            metrics.update(references[0]["layers"])
            ledgers.append(("reference", references[0]))
        for label, rep in ledgers:
            lines.extend(ledger_lines(rep, label))
            lines.append(f"  spans written to "
                         f"{write_spans(args.workload, args.seed, label, rep)}")
    else:
        # campaign_service: each repetition is a service process plus a
        # run_spec reference process, so the reference samples the host
        # across the whole run like the service does.
        started = time.monotonic()
        reps, references = [], []
        while True:
            rep_start = time.monotonic()
            if campaign:
                references.append(runner.rep("reference"))
            reps.append(runner.rep("untraced", rotate=len(reps)))
            spent = time.monotonic() - started
            if (len(reps) >= MIN_REPS
                    and spent + time.monotonic() - rep_start > args.seconds):
                break
        lines.append(f"repetitions: {len(reps)} fresh processes"
                     + (" (+ as many references)" if campaign else ""))
        for field in ("setup_s", "figure_s"):
            lines.append(f"  {field} per repetition: "
                         + " ".join(f"{rep[field]:.4f}" for rep in reps))
        if campaign:
            metrics = campaign_e2e(reps, references, lines)
        else:
            metrics = sim_e2e(reps, lines)
    if campaign:
        failures = campaign_failures(reps, references)
        attempted = sum(rep["attempted"] for rep in [*reps, *references])
        profiled = [(reps, f"{args.workload}:{args.seed}:service"),
                    (references, f"{args.workload}:{args.seed}:sim")]
    else:
        failures = [f for rep in reps for f in rep["failures"]]
        attempted = sum(rep["attempted"] for rep in reps)
        # The grid order does not change the counts: one key per workload.
        profiled = [(reps, f"{args.workload}:sim")]
    for group, key in profiled:
        errors += check_work_profiles(group, f"{key}:{fingerprint}")
        work = group[0]["work"]
        base = work.get("cycles") or work.get("units")
        per = "cycle" if "cycles" in work else "unit"
        for name, value in sorted(work.items()):
            ratio = ("" if name in ("cycles", "units")
                     else f" ({value / base:.6f}/{per})")
            lines.append(f"work profile: {name} = {value}{ratio}")
    metrics["error_rate"] = error_rate(failures, attempted)
    if args.workload == "fig5_mesh4":
        gap = disco_vs_cc(reps)
        if gap is not None:
            lines.append(
                f"DISCO vs CC: {gap:+.1%} lower normalized miss latency "
                f"(paper: ~{PAPER_DISCO_VS_CC:.0%}); the model is otherwise "
                "unvalidated against hardware"
            )
    lines.append(
        f"environment: kernel mode {profiled[-1][0][0]['kernel_mode']}, "
        f"python {platform.python_version()}, "
        f"nproc {len(os.sched_getaffinity(0))}"
    )
    for failure in failures[:20]:
        lines.append(f"FAILED: {failure}")
    return metrics, attempted, failures, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        refuse_knobs()
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"program source {ROOT / 'src' / 'repro'} "
                                 "is missing")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        bad = [name for name in units if not valid_metric_name(name)]
        if bad:
            raise BenchmarkError(f"invalid metric names in BENCHMARK.json: {bad}")
        fingerprint = source_fingerprint()[:16]
        work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        lines: List[str] = [f"workload {args.workload}, seed {args.seed}, "
                            f"source {fingerprint}, "
                            f"{'traced' if args.trace else 'untraced'}"]
        try:
            runner = Runner(args.workload, args.seed, work, deadline)
            metrics, attempted, failures, errors = measure(
                args, runner, fingerprint, lines)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for error in errors:
        lines.append(f"ERROR: {error}")
    for name in units:
        if name in metrics:
            lines.append(f"{name} = {metrics[name]:.6g} {units[name]}")
    if "error_rate" not in units:
        lines.append(f"error_rate = {metrics['error_rate']:.6g} "
                     f"({len(failures)} failed of {attempted} attempted)")
    print("\n".join(lines))
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
