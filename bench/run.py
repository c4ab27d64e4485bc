"""Benchmark of the premonoids CLI: two closed-loop workloads, one client.

Usage:
    python3 bench/run.py --workload tables --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload tables --smoke      # one job per command
    python3 bench/run.py --record                       # rewrite expected.json

Run from the root of a checkout. A run makes passes over the workload's job
list until ``--seconds`` is used up (at least MIN_PASSES). Each pass runs in a
fresh Python process (``bench/worker.py``), so no cache survives between
passes and peak memory is per workload. Every job's output is checked (see
``bench/workloads.py``); a job whose output differs from the first pass's is
a failure too, which catches output that depends on the hash seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones. Their times are scaled to the reference speed of
``bench/speed.py`` by the speed probe run between jobs; a command's time is
the sum over its jobs of each job's median over the run's passes. With
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer metrics of ``bench/tracing.py`` (medians over traced passes, not
scaled), ``trace.overhead_ratio``, the traced over the untraced median pass
time, and ``trace.probe_s``, the median probe time of the untraced passes.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7  # set-up only passes top the set-up samples of a run up to this
RUN_LIMIT_S = 170  # every run must end within 180 s
COMMAND_METRICS = {f"{c}_s": c for c in ("describe", "factorize", "classify", "verify")}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    **{name: "s" for name in COMMAND_METRICS},
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class PassError(Exception):
    """A worker process that did not produce a report."""


def run_pass(workload: str, seed: int, trace: bool, mode: str, deadline: float) -> dict:
    """One worker process; ``mode`` is ``full``, ``smoke`` or ``setup``."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(trace)), mode, str(scratch)]
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(
            argv + [str(spawn_ns)],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PassError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        if trace:
            shutil.copyfile(scratch / "spans.jsonl", WORK / f"spans-{workload}.jsonl")
        return report
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not finish within the {RUN_LIMIT_S} s run limit") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    mode = "smoke" if smoke else "full"
    plain, traced = [], []
    while True:
        is_traced = trace and len(traced) < len(plain)
        (traced if is_traced else plain).append(run_pass(workload, seed, is_traced, mode, deadline))
        passes = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        if smoke and (not trace or traced):
            break
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break

    reports = plain + traced
    attempted = sum(len(r["jobs"]) for r in reports)
    failures = []
    first = {j["key"]: j["sha256"] for j in reports[0]["jobs"]}
    for r in reports:
        for j in r["jobs"]:
            if j["failure"] is None and j["sha256"] != first[j["key"]]:
                j["failure"] = "stdout differs from the first pass of this run"
            if j["failure"] is not None:
                failures.append(f"{j['key']}: {j['failure']}")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)

    if trace:
        metrics = _layer_metrics(plain, traced)
    else:
        setups = [_scaled(r["setup_ns"], r["probe_ns"][:1]) for r in plain]
        while not smoke and len(setups) < SETUP_SAMPLES:
            r = run_pass(workload, seed, False, "setup", deadline)
            setups.append(_scaled(r["setup_ns"], r["probe_ns"][:1]))
        metrics = _end_to_end(plain, setups, attempted, len(failures))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _scaled(ns: int, probe_ns: list) -> float:
    """A time in seconds of the reference speed (``speed.py``): ``ns`` scaled
    by the reference probe time over the mean of the probes ``probe_ns``."""
    return ns / statistics.fmean(probe_ns) * speed.REFERENCE_S


def _job_medians(reports) -> dict:
    """Each job's median scaled time over the passes, by (command, key).

    A job's time is scaled by the mean of the two probes before it and the
    two after it: the machine's speed around the job. The median over the
    passes then drops the passes that met a slow spell the probes missed."""
    samples = {}
    for r in reports:
        probes = r["probe_ns"]
        for i, j in enumerate(r["jobs"]):
            t = _scaled(j["ns"], probes[max(0, i - 1):i + 3])
            samples.setdefault((j["command"], j["key"]), []).append(t)
    return {job: statistics.median(times) for job, times in samples.items()}


def _end_to_end(reports, setups, attempted: int, failed: int) -> dict:
    # a command's time sums its jobs' medians
    medians = _job_medians(reports)
    values = {
        "wall_s": sum(medians.values()),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024 for r in reports]),
        "ok_ratio": (attempted - failed) / attempted,
    }
    for name, command in COMMAND_METRICS.items():
        values[name] = sum(t for (c, _), t in medians.items() if c == command)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _layer_metrics(plain, traced) -> dict:
    out = {}
    for name in tracing.metric_names():
        if name == "trace.overhead_ratio":
            value = _median([r["wall_ns"] for r in traced]) / _median([r["wall_ns"] for r in plain])
        elif name == "trace.probe_s":
            value = _median([ns / 1e9 for r in plain for ns in r["probe_ns"]])
        else:
            samples = [r["layers"].get(name) for r in traced]
            value = None if None in samples else _median(samples)
        entry = {"value": value, "unit": tracing.metric_unit(name)}
        if value is None:
            entry["absent"] = True
        out[name] = entry
    return out


def record() -> int:
    """Rewrite expected.json from one pass per workload at the default seed."""
    expected = {}
    for workload in workloads.WORKLOADS:
        report = run_pass(workload, workloads.DEFAULT_SEED, False, "full", time.monotonic() + 900)
        expected[workload] = {
            j["key"]: {"code": j["code"], "sha256": j["sha256"], "invariant": j["invariant"]}
            for j in report["jobs"]
        }
        print(f"recorded {workload}: {len(report['jobs'])} jobs", file=sys.stderr)
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short pass of one job per command")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json at the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "premonoids" / "cli.py").is_file():
        print(f"error: no premonoids sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
