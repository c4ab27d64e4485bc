"""Self-test of the benchmark. Run with: python3 -m pytest bench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_job_times_are_scaled_by_the_probes_around_them():
    ref_ns = speed.REFERENCE_S * 1e9

    def report(slowdown):
        jobs = [("describe", "a", 1e9), ("verify", "b", 2e9), ("verify", "c", 3e9)]
        return {
            "probe_ns": [ref_ns * slowdown] * 4,
            "jobs": [{"command": c, "key": k, "ns": ns * slowdown} for c, k, ns in jobs],
        }

    # a pass on a machine at half speed reads the same as one at reference speed
    medians = run._job_medians([report(1), report(2), report(1)])
    assert medians == pytest.approx({("describe", "a"): 1.0, ("verify", "b"): 2.0, ("verify", "c"): 3.0})
    # an unscaled slow pass is outvoted by the median
    slow = report(1)
    slow["jobs"][0]["ns"] *= 3
    assert run._job_medians([report(1), slow, report(1)])[("describe", "a")] == pytest.approx(1.0)


def test_numerical_recurrence_known_values():
    assert workloads.numerical_lengths((3, 5, 7), 30) == {6, 8, 10}
    assert workloads.numerical_lengths((2, 3), 6) == {2, 3}
    assert workloads.numerical_lengths((2, 3), 1) == set()
    # 6 = 3 + 3 is not an atom of <3, 6, 7>
    assert workloads.numerical_lengths((3, 6, 7), 13) == {3}


def test_seeded_inputs_repeat_and_vary(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d, seed in ((a, 4), (b, 4), (c, 5)):
        d.mkdir()
        workloads.build("tables", seed, d)
    assert (a / "chain-index.json").read_text() == (b / "chain-index.json").read_text()
    assert (a / "chain-index.json").read_text() != (c / "chain-index.json").read_text()


def test_missing_function_is_reported_absent():
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
        "import premonoids.cli, premonoids.words as w, tracing\n"
        "del w.erdos_rado_scan\n"
        "t = tracing.install()\n"
        "m = t.metrics()\n"
        "assert m['words.erdos_rado_scan_s'] is None, m\n"
        "assert m['words.class_reps_s'] == 0.0, m\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
