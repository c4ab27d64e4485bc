"""Every family specifier through describe and classify, expecting clean JSON."""
import hashlib
import json
from pathlib import Path

import pytest

from premonoids.cli import main

FAMILIES = [
    "zn:1",
    "zn:4",
    "zn:9",
    "powerN:6",
    "b:c2:1",
    "b:c3:1,2",
    "b:c4:1,2,3",
    "b:dinf:",
    "numerical:2,3",
    "numerical:3,5,7",
    "n2sub:3",
    "remarkN:10",
]


@pytest.mark.parametrize("spec", FAMILIES)
def test_describe_families(spec, capsys):
    assert main(["describe", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["instance"] == spec


@pytest.mark.parametrize("spec", FAMILIES)
def test_classify_families(spec, capsys):
    assert main(["classify", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagram_violations"] == []


@pytest.mark.parametrize("spec", ["zn:4", "powerN:6", "numerical:2,3", "remarkN:10"])
def test_verify_families(spec, capsys):
    assert main(["verify", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is True


# the describe jobs of the benchmark's families workload that read no
# generated input file, by job name
BENCH_DESCRIBE_JOBS = {
    "describe b:c3:1,2": ["describe", "b:c3:1,2"],
    "describe b:c4:1,2,3": ["describe", "b:c4:1,2,3"],
    "describe b:dinf:": ["describe", "b:dinf:"],
    "describe present:xy": ["describe", "present:xy:x2=yx2y:9"],
    "describe present:xyz": ["describe", "present:xyz:xy=yx,xz=zx:7"],
}


@pytest.mark.parametrize("job", sorted(BENCH_DESCRIBE_JOBS))
def test_bench_describe_jobs_match_the_recorded_digests(job, capsys):
    """Stdout is byte for byte what the benchmark recorded, so output drift
    shows without a benchmark run; the recording is only read here."""
    recorded = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    expected = json.loads(recorded.read_text(encoding="utf-8"))["families"][job]
    assert main(BENCH_DESCRIBE_JOBS[job]) == expected["code"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected["sha256"]
