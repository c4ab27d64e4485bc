"""One pass over a workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE MODE SCRATCH SPAWN_NS

MODE is ``full`` (every job), ``smoke`` (the jobs marked for smoke runs) or
``setup`` (set up, run no job).

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
process, so set-up time counts interpreter start, the import of premonoids
and the generation of the seeded inputs. Prints one JSON object on stdout:
per-job exit code, time, digests and check verdicts, the pass time (the sum
of the job times), the times of the speed probe run before every job and
after the last (``speed.py``), the process's peak resident set, and
per-layer metrics when TRACE is 1.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB_LIMIT_S = 60


class JobTimeout(BaseException):
    """Raised inside a job that exceeds the per-job time limit. A
    BaseException, so that no handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, argv) -> tuple:
    """Run one CLI call with stdout and stderr captured.

    Returns (exit code, stdout, failure or None, elapsed ns)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except JobTimeout:
        failure = f"exceeded the {JOB_LIMIT_S} s job limit"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed job, not a failed pass
        failure = f"raised {exc!r}"
    finally:
        elapsed = time.perf_counter_ns() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if failure is None and "Traceback" in err.getvalue():
        failure = "printed a traceback"
    return code, out.getvalue(), failure, elapsed


def main(argv) -> int:
    workload, seed, trace, mode, scratch, spawn_ns = argv
    seed, trace, spawn_ns = int(seed), trace == "1", int(spawn_ns)
    scratch = Path(scratch)

    sys.path.insert(0, str(ROOT / "src"))
    import premonoids.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"premonoids was imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import speed
    import workloads

    jobs = workloads.build(workload, seed, scratch, mode == "smoke")
    setup_ns = time.monotonic_ns() - spawn_ns
    if mode == "setup":
        jobs = []

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    os.chdir(scratch)

    runs = []
    probe_ns = [speed.probe_ns()]
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(index)
        runs.append(run_job(cli, job.argv))
        if tracer is not None:
            tracer.end_job()
        probe_ns.append(speed.probe_ns())
    wall_ns = sum(elapsed for *_, elapsed in runs)

    expected_file = BENCH / "expected.json"
    expected = json.loads(expected_file.read_text()).get(workload, {}) if expected_file.exists() else {}
    results = []
    for job, (code, stdout, failure, elapsed) in zip(jobs, runs):
        if failure is None:
            failure = workloads.check(job, code, stdout, expected.get(job.key), seed == workloads.DEFAULT_SEED)
        results.append(
            {
                "key": job.key,
                "command": job.command,
                "code": code,
                "ns": elapsed,
                "sha256": workloads.digest(stdout),
                "invariant": workloads.safe_invariant_digest(job, stdout),
                "failure": failure,
            }
        )

    report = {
        "setup_ns": setup_ns,
        "wall_ns": wall_ns,
        "probe_ns": probe_ns,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": results,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write_spans(scratch / "spans.jsonl")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
