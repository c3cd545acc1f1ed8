"""Worker-pool cost: one quick campaign through the subprocess
worker-pool backend (``--jobs 1``), and one worker attempt alone.

``bench_worker_pool_campaign`` runs the real CLI as a subprocess, so
it pays interpreter start-up, the fork server, and every attempt's
worker.  ``bench_worker_attempt_roundtrip`` isolates the per-attempt
layer: a trivial attempt through one ``WorkerSupervisor`` (fork a
worker, import the runner, ship the payload back, reap).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from repro.experiments.runner import ExperimentResult
from repro.runtime.workers import AttemptSpec, WorkerSupervisor, runner_ref

#: Small quick experiments so the campaign is dominated by the worker
#: pool, not simulation.
EXPERIMENTS = ("table1", "table2")


def _run_campaign(run_dir):
    cmd = [
        sys.executable, "-m", "repro.experiments", "--quick", "--jobs", "1",
        "--run-dir", str(run_dir), *EXPERIMENTS,
    ]
    env = dict(os.environ)
    entries = [entry for entry in sys.path if entry]
    if entries:
        env["PYTHONPATH"] = os.pathsep.join(entries)
    subprocess.run(
        cmd,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        timeout=300,
    )
    assert (run_dir / "summary.json").is_file()


def bench_worker_pool_campaign(benchmark, run_once, tmp_path):
    """The quick two-experiment campaign on the worker pool (``--jobs 1``)."""
    run_once(benchmark, _run_campaign, tmp_path / "pool")
    benchmark.extra_info["experiments"] = len(EXPERIMENTS)


#: Attempts per round trip benchmark; the p50 is the headline.
ROUNDTRIP_ATTEMPTS = 10


def trivial_experiment(**kwargs) -> ExperimentResult:
    """An experiment that does no work: the attempt is pure overhead."""
    return ExperimentResult(experiment_id="trivial", title="trivial attempt")


def _attempt_roundtrips():
    supervisor = WorkerSupervisor(hard_timeout_seconds=60)
    spec = AttemptSpec(experiment_id="trivial", runner=runner_ref(trivial_experiment))
    seconds = []
    for _ in range(ROUNDTRIP_ATTEMPTS):
        start = time.perf_counter()
        result, failure = supervisor.run_attempt(spec)
        seconds.append(time.perf_counter() - start)
        assert failure is None and result.experiment_id == "trivial"
    return seconds


def bench_worker_attempt_roundtrip(benchmark, run_once):
    """Ten trivial attempts through one supervisor; p50 per attempt."""
    seconds = run_once(benchmark, _attempt_roundtrips)
    benchmark.extra_info["attempts"] = ROUNDTRIP_ATTEMPTS
    benchmark.extra_info["p50_attempt_seconds"] = statistics.median(seconds)
    benchmark.extra_info["first_attempt_seconds"] = seconds[0]
