"""Dispatch-fabric overhead: the same quick campaign through the
multi-node dispatch fabric (``--nodes 1``) versus the plain worker-pool
backend (``--jobs 1``), plus the cost of one worker attempt alone.

The difference of the two campaign means, divided by the experiment
count, is the per-experiment price of fenced assignment: node spawn +
hello, WAL-framed assign/complete records, and the socket round trip.
Both benches run the real CLI as a subprocess, so interpreter start-up
is paid identically on each side and cancels out of the comparison.

``bench_worker_attempt_roundtrip`` isolates the layer both campaigns
share: a trivial attempt through one ``WorkerSupervisor`` (fork a
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

#: Small quick experiments so the campaign is dominated by dispatch,
#: not simulation.
EXPERIMENTS = ("table1", "table2")


def _run_campaign(run_dir, nodes=None):
    cmd = [sys.executable, "-m", "repro.experiments", "--quick", "--jobs", "1"]
    if nodes is not None:
        cmd += ["--nodes", str(nodes)]
    cmd += ["--run-dir", str(run_dir), *EXPERIMENTS]
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
    """Baseline: the subprocess worker-pool backend (``--jobs 1``)."""
    run_once(benchmark, _run_campaign, tmp_path / "pool")
    benchmark.extra_info["experiments"] = len(EXPERIMENTS)


def bench_dispatch_fabric_campaign(benchmark, run_once, tmp_path):
    """The same campaign dispatched over a one-node fabric."""
    run_once(benchmark, _run_campaign, tmp_path / "fabric", nodes=1)
    benchmark.extra_info["experiments"] = len(EXPERIMENTS)
    if benchmark.stats and benchmark.stats.stats.mean:
        benchmark.extra_info["seconds_per_experiment"] = (
            benchmark.stats.stats.mean / len(EXPERIMENTS)
        )


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
