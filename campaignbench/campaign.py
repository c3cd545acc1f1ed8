"""Launch the experiment CLI as a user would, and read back what it wrote.

Every launch is ``python -m repro.experiments <flags> --run-dir DIR
<ids>`` with ``src`` on ``PYTHONPATH``.  Wall time is taken around the
process, CPU time and peak resident set from ``wait4``, which folds in
every worker the CLI waited for.  Set-up time is the distance from the
launch to the first ``start`` event in ``events.jsonl``.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACEHOOK = Path(__file__).resolve().parent / "tracehook"
#: Scratch space for run directories; each benchmark run empties its own.
WORK_ROOT = ROOT / ".campaignbench-work"

#: Longest a campaign may run before it is killed; below the 180 s a
#: whole benchmark run is allowed.
CAMPAIGN_TIMEOUT_S = 170.0
#: Longest a set-up probe may wait for its first ``start`` event.
PROBE_TIMEOUT_S = 60.0
#: How long an interrupted probe gets to stop its workers itself.
PROBE_GRACE_S = 2.0

PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The campaign did not leave what a measurement needs."""


def become_subreaper() -> None:
    """Adopt orphaned grandchildren so that none outlives the benchmark.

    A CLI interrupted while it spawns a worker can leave that worker
    behind; as a subreaper this process inherits and reaps it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_orphans() -> None:
    """Kill and wait for every child process still alive."""
    for task in Path("/proc/self/task").iterdir():
        try:
            children = (task / "children").read_text().split()
        except FileNotFoundError:
            continue  # a thread that ended meanwhile
        for pid in children:
            try:
                os.kill(int(pid), signal.SIGKILL)
                os.waitpid(int(pid), 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def cli_env(trace_dir: Optional[Path] = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "CAMPAIGNBENCH_"))}
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(TRACEHOOK))
        env["CAMPAIGNBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def cli_argv(flags: Sequence[str], ids: Sequence[str], run_dir: Path) -> List[str]:
    return [sys.executable, "-m", "repro.experiments", *flags, "--run-dir", str(run_dir), *ids]


@dataclass
class Launch:
    """One finished CLI process."""

    run_dir: Path
    t_launch: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def launch(
    flags: Sequence[str],
    ids: Sequence[str],
    run_dir: Path,
    trace_dir: Optional[Path] = None,
) -> Launch:
    """Run one campaign to completion, killing it after ``CAMPAIGN_TIMEOUT_S``."""
    log = run_dir.with_name(run_dir.name + ".out")
    with open(log, "w") as out:
        t_launch = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(
            cli_argv(flags, ids, run_dir), stdout=out, stderr=subprocess.STDOUT,
            env=cli_env(trace_dir), cwd=ROOT,
        )
        watchdog = threading.Timer(CAMPAIGN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reap_orphans()
    return Launch(
        run_dir=run_dir,
        t_launch=t_launch,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )


def probe_setup(flags: Sequence[str], ids: Sequence[str], run_dir: Path) -> float:
    """Launch the CLI, stop it at its first ``start`` event, return set-up time.

    The CLI turns SIGTERM into its graceful interrupt, which stops the
    workers it knows of.  A worker spawned in the same instant can keep
    that interrupt waiting for a whole experiment, so after a short
    grace the CLI is killed and the subreaper reaps that worker.
    """
    events = run_dir / "events.jsonl"
    t_launch = time.time()
    proc = subprocess.Popen(
        cli_argv(flags, ids, run_dir), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=cli_env(), cwd=ROOT,
    )
    try:
        deadline = time.monotonic() + PROBE_TIMEOUT_S
        while True:
            start = first_start(events) if events.is_file() else None
            if start is not None:
                return start - t_launch
            if proc.poll() is not None:
                raise BenchError(f"CLI exited with {proc.returncode} before its first start event")
            if time.monotonic() > deadline:
                raise BenchError(f"no start event within {PROBE_TIMEOUT_S}s")
            time.sleep(0.005)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=PROBE_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        reap_orphans()


def read_jsonl(path: Path) -> List[Dict]:
    """Every intact line of a JSONL artifact; a missing file is an error."""
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a torn line is the writer's business, not a timing
    return records


def first_start(events: Path) -> Optional[float]:
    for record in read_jsonl(events):
        if record.get("event") == "start":
            return float(record["t_wall"])
    return None


@dataclass
class EventSummary:
    setup_s: float
    attempt_s: Dict[str, float]
    retries: int


def summarize_events(run: Launch) -> EventSummary:
    """Set-up time, seconds per experiment, and retries from ``events.jsonl``."""
    records = read_jsonl(run.run_dir / "events.jsonl")
    starts = [r for r in records if r.get("event") == "start"]
    if not starts:
        raise BenchError(f"{run.run_dir}/events.jsonl has no start event")
    opened: Dict[str, Dict] = {}
    attempt_s: Dict[str, float] = {}
    for record in records:
        if record.get("event") in ("start", "retry"):
            opened[record["attempt_uid"]] = record
        elif record.get("event") == "attempt-end" and record.get("attempt_uid") in opened:
            begin = opened.pop(record["attempt_uid"])
            experiment_id = record["experiment_id"]
            attempt_s[experiment_id] = attempt_s.get(experiment_id, 0.0) + (
                record["t_mono"] - begin["t_mono"]
            )
    return EventSummary(
        setup_s=float(starts[0]["t_wall"]) - run.t_launch,
        attempt_s=attempt_s,
        retries=sum(1 for r in records if r.get("event") == "retry"),
    )


def worker_startup(run_dir: Path) -> Dict[str, float]:
    """Worker spawns and start-up seconds from ``spans.jsonl``.

    Start-up of an attempt is its ``worker.attempt`` span minus the
    ``worker.run`` span of the worker process it talked to: process
    launch, imports and payload round-trip.
    """
    spans = read_jsonl(run_dir / "spans.jsonl")
    attempts = {
        s["attrs"]["worker_pid"]: s["dur_s"] for s in spans if s.get("name") == "worker.attempt"
    }
    runs = sum(s["dur_s"] for s in spans if s.get("name") == "worker.run" and s.get("pid") in attempts)
    return {
        "runtime.workers.spawns": float(sum(1 for s in spans if s.get("name") == "worker.spawn")),
        "runtime.workers.startup_s": sum(attempts.values()) - runs,
    }


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
