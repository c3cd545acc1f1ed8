"""Tests for the hard process-isolation backend: runner shipping, the
wire protocol, subprocess containment (kill-based timeouts, rlimits,
death classification), and the parallel worker pool end to end."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentResult
from repro.obs import tracing
from repro.runtime import forkserver
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import CampaignEngine, EngineConfig
from repro.runtime.errors import (
    ExperimentFailure,
    WorkerCrashError,
    WorkerMemoryError,
    WorkerTimeoutError,
)
from repro.runtime.events import EventLog, read_events
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.workers import (
    AttemptSpec,
    WorkerPool,
    WorkerSupervisor,
    apply_address_space_limit,
    parse_worker_payload,
    resolve_runner_ref,
    runner_ref,
    worker_environment,
)

from tests.runtime import worker_targets

TARGETS = "tests.runtime.worker_targets"

#: Generous rlimit that still stops the memhog quickly: the worker
#: interpreter plus numpy needs a few hundred MiB of address space.
RLIMIT_MB = 512


def make_spec(runner=f"{TARGETS}:run_ok", **overrides) -> AttemptSpec:
    defaults = dict(experiment_id="exp", runner=runner, kwargs={"n": 3})
    defaults.update(overrides)
    return AttemptSpec(**defaults)


class TestRunnerRef:
    def test_module_ships_by_name(self):
        import repro.experiments.table1 as table1

        ref = runner_ref(table1)
        assert ref == "repro.experiments.table1"
        assert resolve_runner_ref(ref) is table1

    def test_module_level_function_ships_by_qualname(self):
        ref = runner_ref(worker_targets.run_ok)
        assert ref == f"{TARGETS}:run_ok"
        assert resolve_runner_ref(ref) is worker_targets.run_ok

    def test_instance_rejected(self):
        from tests.runtime.conftest import FakeExperiment

        with pytest.raises(TypeError, match="jobs=0"):
            runner_ref(FakeExperiment("a"))

    def test_closure_rejected(self):
        with pytest.raises(TypeError, match="not shippable"):
            runner_ref(worker_targets.local_runner)

    def test_pool_fails_fast_on_unshippable_registry(self):
        from tests.runtime.conftest import FakeExperiment

        engine = CampaignEngine(
            {"a": (FakeExperiment("a"), {})},
            config=EngineConfig(jobs=1),
        )
        with pytest.raises(TypeError, match="not shippable"):
            engine.run()


class TestAttemptSpec:
    def test_json_round_trip(self):
        spec = AttemptSpec(
            experiment_id="fig6",
            runner=f"{TARGETS}:run_ok",
            kwargs={"n": 256, "theta": 0.5},
            attempt=2,
            degraded=True,
            budget_seconds=12.5,
            max_rss_mb=512,
            fault={"kind": "crash"},
            workspace="/tmp/ws",
        )
        restored = AttemptSpec.from_json(spec.to_json())
        assert restored == spec

    def test_tuples_arrive_as_lists(self):
        spec = make_spec(kwargs={"slope_sizes": (24, 40)})
        restored = AttemptSpec.from_json(spec.to_json())
        assert restored.kwargs == {"slope_sizes": [24, 40]}


class TestPayloadParsing:
    def test_ok_payload(self):
        result = worker_targets.run_ok(n=3)
        payload = json.dumps({"ok": True, "result": result.to_dict()})
        parsed, failure = parse_worker_payload(make_spec(), payload)
        assert failure is None
        assert isinstance(parsed, ExperimentResult)
        assert parsed.notes == ["param n=3"]

    def test_failure_payload(self):
        failure_dict = ExperimentFailure(
            experiment_id="exp",
            attempt=1,
            category="simulation",
            error_type="SimulationError",
            message="boom",
        ).to_dict()
        payload = json.dumps({"ok": False, "failure": failure_dict})
        result, failure = parse_worker_payload(make_spec(), payload)
        assert result is None
        assert failure.category == "simulation"
        assert failure.message == "boom"

    @pytest.mark.parametrize(
        "stdout", ["", "not json", "[1, 2]", '{"ok": true}']
    )
    def test_malformed_payload_is_classified(self, stdout):
        spec = make_spec(attempt=2, degraded=True)
        result, failure = parse_worker_payload(spec, stdout, "some stderr")
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempt == 2 and failure.degraded
        assert "unusable result payload" in failure.message
        assert "some stderr" in failure.traceback_text


class TestWorkerEnvironment:
    def test_propagates_sys_path(self):
        env = worker_environment()
        entries = env["PYTHONPATH"].split(os.pathsep)
        for entry in sys.path:
            if entry:
                assert entry in entries

    def test_rlimit_helper_is_a_no_op_without_limit(self):
        assert apply_address_space_limit(None) is False


class TestSupervisorValidation:
    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(hard_timeout_seconds=0)

    def test_bad_grace_rejected(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(term_grace_seconds=-1)


class TestSupervisorContainment:
    """Each test round-trips a real subprocess through the supervisor."""

    def test_healthy_attempt_round_trips(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(make_spec(kwargs={"n": 7}))
        assert failure is None
        assert result.notes == ["param n=7"]
        assert supervisor.live_count() == 0

    def test_stray_stdout_cannot_corrupt_the_protocol(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_noisy")
        )
        assert failure is None
        assert result.notes == ["param n=3"]

    def test_classified_failure_travels_back(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_crash")
        )
        assert result is None
        assert failure.category == "simulation"
        assert failure.error_type == "SimulationError"
        assert "deliberate crash" in failure.message

    def test_wrong_return_type_is_classified(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_wrong_type")
        )
        assert result is None
        assert "expected ExperimentResult" in failure.message

    def test_non_cooperative_hang_is_killed_at_the_deadline(self):
        events = []
        supervisor = WorkerSupervisor(
            hard_timeout_seconds=1.0,
            term_grace_seconds=2.0,
            on_event=lambda e, i, d: events.append((e, i, d)),
        )
        started = time.monotonic()
        result, failure = supervisor.run_attempt(
            make_spec(fault={"kind": "hang", "cooperative": False})
        )
        elapsed = time.monotonic() - started
        assert result is None
        assert failure.category == WorkerTimeoutError.category
        assert failure.error_type == "WorkerTimeoutError"
        assert "hard deadline" in failure.message
        # Killed promptly after the 1s deadline, not after minutes.
        assert elapsed < 30
        kill_events = [e for e in events if e[0] == "worker-killed"]
        assert kill_events and kill_events[0][1] == "exp"
        assert kill_events[0][2]["signal"] == "SIGTERM"
        assert supervisor.live_count() == 0

    def test_memhog_contained_by_rlimit(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=120)
        result, failure = supervisor.run_attempt(
            make_spec(fault={"kind": "memhog"}, max_rss_mb=RLIMIT_MB)
        )
        assert result is None
        assert failure.category == WorkerMemoryError.category
        assert failure.error_type == "WorkerMemoryError"
        assert "rlimit" in failure.message

    def test_sudden_death_is_classified(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(fault={"kind": "die", "exit_code": 7})
        )
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert "status 7" in failure.message

    def test_death_by_signal_is_classified(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_sigkill")
        )
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert "SIGKILL" in failure.message


class TestWorkerPoolAcceptance:
    """ISSUE acceptance: a parallel campaign with an injected
    non-cooperative hang and a memory hog completes — both workers are
    killed/contained and classified, the experiments retry-degrade, the
    healthy one finishes, and --resume skips everything checkpointed."""

    def _engine(self, store, event_log=None, faults=None):
        registry = {
            "healthy": (worker_targets.run_ok, {"n": 1}),
            "hangy": (worker_targets.run_ok, {"n": 2}),
            "hoggy": (worker_targets.run_ok, {"n": 3}),
        }
        overrides = {name: {"n": 0} for name in registry}
        return CampaignEngine(
            registry,
            quick_overrides=overrides,
            config=EngineConfig(
                jobs=2,
                hard_timeout_seconds=2.0,
                term_grace_seconds=2.0,
                max_rss_mb=RLIMIT_MB,
                max_attempts=2,
                backoff_base_seconds=0.0,
            ),
            store=store,
            faults=faults,
            event_log=event_log,
        )

    def test_parallel_containment_degrade_and_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        faults = FaultInjector(
            plan={
                "hangy": FaultSpec(kind="hang", cooperative=False),
                "hoggy": FaultSpec(kind="memhog"),
            }
        )
        with EventLog(store.events_path) as event_log:
            engine = self._engine(store, event_log=event_log, faults=faults)
            report = engine.run()

        assert report.succeeded
        assert report.outcome("healthy").status == "ok"
        hangy = report.outcome("hangy")
        assert hangy.status == "degraded"
        assert hangy.failures[0].category == WorkerTimeoutError.category
        hoggy = report.outcome("hoggy")
        assert hoggy.status == "degraded"
        assert hoggy.failures[0].category == WorkerMemoryError.category
        # Outcomes come back in requested order despite parallelism.
        assert [o.experiment_id for o in report.outcomes] == [
            "healthy", "hangy", "hoggy",
        ]

        # The store survived the carnage intact.
        assert sorted(store.completed_ids()) == ["hangy", "healthy", "hoggy"]
        assert store.verify_all() == {}
        assert store.read_summary()["status"] == "complete"

        # The event log shows the kill and a total order.
        events = read_events(store.events_path)
        names = [e["event"] for e in events]
        assert "worker-killed" in names
        assert "degraded" in names
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

        # Resume: a fresh engine over the same store re-runs nothing.
        report2 = self._engine(store).run()
        assert all(outcome.resumed for outcome in report2.outcomes)
        assert report2.succeeded


class TestGracefulInterruption:
    """ISSUE acceptance: SIGINT mid-campaign kills workers, leaves a
    valid checkpoint store, and --resume completes the remainder
    without re-running finished experiments."""

    def _cli_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return env

    def test_sigint_leaves_valid_resumable_store(self, tmp_path):
        run_dir = tmp_path / "run"
        store = CheckpointStore(run_dir)
        argv = [
            sys.executable, "-m", "repro.experiments",
            "--quick", "--jobs", "2", "--run-dir", str(run_dir),
            "--inject-fault", "fig5=hang-hard:99",
            "table1", "fig5",
        ]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self._cli_env(),
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and not store.has_result("table1"):
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.1)
            assert store.has_result("table1"), "table1 never checkpointed"
            time.sleep(0.3)  # let the fig5 worker get properly stuck
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 1, out
        assert "campaign interrupted" in out
        assert store.verify_all() == {}
        summary = store.read_summary()
        assert summary["status"] == "interrupted"
        assert "table1" in summary["completed"]
        assert "fig5" not in summary["completed"]
        names = [e["event"] for e in read_events(store.events_path)]
        assert "interrupted" in names

        # Resume (no fault this time): fig5 completes, table1 skipped.
        resumed = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments",
                "--quick", "--jobs", "2", "--resume", str(run_dir),
                "table1", "fig5",
            ],
            capture_output=True,
            text=True,
            env=self._cli_env(),
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "table1 already completed" in resumed.stdout
        assert sorted(store.completed_ids()) == ["fig5", "table1"]
        assert store.read_summary()["status"] == "complete"


# -- the fork server ------------------------------------------------------


def _children(pid):
    children = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return children


def _zygotes(parent):
    found = []
    for pid in _children(parent):
        try:
            argv = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if any(arg.endswith(b"zygote.py") for arg in argv):
            found.append(pid)
    return found


def _current_zygote():
    """Pid of the fork server this process's supervisors now use."""
    key = forkserver._server_key(sys.executable, worker_environment())
    return forkserver._servers[key].proc.pid


def _stat(pid):
    """(state, process group) of a process; None once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[2])


def _running(pid):
    """Alive and not merely a zombie waiting for an absent reaper."""
    stat = _stat(pid)
    return stat is not None and stat[0] not in "ZX"


def _group_members(pgid):
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and _running(int(entry.name)):
            stat = _stat(int(entry.name))
            if stat is not None and stat[1] == pgid:
                members.append(int(entry.name))
    return members


def _wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


SITECUSTOMIZE = '''
import atexit, json, os, sys

_out = os.environ.get("FORKSERVER_HOOK_DIR")
if _out:
    _preloaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
    _path = os.path.join(_out, "%d.json" % os.getpid())

    def _dump():
        with open(_path, "w") as handle:
            json.dump({"preloaded": _preloaded}, handle)

    atexit.register(_dump)
'''


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="uses /proc")
class TestForkServer:
    """Workers are forked from a warm fork server, yet each one looks
    like a fresh interpreter and is contained like one."""

    def test_startup_hooks_run_in_each_worker(self, tmp_path, monkeypatch):
        hook_dir = tmp_path / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.syspath_prepend(str(hook_dir))
        monkeypatch.setenv("FORKSERVER_HOOK_DIR", str(out))
        tracer = tracing.configure(buffered=True)
        try:
            supervisor = WorkerSupervisor(hard_timeout_seconds=60)
            for n in range(3):
                result, failure = supervisor.run_attempt(make_spec(kwargs={"n": n}))
                assert failure is None
        finally:
            tracing.shutdown()
        pids = sorted(
            span.attrs["worker_pid"]
            for span in tracer.drain()
            if span.name == "worker.attempt"
        )
        assert len(set(pids)) == 3
        assert sorted(int(p.stem) for p in out.glob("*.json")) == pids
        for path in out.glob("*.json"):
            assert json.loads(path.read_text())["preloaded"] == []

    def test_worker_state_equals_a_cold_interpreter(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_process_state")
        )
        assert failure is None
        forked = json.loads(result.notes[0])
        cold = subprocess.run(
            [sys.executable, "-m", TARGETS],
            capture_output=True, text=True, env=worker_environment(),
            check=True, timeout=60,
        )
        assert forked == json.loads(cold.stdout)

    def test_zygote_death_fails_the_attempt_and_is_replaced(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=60)
        supervisor.run_attempt(make_spec())  # make sure a zygote is up
        zygote = _current_zygote()
        outcome = {}

        def hang():
            outcome["value"] = supervisor.run_attempt(
                make_spec(fault={"kind": "hang", "cooperative": False})
            )

        thread = threading.Thread(target=hang)
        started = time.monotonic()
        thread.start()
        (worker,) = _wait_for(
            lambda: supervisor.live_count() == 1 and _children(zygote),
            what="the hanging worker",
        )
        os.kill(zygote, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert time.monotonic() - started < 30  # not the 60s deadline
        result, failure = outcome["value"]
        assert result is None
        assert failure.error_type == "WorkerCrashError"
        assert "fork server died" in failure.traceback_text
        _wait_for(lambda: not _group_members(worker), what="the worker's group to die")

        result, failure = supervisor.run_attempt(make_spec(kwargs={"n": 9}))
        assert failure is None and result.notes == ["param n=9"]
        assert _current_zygote() != zygote

    def test_stalled_zygote_is_killed_and_replaced(self):
        supervisor = WorkerSupervisor(hard_timeout_seconds=2.0)
        supervisor.run_attempt(make_spec())  # make sure a zygote is up
        zygote = _current_zygote()
        outcome = {}

        def attempt():
            started = time.monotonic()
            outcome["value"] = supervisor.run_attempt(make_spec(kwargs={"n": 4}))
            outcome["elapsed"] = time.monotonic() - started

        os.kill(zygote, signal.SIGSTOP)
        thread = threading.Thread(target=attempt)
        try:
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            if _running(zygote):
                os.kill(zygote, signal.SIGKILL)
            thread.join()
        # The stalled zygote got the 2s deadline to fork the worker, was
        # killed, and a new one ran the attempt.
        result, failure = outcome["value"]
        assert failure is None and result.notes == ["param n=4"]
        assert 2.0 <= outcome["elapsed"] < 30
        assert not _running(zygote)
        assert _current_zygote() != zygote

    def test_interrupt_reaches_an_attempt_waiting_for_its_worker(self):
        supervisor = WorkerSupervisor()  # no deadline: only kill_all ends the wait
        supervisor.run_attempt(make_spec())  # make sure a zygote is up
        zygote = _current_zygote()
        outcome = {}

        def attempt():
            outcome["value"] = supervisor.run_attempt(make_spec())

        os.kill(zygote, signal.SIGSTOP)
        thread = threading.Thread(target=attempt)
        try:
            thread.start()
            time.sleep(0.5)
            assert thread.is_alive()
            supervisor.kill_all(term_grace_seconds=0.1)
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            os.kill(zygote, signal.SIGCONT)
        result, failure = outcome["value"]
        assert result is None
        assert failure.error_type == "WorkerCrashError"
        assert "cancelled" in failure.message
        # The zygote itself was healthy, merely slow: it is kept.
        assert supervisor.run_attempt(make_spec())[1] is None
        assert _current_zygote() == zygote

    def test_sigkilled_campaign_leaves_no_zygote(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "--quick",
                "--jobs", "1", "--run-dir", str(tmp_path / "run"),
                "--inject-fault", "table1=hang-hard:99", "table1",
            ],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_cli_env(),
        )
        try:
            def zygote_with_worker():
                for zygote in _zygotes(proc.pid):
                    workers = _children(zygote)
                    if workers:
                        return zygote, workers[0]
                return None

            zygote, worker = _wait_for(zygote_with_worker, timeout=60, what="a worker")
        finally:
            proc.kill()
            proc.wait()
        _wait_for(
            lambda: not _running(zygote) and not _running(worker),
            what="the zygote and its worker to exit",
        )

    def test_worker_cpu_reaches_the_cli_rusage(self, tmp_path):
        run_dir = tmp_path / "run"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "--quick",
                "--jobs", "1", "--hard-timeout-seconds", "3",
                "--max-attempts", "1", "--run-dir", str(run_dir),
                "--inject-fault", "table1=hang-hard", "table1",
            ],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_cli_env(),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu_s = usage.ru_utime + usage.ru_stime
        # The hard hang spins on the CPU until it is killed at the
        # 3s deadline; that time must be in the CLI's children rusage.
        burned = sum(
            span.dur_s
            for span in tracing.read_spans(run_dir / "spans.jsonl")
            if span.name == "worker.attempt"
        )
        assert burned >= 3.0
        assert cpu_s >= 0.7 * burned, (cpu_s, burned)

    def test_every_attempt_ships_one_startup_span(self, tmp_path):
        run_dir = tmp_path / "run"
        subprocess.run(
            [
                sys.executable, "-m", "repro.experiments", "--quick",
                "--jobs", "2", "--run-dir", str(run_dir), "table1", "table2", "cost",
            ],
            check=True, capture_output=True, env=_cli_env(), timeout=300,
        )
        spans = tracing.read_spans(run_dir / "spans.jsonl")

        def by_attempt(name):
            found = {}
            for span in spans:
                if span.name == name:
                    key = (span.attrs["experiment_id"], span.attrs["attempt"])
                    found.setdefault(key, []).append(span)
            return found

        attempts = by_attempt("worker.attempt")
        runs = by_attempt("worker.run")
        startups = by_attempt("worker.startup")
        assert sorted(attempts) == sorted(startups) and len(attempts) == 3
        for key, (attempt,) in attempts.items():
            (startup,) = startups[key]
            (run,) = runs[key]
            assert 0 < startup.dur_s <= attempt.dur_s - run.dur_s
            assert startup.pid == run.pid == attempt.attrs["worker_pid"]
