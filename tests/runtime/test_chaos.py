"""Tests for the chaos harness: the audit logic unit-level, and one
small real SIGKILL/resume campaign end-to-end."""

from __future__ import annotations

from repro.runtime.chaos import (
    ChaosReport,
    CycleResult,
    audit_run_dir,
    run_chaos,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import ExperimentOutcome
from repro.runtime.events import EventLog
from repro.runtime.journal import JOURNAL_FILENAME, Journal

from tests.runtime.conftest import make_result


def build_run_dir(tmp_path, name="run"):
    """A handmade audit-clean single-experiment run directory."""
    run_dir = tmp_path / name
    store = CheckpointStore(run_dir)
    store.write_manifest({"experiments": ["figA"], "quick": True})
    store.save_outcome(
        ExperimentOutcome(
            experiment_id="figA",
            status="ok",
            result=make_result("figA"),
            attempts=1,
        )
    )
    store.write_summary(
        {
            "status": "complete",
            "requested": ["figA"],
            "completed": ["figA"],
            "statuses": {"figA": "ok"},
        }
    )
    with EventLog(store.events_path) as log:
        log.emit("campaign-start")
        log.emit("checkpointed", experiment_id="figA", status="ok")
        log.emit("attempt-end", experiment_id="figA", attempt_uid="figA@1.1")
    with Journal(run_dir / JOURNAL_FILENAME, token=1) as journal:
        journal.append("campaign-start", experiments=["figA"])
        journal.append(
            "attempt-start", experiment_id="figA", attempt=1,
            attempt_uid="figA@1.1",
        )
        journal.append("checkpoint-flushed", experiment_id="figA", status="ok")
        journal.append(
            "attempt-end", experiment_id="figA", status="ok",
            attempt_uid="figA@1.1",
        )
        journal.append("summary-flushed", status="complete")
    return run_dir, store.summary_path.read_bytes()


class TestAudit:
    def test_clean_dir_has_no_problems(self, tmp_path):
        run_dir, summary = build_run_dir(tmp_path)
        assert audit_run_dir(run_dir, summary, ["figA"]) == []

    def test_duplicate_attempt_end_is_flagged(self, tmp_path):
        run_dir, summary = build_run_dir(tmp_path)
        with Journal(run_dir / JOURNAL_FILENAME, token=1) as journal:
            journal.append(
                "attempt-end", experiment_id="figA", status="failed",
                attempt_uid="figA@1.1",
            )
        problems = audit_run_dir(run_dir, summary, ["figA"])
        assert any("exactly-once violated" in p for p in problems)

    def test_double_commit_is_flagged(self, tmp_path):
        run_dir, summary = build_run_dir(tmp_path)
        with Journal(run_dir / JOURNAL_FILENAME, token=2) as journal:
            journal.append(
                "attempt-end", experiment_id="figA", status="ok",
                attempt_uid="figA@2.1",
            )
        problems = audit_run_dir(run_dir, summary, ["figA"])
        assert any("double-execution" in p for p in problems)

    def test_missing_checkpoint_is_a_lost_attempt(self, tmp_path):
        run_dir, summary = build_run_dir(tmp_path)
        problems = audit_run_dir(run_dir, summary, ["figA", "figB"])
        assert any("lost committed attempt" in p and "figB" in p for p in problems)

    def test_summary_divergence_is_flagged(self, tmp_path):
        run_dir, summary = build_run_dir(tmp_path)
        problems = audit_run_dir(run_dir, summary + b" ", ["figA"])
        assert any("differs from the uninterrupted reference" in p for p in problems)

    def test_backwards_token_is_flagged(self, tmp_path):
        run_dir, summary = build_run_dir(tmp_path)
        with Journal(run_dir / JOURNAL_FILENAME, token=0) as journal:
            journal.append("recovered")
        problems = audit_run_dir(run_dir, summary, ["figA"])
        assert any("token went backwards" in p for p in problems)


class TestReportRendering:
    def test_cycle_summary_lines(self):
        ok = CycleResult(cycle=1, kind="time-kill", kills=2, launches=3)
        bad = CycleResult(
            cycle=2, kind="io-kill", launches=1,
            problems=["boom"], detail="journal:write:kill:3",
        )
        assert ok.passed and "ok" in ok.summary()
        assert not bad.passed and "FAIL" in bad.summary()
        assert "journal:write:kill:3" in bad.summary()

    def test_report_aggregates(self):
        report = ChaosReport(
            cycles=[
                CycleResult(cycle=0, kind="time-kill", kills=2, launches=3),
                CycleResult(cycle=1, kind="io-kill", problems=["x"]),
            ]
        )
        assert not report.passed and report.total_kills == 2
        rendered = report.render()
        assert "problem: x" in rendered and "1 failure(s)" in rendered

    def test_empty_report_never_passes(self):
        assert not ChaosReport().passed


def test_small_real_chaos_campaign(tmp_path):
    """Two real SIGKILL/resume cycles plus one ENOSPC cycle against a
    one-experiment quick campaign — the harness end-to-end."""
    report = run_chaos(
        cycles=2,
        seed=11,
        experiments=("table1",),
        jobs=0,
        enospc_cycles=1,
        work_dir=tmp_path / "chaos",
        timeout=120.0,
    )
    assert len(report.cycles) == 3
    assert report.passed, report.render()


def test_small_real_streamed_chaos_campaign(tmp_path):
    """Streamed chaos: the io-kill cycle plants its SIGKILL inside the
    shard / simulator-checkpoint writes, so the campaign dies
    mid-generation or mid-simulation and must resume from the last
    sealed shard boundary to a byte-identical summary."""
    report = run_chaos(
        cycles=2,
        seed=5,
        experiments=("fig2",),
        jobs=0,
        enospc_cycles=0,
        work_dir=tmp_path / "chaos",
        timeout=120.0,
        stream=True,
        shard_refs=8192,
    )
    assert len(report.cycles) == 2
    assert report.passed, report.render()
    io_kill = [c for c in report.cycles if c.kind == "io-kill"]
    assert io_kill and io_kill[0].detail, "no streamed fault was planted"
    site = io_kill[0].detail.split(":")[0]
    assert site in ("shard", "simckpt")
