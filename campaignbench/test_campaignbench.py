"""Self-tests of the campaign benchmark on the ``tiny`` workload.

Run from the repository root::

    python3 -m pytest -q campaignbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from campaign import ROOT, WORK_ROOT, BenchError, launch, summarize_events
from digests import canonical_digest, check_results, load_reference, read_payload
from run import WORKLOADS  # also puts tracehook/ on sys.path
from layertrace import Ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = WORKLOADS["tiny"]


def run_bench(trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    human, result = run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in human)
    assert not list(WORK_ROOT.glob("tiny-*")), "scratch run directories left behind"


def test_end_to_end_values():
    _, result = run_bench(0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ok_frac"] == 1.0
    assert 0 < metrics["setup_s"] < metrics["wall_s"]
    assert metrics["cpu_s"] > 0 and metrics["peak_rss_mb"] > 10
    assert metrics["paper_err"] >= 0


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run = launch(TINY.flags, TINY.ids, tmp_path_factory.mktemp("tiny") / "run")
    assert run.returncode == 0
    return run


def _rewrite(path: Path, payload: dict) -> None:
    envelope = json.loads(path.read_text())
    envelope["payload"] = payload
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    envelope["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    path.write_text(json.dumps(envelope))


def test_clean_run_matches_reference(tiny_run):
    check = check_results(tiny_run.run_dir, TINY.ids, load_reference())
    assert check.failed == [] and check.type_drift == []


@pytest.mark.parametrize("resign", [True, False])
def test_tampered_result_counts_as_failed(tiny_run, tmp_path, resign):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run.run_dir, run_dir)
    path = run_dir / "results" / "table2.json"
    payload = read_payload(path)
    payload["result"]["notes"] = payload["result"]["notes"] + ["tampered"]
    if resign:
        _rewrite(path, payload)  # a well-formed envelope around a wrong result
    else:
        envelope = json.loads(path.read_text())
        envelope["payload"] = payload
        path.write_text(json.dumps(envelope))
    check = check_results(run_dir, TINY.ids, load_reference())
    assert len(check.failed) == 1 and check.failed[0].startswith("table2")


def test_int_float_retyping_is_drift_not_failure(tiny_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run.run_dir, run_dir)
    path = run_dir / "results" / "cost.json"
    payload = read_payload(path)
    before = canonical_digest(payload)
    payload["attempts"] = float(payload["attempts"])
    assert canonical_digest(payload) == before
    _rewrite(path, payload)
    check = check_results(run_dir, TINY.ids, load_reference())
    assert check.failed == [] and check.type_drift == ["cost"]


def test_missing_events_is_an_error(tiny_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run.run_dir, run_dir)
    (run_dir / "events.jsonl").unlink()
    with pytest.raises(BenchError, match="events.jsonl is missing"):
        summarize_events(dataclasses.replace(tiny_run, run_dir=run_dir))


def test_ledger_self_time_excludes_nested_frames():
    ledger = Ledger()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ledger.call("inner", inner)

    ledger.call("outer", outer)
    seconds = ledger.to_dict()["seconds"]
    assert 0.02 <= seconds["inner"] < 0.03
    assert 0.01 <= seconds["outer"] < 0.02
