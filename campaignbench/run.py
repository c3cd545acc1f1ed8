#!/usr/bin/env python3
"""Campaign benchmark: the experiment CLI end to end, split by layer.

Run from the repository root::

    python3 campaignbench/run.py --workload quicklist --seed 1 --seconds 10 --trace 0

Each workload is one campaign through ``python -m repro.experiments``
with fixed flags (see ``WORKLOADS`` and ``BENCHMARK.json``).  The seed
only shuffles the order of the experiment ids handed to the CLI; the
experiments fix their own generator seeds, so every order must give
the same results.

``--trace 0`` repeats the campaign until ``--seconds`` have passed (at
least once), each time led by the next id of the seed's order, tops up
the set-up samples with probes, and reports the medians of the
end-to-end metrics.  ``--trace 1`` runs the campaign once as it is and
once with the layer ledger of ``tracehook/`` loaded into every process,
and reports the per-layer metrics plus what tracing cost.

Every result file is checked against ``reference.json``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from campaign import (
    ROOT,
    SRC,
    TRACEHOOK,
    WORK_ROOT,
    BenchError,
    Launch,
    become_subreaper,
    launch,
    probe_setup,
    summarize_events,
    tree_bytes,
    worker_startup,
)
from digests import ResultCheck, check_results, load_reference

sys.path.insert(0, str(TRACEHOOK))
import layertrace  # noqa: E402

FIGURES = ("fig2", "fig4", "fig5", "fig6", "fig7")
ALL_IDS = FIGURES + (
    "table1", "table2", "grain", "all-cache", "assoc", "bh-phases", "prefetch",
    "hierarchy", "line-size", "cost", "scaling", "cg-blocking", "cg-unstructured",
    "volrend-stealing",
)

#: Set-up samples per ``--trace 0`` run; probes add to the campaigns' own.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    ids: Tuple[str, ...]
    flags: Tuple[str, ...]

    @property
    def in_process(self) -> bool:
        return "--jobs" in self.flags and self.flags[self.flags.index("--jobs") + 1] == "0"


WORKLOADS: Dict[str, Workload] = {
    "quicklist": Workload(ALL_IDS, ("--quick",)),
    "quick5-inproc": Workload(FIGURES, ("--quick", "--jobs", "0", "--no-obs")),
    "quick5-stream": Workload(FIGURES, ("--quick", "--stream")),
    # Not in BENCHMARK.json: the benchmark's own self-tests run this.
    "tiny": Workload(("table1", "table2", "cost"), ("--quick",)),
}


def load_spec() -> Dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def check_checkout() -> None:
    if not (SRC / "repro" / "experiments" / "__main__.py").is_file():
        raise BenchError(f"no experiment CLI under {SRC}: run from a full checkout")


@dataclass
class Campaign:
    ids: List[str]
    run: Launch
    check: ResultCheck
    setup_s: float
    attempt_s: Dict[str, float]
    retries: int


class Session:
    """The campaigns of one benchmark run, in a scratch directory."""

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        self.workload = WORKLOADS[name]
        self.order = list(self.workload.ids)
        random.Random(seed).shuffle(self.order)
        self.work_dir = work_dir
        self.reference = load_reference()
        self.campaigns: List[Campaign] = []
        self._count = 0

    def _next_dir(self) -> Path:
        self._count += 1
        return self.work_dir / f"run{self._count:03d}"

    def rotation(self, k: int) -> List[str]:
        """The seed's order of ids, rotated to start at its ``k``-th id."""
        k %= len(self.order)
        return self.order[k:] + self.order[:k]

    def campaign(self, ids: List[str], trace_dir: Path = None) -> Campaign:
        run = launch(self.workload.flags, ids, self._next_dir(), trace_dir)
        events = summarize_events(run)
        check = check_results(run.run_dir, ids, self.reference)
        campaign = Campaign(ids, run, check, events.setup_s, events.attempt_s, events.retries)
        self.campaigns.append(campaign)
        return campaign

    def probe(self) -> float:
        return probe_setup(self.workload.flags, self.order, self._next_dir())

    def attempted(self) -> int:
        return len(self.workload.ids) * len(self.campaigns)

    def failed(self) -> int:
        return sum(len(c.check.failed) for c in self.campaigns)

    def verdict(self) -> Dict:
        exits_ok = True
        for campaign in self.campaigns:
            for problem in campaign.check.failed:
                print(f"FAILED {campaign.run.run_dir.name} {problem}", file=sys.stderr)
            if campaign.run.returncode != 0:
                exits_ok = False
                print(f"FAILED {campaign.run.run_dir.name} CLI exited with status "
                      f"{campaign.run.returncode}", file=sys.stderr)
        failed = self.failed()
        return {"correct": exits_ok and failed == 0, "attempted": self.attempted(), "failed": failed}


def end_to_end(session: Session, seconds: float) -> Dict[str, float]:
    """Campaigns for ``seconds``, each led by the next id of the seed's order.

    In one process the first experiment pays the kernel guard's
    first-chunk shadow verify, so the cost depends on which experiment
    leads (fig6 first costs over twice fig2 first).  Such a run ends on
    a whole cycle of rotations, in which every experiment leads once.
    """
    cycle = len(session.order) if session.workload.in_process else 1
    campaigns = session.campaigns
    start = time.perf_counter()
    while len(campaigns) % cycle or time.perf_counter() - start < seconds:
        session.campaign(session.rotation(len(campaigns)))
    setups = [c.setup_s for c in campaigns]
    setups += [session.probe() for _ in range(SETUP_SAMPLES - len(setups))]
    return {
        "wall_s": statistics.median(c.run.wall_s for c in campaigns),
        "cpu_s": statistics.median(c.run.cpu_s for c in campaigns),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.run.peak_rss_mb for c in campaigns),
        "ok_frac": 1.0 - session.failed() / session.attempted(),
        "paper_err": statistics.median(c.check.paper_err for c in campaigns),
    }


def per_layer(session: Session) -> Dict[str, float]:
    plain = session.campaign(session.order)
    trace_dir = session.work_dir / "ledgers"
    trace_dir.mkdir()
    traced = session.campaign(session.order, trace_dir)
    ledger = dict.fromkeys(layertrace.METRICS, 0.0)
    ledger.update(layertrace.merge(trace_dir))
    if len(ledger) != len(layertrace.METRICS):
        raise BenchError(f"undeclared ledger keys: {sorted(set(ledger) - set(layertrace.METRICS))}")
    guard_refs = ledger.pop("mem.kernels.guard_refs")
    verified_refs = ledger.pop("mem.kernels.verified_refs")
    metrics: Dict[str, float] = dict(ledger)
    metrics["mem.kernels.verified_refs_frac"] = verified_refs / guard_refs if guard_refs else 0.0
    if "--no-obs" in session.workload.flags:
        # No spans.jsonl; the one such workload runs in-process anyway.
        metrics.update({"runtime.workers.spawns": 0.0, "runtime.workers.startup_s": 0.0})
    else:
        metrics.update(worker_startup(plain.run.run_dir))
    metrics["runtime.run_dir_bytes"] = float(tree_bytes(plain.run.run_dir))
    for experiment_id in ALL_IDS:
        metrics[f"experiments.{experiment_id}.attempt_s"] = plain.attempt_s.get(experiment_id, 0.0)
    metrics["experiments.retries"] = float(plain.retries)
    metrics["experiments.payload_type_drift"] = float(len(plain.check.type_drift))
    metrics["trace.overhead_ratio"] = traced.run.wall_s / plain.run.wall_s
    metrics["trace.unattributed_s"] = traced.run.wall_s - sum(
        v for k, v in ledger.items() if k.endswith("_s")
    )
    return metrics


def report(values: Dict[str, float], declared: Sequence[Dict]) -> Dict[str, Dict]:
    """Pick the declared metrics, in order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark does not measure: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One benchmark run; returns the result object (without printing it)."""
    spec = load_spec()
    check_checkout()
    become_subreaper()
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        session = Session(workload, seed, work_dir)
        if trace:
            metrics = report(per_layer(session), spec["per_layer"])
        else:
            metrics = report(end_to_end(session, seconds), spec["end_to_end"])
        return {**session.verdict(), "metrics": metrics}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"campaignbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
