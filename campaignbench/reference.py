#!/usr/bin/env python3
"""Build or re-check the reference digests in ``reference.json``.

Run from the repository root::

    python3 campaignbench/reference.py build --seeds 1 2
    python3 campaignbench/reference.py check --seed 7

``build`` runs every workload once per seed and keeps, per experiment,
the canonical digest (which every workload and seed must agree on) and
the raw digest of the CLI-default workload, ``quicklist``.  ``check``
runs every workload with a seed that was not used to build the
references and exits 1 unless every result matches them.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from campaign import WORK_ROOT, become_subreaper, launch
from digests import REFERENCE_PATH, canonical_digest, check_results, load_reference, raw_digest, read_payload
from run import ALL_IDS, WORKLOADS

BENCHMARKED = ("quicklist", "quick5-inproc", "quick5-stream")


def build(seeds: List[int], work_dir: Path) -> int:
    canonical: Dict[str, set] = {i: set() for i in ALL_IDS}
    raw: Dict[str, set] = {i: set() for i in ALL_IDS}
    for seed in seeds:
        for name in BENCHMARKED:
            workload = WORKLOADS[name]
            ids = list(workload.ids)
            random.Random(seed).shuffle(ids)
            run = launch(workload.flags, ids, work_dir / f"{name}-{seed}")
            if run.returncode != 0:
                print(f"{name} seed {seed}: CLI exited with {run.returncode}", file=sys.stderr)
                return 1
            for experiment_id in ids:
                payload = read_payload(run.run_dir / "results" / f"{experiment_id}.json")
                if payload.get("status") != "ok":
                    print(f"{name} seed {seed}: {experiment_id} is {payload.get('status')}", file=sys.stderr)
                    return 1
                canonical[experiment_id].add(canonical_digest(payload))
                if name == "quicklist":
                    raw[experiment_id].add(raw_digest(payload))
    unstable = [i for i in ALL_IDS if len(canonical[i]) != 1 or len(raw[i]) != 1]
    if unstable:
        print(f"results differ between workloads or seeds: {unstable}", file=sys.stderr)
        return 1
    reference = {
        "build_seeds": seeds,
        "experiments": {
            i: {"digest": canonical[i].pop(), "raw_digest": raw[i].pop()} for i in ALL_IDS
        },
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ALL_IDS)} reference digests to {REFERENCE_PATH}")
    return 0


def check(seed: int, work_dir: Path) -> int:
    if seed in json.loads(REFERENCE_PATH.read_text())["build_seeds"]:
        print(f"seed {seed} built the references; pick a held-out seed", file=sys.stderr)
        return 2
    reference = load_reference()
    bad = 0
    for name in BENCHMARKED:
        workload = WORKLOADS[name]
        ids = list(workload.ids)
        random.Random(seed).shuffle(ids)
        run = launch(workload.flags, ids, work_dir / name)
        result = check_results(run.run_dir, ids, reference)
        for problem in result.failed:
            print(f"{name}: {problem}", file=sys.stderr)
        bad += len(result.failed) + (run.returncode != 0)
        print(f"{name}: {len(ids) - len(result.failed)}/{len(ids)} match, "
              f"type drift in {sorted(result.type_drift)}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build_parser = sub.add_parser("build")
    build_parser.add_argument("--seeds", type=int, nargs="+", required=True)
    check_parser = sub.add_parser("check")
    check_parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    become_subreaper()
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT))
    try:
        if args.command == "build":
            return build(args.seeds, work_dir)
        return check(args.seed, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
