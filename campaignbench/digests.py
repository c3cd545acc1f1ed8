"""Correctness of a campaign's results against the committed references.

Every experiment's result file (``<run dir>/results/<id>.json``) must
carry an intact checksum envelope, a payload with status ``ok``, and a
payload whose *canonical digest* equals the reference.  The canonical
digest is the sha256 of the payload with every ``elapsed_seconds``
dropped and every number written as a float, so it is the same for a
result computed in-process and one that crossed the worker pipe.

The *raw digest* keeps the int/float typing.  A file whose canonical
digest matches but whose raw digest does not is counted as payload type
drift: the value is right, the type changed on the way.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def _as_floats(value):
    if isinstance(value, dict):
        return {k: _as_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_floats(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_digest(payload: Dict) -> str:
    return _sha256(_as_floats(_without_elapsed(payload)))


def raw_digest(payload: Dict) -> str:
    return _sha256(_without_elapsed(payload))


def read_payload(path: Path) -> Dict:
    """The payload of a result envelope; ``ValueError`` if it is damaged."""
    envelope = json.loads(path.read_text(encoding="utf-8"))
    payload = envelope["payload"]
    stored = envelope.get("sha256")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != stored:
        raise ValueError(f"{path}: checksum envelope does not match its payload")
    return payload


def paper_errors(payload: Dict) -> List[float]:
    """|log2(measured / paper)| of every comparison that has a paper value."""
    errors = []
    for comparison in payload["result"].get("comparisons", []):
        measured = comparison.get("measured_value")
        paper = comparison.get("paper_value")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (measured, paper)):
            continue
        if measured > 0 and paper > 0:
            errors.append(abs(math.log2(measured / paper)))
    return errors


def load_reference() -> Dict[str, Dict[str, str]]:
    return json.loads(REFERENCE_PATH.read_text())["experiments"]


@dataclass
class ResultCheck:
    """What one campaign's result files say about correctness."""

    failed: List[str] = field(default_factory=list)
    type_drift: List[str] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)

    @property
    def paper_err(self) -> float:
        return statistics.median(self.errors) if self.errors else math.nan


def check_results(run_dir: Path, ids: Sequence[str], reference: Dict[str, Dict[str, str]]) -> ResultCheck:
    """Check every requested experiment's result file in ``run_dir``."""
    check = ResultCheck()
    for experiment_id in ids:
        path = run_dir / "results" / f"{experiment_id}.json"
        try:
            payload = read_payload(path)
        except (OSError, ValueError, KeyError) as exc:
            check.failed.append(f"{experiment_id}: {exc}")
            continue
        expected = reference.get(experiment_id)
        if payload.get("status") != "ok":
            check.failed.append(f"{experiment_id}: status {payload.get('status')!r}")
        elif expected is None or canonical_digest(payload) != expected["digest"]:
            check.failed.append(f"{experiment_id}: result differs from the reference")
        elif raw_digest(payload) != expected["raw_digest"]:
            check.type_drift.append(experiment_id)
        check.errors.extend(paper_errors(payload))
    return check
