"""Deterministic fault injection for the campaign engine.

Recovery code that is never exercised is broken code.  This module
injects the failure modes the engine must survive — crashes, hangs
(cooperative and non-cooperative), memory blowups, sudden worker death,
and corrupted trace archives — at precisely controlled points, so the
isolation/retry/degradation/checkpoint paths are themselves under test
(the same philosophy as the checkpointed workload harnesses used by
production-scale studies; cf. PAPERS.md).

A :class:`FaultInjector` is handed to the
:class:`~repro.runtime.engine.CampaignEngine`; before each attempt of
each experiment the engine calls :meth:`FaultInjector.before_attempt`,
which consults the plan and triggers the configured fault:

- ``"crash"`` — raise a taxonomy exception
  (:class:`~repro.runtime.errors.SimulationError` by default).
- ``"hang"`` (cooperative, the default) — spin on the attempt's budget
  until the cooperative deadline check raises
  :class:`~repro.runtime.errors.BudgetExceeded`, exactly as a runaway
  simulation loop would.
- ``"hang"`` with ``cooperative=False`` — a busy loop that *never*
  polls the ambient budget: invisible to cooperative enforcement, only
  the worker backend's SIGTERM→SIGKILL escalation can stop it.
- ``"memhog"`` — allocate memory without bound until the worker's
  address-space rlimit fires (worker backend only).
- ``"die"`` — ``os._exit`` without writing a result payload, like a
  segfault or OOM kill (worker backend only).
- ``"corrupt-trace"`` — write a real trace archive, flip a byte in it,
  and load it back, so the failure travels the genuine
  :class:`~repro.mem.tracefile.TraceFileCorruptError` path.

The non-containable kinds (non-cooperative hang, memhog, die) are
refused when fired in-process: they would do to the campaign exactly
what the worker backend exists to prevent.  The worker entry point
(:func:`repro.experiments.runner.worker_main`, run in each forked
worker process) fires them with ``in_worker=True``.

Every fault fires on the first ``fail_attempts`` attempts and then
stands down, which lets tests script "fails once, succeeds degraded"
scenarios deterministically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.runtime import errors as errors_module
from repro.runtime.budget import Budget
from repro.runtime.errors import ExperimentError, SimulationError

FAULT_KINDS = ("crash", "hang", "corrupt-trace", "memhog", "die")

#: Fault kinds (plus the non-cooperative hang) that cannot be contained
#: by the in-process backend and are only allowed inside a worker.
WORKER_ONLY_KINDS = ("memhog", "die")


def corrupt_file(path: Union[str, Path], offset: int = -1, flip: int = 0xFF) -> None:
    """Flip one byte of ``path`` in place (bit-level corruption).

    Args:
        path: File to damage.
        offset: Byte offset; negative offsets index from the end.
        flip: XOR mask applied to the byte (default inverts it).
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    data[offset] ^= flip
    path.write_bytes(bytes(data))


@dataclass
class FaultSpec:
    """What to inject into one experiment.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        fail_attempts: How many initial attempts the fault hits; later
            attempts run clean (so retry/degradation can succeed).
        exception: Exception class raised by ``"crash"`` faults.
        message: Message for ``"crash"`` faults.
        cooperative: For ``"hang"``: True spins on the ambient budget
            (catchable in-process); False busy-loops without ever
            polling it (only a process kill can stop it).
        exit_code: Exit status used by ``"die"`` faults.
    """

    kind: str
    fail_attempts: int = 1
    exception: type = SimulationError
    message: str = "injected fault"
    cooperative: bool = True
    exit_code: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.fail_attempts < 1:
            raise ValueError("fail_attempts must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (shipped to worker processes)."""
        return {
            "kind": self.kind,
            "fail_attempts": self.fail_attempts,
            "exception": self.exception.__name__,
            "message": self.message,
            "cooperative": self.cooperative,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        """Rebuild a spec on the worker side of the pipe.

        The exception class is resolved by name against the error
        taxonomy (then builtins); unknown names fall back to
        :class:`SimulationError` rather than failing the round-trip.
        """
        name = str(payload.get("exception", "SimulationError"))
        exception = getattr(errors_module, name, None)
        if not (isinstance(exception, type) and issubclass(exception, BaseException)):
            import builtins

            exception = getattr(builtins, name, None)
        if not (isinstance(exception, type) and issubclass(exception, BaseException)):
            exception = SimulationError
        return cls(
            kind=str(payload["kind"]),
            fail_attempts=int(payload.get("fail_attempts", 1)),
            exception=exception,
            message=str(payload.get("message", "injected fault")),
            cooperative=bool(payload.get("cooperative", True)),
            exit_code=int(payload.get("exit_code", 1)),
        )


def fire_fault(
    spec: FaultSpec,
    experiment_id: str,
    attempt: int,
    budget: Optional[Budget] = None,
    workspace: Optional[Path] = None,
    in_worker: bool = False,
) -> None:
    """Trigger ``spec`` for one attempt.

    Shared by the in-process :class:`FaultInjector` and the worker
    entry point (:func:`repro.experiments.runner.worker_main`, in a
    worker process forked by :mod:`repro.runtime.zygote`).  The
    kinds that can only be contained by killing a process are refused
    unless ``in_worker`` is True.
    """
    uncontainable = spec.kind in WORKER_ONLY_KINDS or (
        spec.kind == "hang" and not spec.cooperative
    )
    if uncontainable and not in_worker:
        raise ExperimentError(
            f"fault {spec.kind!r}"
            f"{'' if spec.cooperative else ' (non-cooperative)'} for "
            f"{experiment_id!r} can only be contained by the worker "
            "backend; refusing to fire it in-process"
        )
    if spec.kind == "crash":
        raise spec.exception(
            f"{spec.message} (experiment {experiment_id}, attempt {attempt})"
        )
    if spec.kind == "hang":
        if spec.cooperative:
            _hang_cooperative(experiment_id, budget)
        else:
            _hang_hard()
        return
    if spec.kind == "memhog":
        _memhog()
        return
    if spec.kind == "die":
        os._exit(spec.exit_code)
    if spec.kind == "corrupt-trace":
        _corrupt_trace(experiment_id, workspace)


def _hang_cooperative(experiment_id: str, budget: Optional[Budget]) -> None:
    """Busy-wait on the budget like a runaway simulation loop."""
    if budget is None or budget.seconds is None:
        # Refuse to spin forever: an unbudgeted cooperative hang would
        # do exactly what the engine exists to prevent.
        raise ExperimentError(
            f"cooperative hang fault for {experiment_id!r} requires a "
            "finite budget"
        )
    while True:
        budget.check(f"injected hang in {experiment_id}")


def _hang_hard() -> None:
    """Busy loop that never polls the ambient budget.

    Models a hang in un-instrumented code (a numpy kernel, an octree
    build): cooperative deadline checks cannot see it, so only the
    supervisor's SIGTERM→SIGKILL escalation ends it.
    """
    while True:
        pass


def _memhog(chunk_bytes: int = 16 * 1024 * 1024) -> None:
    """Allocate without bound until the address-space rlimit fires."""
    hog = []
    while True:
        block = bytearray(chunk_bytes)
        # Touch the pages so the allocation is real, not lazily mapped.
        block[::4096] = b"\xff" * len(block[::4096])
        hog.append(block)


def _corrupt_trace(experiment_id: str, workspace: Optional[Path]) -> None:
    """Round-trip a trace through a deliberately damaged archive."""
    import numpy as np

    from repro.mem.trace import Trace
    from repro.mem.tracefile import load_trace, save_trace

    if workspace is None:
        raise ExperimentError(
            "corrupt-trace fault requires a workspace directory"
        )
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    path = workspace / f"{experiment_id}-injected.npz"
    trace = Trace(
        np.arange(0, 256 * 8, 8, dtype=np.int64),
        np.zeros(256, dtype=np.uint8),
    )
    save_trace(path, trace)
    # Flip a byte in the middle of the archive: inside the
    # compressed array data, so decompression or the checksum fails.
    corrupt_file(path, offset=path.stat().st_size // 2)
    load_trace(path)  # raises TraceFileCorruptError


@dataclass
class FaultInjector:
    """Injects planned faults into campaign attempts.

    Attributes:
        plan: experiment id -> :class:`FaultSpec`.
        workspace: Directory for the corrupt-trace scratch archive
            (required only when the plan contains ``"corrupt-trace"``).
        triggered: Log of ``(experiment_id, attempt, kind)`` tuples,
            appended every time a fault fires — lets tests assert the
            exact injection sequence.
    """

    plan: Dict[str, FaultSpec] = field(default_factory=dict)
    workspace: Optional[Path] = None
    triggered: List[Tuple[str, int, str]] = field(default_factory=list)

    def spec_for(self, experiment_id: str, attempt: int) -> Optional[FaultSpec]:
        """The fault armed for this attempt, or None (stood down)."""
        spec = self.plan.get(experiment_id)
        if spec is None or attempt > spec.fail_attempts:
            return None
        return spec

    def record(self, experiment_id: str, attempt: int, kind: str) -> None:
        """Log one firing (the worker backend records at ship time)."""
        self.triggered.append((experiment_id, attempt, kind))

    def before_attempt(
        self, experiment_id: str, attempt: int, budget: Budget
    ) -> None:
        """Fire the planned fault for this attempt in-process, if any."""
        spec = self.spec_for(experiment_id, attempt)
        if spec is None:
            return
        self.record(experiment_id, attempt, spec.kind)
        fire_fault(
            spec,
            experiment_id,
            attempt,
            budget=budget,
            workspace=self.workspace,
            in_worker=False,
        )
