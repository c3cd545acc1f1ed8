"""Module-level experiment runners for worker-backend tests.

The hard-isolation backend ships runners by importable reference, so
the usual in-test ``FakeExperiment`` instances cannot cross the
process boundary.  Everything here is a module-level function the
worker subprocess can re-import by name (the supervisor propagates its
``sys.path`` through ``PYTHONPATH``, so this test-only module resolves
inside workers too).
"""

from __future__ import annotations

import json
import os
import signal
import sys

from repro.experiments.runner import ExperimentResult


def run_ok(**kwargs) -> ExperimentResult:
    """A healthy experiment: echoes its kwargs into the result notes."""
    result = ExperimentResult(
        experiment_id="worker-target", title="worker target"
    )
    for key, value in sorted(kwargs.items()):
        result.notes.append(f"param {key}={value}")
    return result


def run_noisy(**kwargs) -> ExperimentResult:
    """Spams stdout before returning, to attack the wire protocol."""
    print("stray stdout line that must not corrupt the payload" * 50)
    return run_ok(**kwargs)


def run_crash(**kwargs) -> ExperimentResult:
    """Raises a taxonomy error (classified inside the worker)."""
    from repro.runtime.errors import SimulationError

    raise SimulationError("deliberate crash in worker target")


def run_wrong_type(**kwargs) -> int:
    """Returns a non-ExperimentResult (classified inside the worker)."""
    return 42


def run_sigkill(**kwargs) -> ExperimentResult:
    """Dies on an un-catchable signal, like a segfault or OOM kill."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)
    return run_ok(**kwargs)  # pragma: no cover - never reached


def process_state() -> dict:
    """What a fresh interpreter is handed: environment, import path,
    working directory, the dispositions of the signals the supervisor
    relies on, and where numpy was imported from."""

    def disposition(signum: int) -> str:
        handler = signal.getsignal(signum)
        return getattr(handler, "__name__", None) or repr(handler)

    import numpy

    return {
        "numpy": numpy.__file__,
        "environ": dict(os.environ),
        "path": list(sys.path),
        "cwd": os.getcwd(),
        "signals": {
            sig.name: disposition(sig)
            for sig in (signal.SIGINT, signal.SIGPIPE, signal.SIGTERM)
        },
    }


def run_process_state(**kwargs) -> ExperimentResult:
    """Reports :func:`process_state` as seen by the worker."""
    result = run_ok(**kwargs)
    result.notes = [json.dumps(process_state())]
    return result


def _factory():
    def local_runner(**kwargs):  # pragma: no cover - never shipped
        return run_ok(**kwargs)

    return local_runner


#: A closure: has a qualname, but one containing ``<locals>`` — not
#: shippable by reference.
local_runner = _factory()


if __name__ == "__main__":
    # ``python -m tests.runtime.worker_targets``: the same state, from
    # a cold interpreter.
    print(json.dumps(process_state()))
