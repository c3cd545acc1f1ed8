"""Circuit breaker around the supervised worker pool.

A run of consecutive worker-level failures — crashes or hard-timeout
kills — usually means the *environment* is sick (OOM-killer sweep,
cgroup pressure, a bad node), not the individual experiment.  Retrying
full-scale work into a sick pool burns the whole budget proving the
same point.  The breaker implements the classic three-state machine:

- **closed** (healthy): full-scale work flows; consecutive
  worker-category failures are counted.
- **open** (tripped): after ``failure_threshold`` consecutive
  ``worker-crash`` / ``worker-timeout`` failures, full-scale dispatch
  is refused for ``cooldown_seconds``; the service degrades those
  experiments to their ``QUICK_OVERRIDES`` parameterization (small
  enough to survive a sick pool, honest enough to be labelled
  degraded) rather than failing submissions outright.
- **half-open** (probing): after the cooldown, exactly *one*
  full-scale probe is allowed through.  Success closes the breaker;
  another worker failure re-opens it and restarts the cooldown.

Failures of other categories (analysis bugs, validation rejections)
say nothing about pool health and *reset* the consecutive count, as
does any success.

The clock is injectable so every transition is deterministic under
test.  State changes are exported as the ``service.breaker.state``
gauge (0 closed, 1 half-open, 2 open) plus trip/probe counters, and
every state *transition* is additionally delivered to an optional
``on_transition(old, new, t_wall)`` callback — the service uses it to
write ``breaker-transition`` records into its WAL so ``status``
can show the closed→open→half-open history with timestamps, not just
the current gauge.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Gauge encoding of the state (Prometheus-friendly).
STATE_GAUGE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}

#: Failure categories that indict the worker pool rather than the
#: experiment (see :mod:`repro.runtime.errors`).
TRIP_CATEGORIES: Tuple[str, ...] = ("worker-crash", "worker-timeout")


class CircuitBreaker:
    """Thread-safe three-state circuit breaker (see module docstring).

    Args:
        failure_threshold: Consecutive worker-category failures that
            trip the breaker.
        cooldown_seconds: How long the breaker stays open before it
            lets one half-open probe through.
        clock: Injectable monotonic time source.
        on_transition: Optional callback invoked (outside the lock)
            once per state change as ``(old_state, new_state, t_wall)``.
        wall_clock: Wall time stamped onto transitions.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, float], None]] = None,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1 (got {failure_threshold})"
            )
        if cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0 (got {cooldown_seconds})"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.on_transition = on_transition
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        self._pending_transitions: List[Tuple[str, str, float]] = []
        self._export()

    # -- introspection -----------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            state = self._state
        self._flush_transitions()
        return state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive

    def describe(self) -> dict:
        with self._lock:
            self._maybe_half_open_locked()
            description = {
                "state": self._state,
                "consecutive_failures": self._consecutive,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
            }
        self._flush_transitions()
        return description

    def _set_state_locked(self, new_state: str) -> None:
        """Change state, queueing the transition for delivery.

        The callback must run *outside* the lock (it may log, write
        events, or re-enter the breaker), so transitions queue here and
        every public entry point drains the queue after releasing.
        """
        if new_state == self._state:
            return
        self._pending_transitions.append(
            (self._state, new_state, self._wall_clock())
        )
        self._state = new_state

    def _flush_transitions(self) -> None:
        if self.on_transition is None:
            self._pending_transitions.clear()
            return
        while True:
            with self._lock:
                if not self._pending_transitions:
                    return
                old, new, t_wall = self._pending_transitions.pop(0)
            self.on_transition(old, new, t_wall)

    # -- the dispatch gate -------------------------------------------

    def allow_full_scale(self) -> bool:
        """May the next dispatch run at full scale?

        Closed: yes.  Open: no, until the cooldown elapses — then the
        breaker goes half-open and this call *claims* the single probe
        slot (returning True exactly once until the probe resolves).
        Half-open with the probe already outstanding: no.
        """
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == STATE_CLOSED:
                allowed = True
            elif self._state == STATE_HALF_OPEN and not self._probe_outstanding:
                self._probe_outstanding = True
                obs_metrics.inc("service.breaker.probes")
                allowed = True
            else:
                allowed = False
        self._flush_transitions()
        return allowed

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == STATE_OPEN
            and self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            self._set_state_locked(STATE_HALF_OPEN)
            self._probe_outstanding = False
            self._export()

    # -- outcome feedback --------------------------------------------

    def record_success(self) -> None:
        """A full-scale dispatch finished without worker failure."""
        with self._lock:
            self._maybe_half_open_locked()
            self._consecutive = 0
            if self._state != STATE_CLOSED:
                self._set_state_locked(STATE_CLOSED)
                self._probe_outstanding = False
                obs_metrics.inc("service.breaker.closes")
            self._export()
        self._flush_transitions()

    def record_failure(self, category: str) -> None:
        """One attempt failed with ``category``.

        Only worker-pool categories count toward tripping; any other
        failure category resets the consecutive run (the pool answered
        — the experiment itself was wrong).
        """
        with self._lock:
            self._maybe_half_open_locked()
            if category not in TRIP_CATEGORIES:
                self._consecutive = 0
                if self._state == STATE_HALF_OPEN:
                    # The probe failed for experiment-level reasons,
                    # but the pool itself answered: that is a healthy
                    # pool, so the probe counts as pool success.
                    self._set_state_locked(STATE_CLOSED)
                    self._probe_outstanding = False
                    obs_metrics.inc("service.breaker.closes")
                self._export()
            else:
                self._consecutive += 1
                if self._state == STATE_HALF_OPEN:
                    # The probe failed: straight back to open.
                    self._trip_locked()
                elif (
                    self._state == STATE_CLOSED
                    and self._consecutive >= self.failure_threshold
                ):
                    self._trip_locked()
                else:
                    self._export()
        self._flush_transitions()

    def _trip_locked(self) -> None:
        self._set_state_locked(STATE_OPEN)
        self._opened_at = self._clock()
        self._probe_outstanding = False
        obs_metrics.inc("service.breaker.trips")
        self._export()

    def _export(self) -> None:
        obs_metrics.set_gauge(
            "service.breaker.state", STATE_GAUGE[self._state]
        )
        obs_metrics.set_gauge(
            "service.breaker.consecutive_failures", self._consecutive
        )
