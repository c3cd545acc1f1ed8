"""The multi-tenant campaign service (``repro.service``).

A long-running stdlib-only HTTP/JSON service that accepts concurrent
campaign submissions and survives overload, client abuse, and worker
failure.  One service owns one **service root**::

    <root>/service.lease          service-level fencing lease
    <root>/service.wal            write-ahead submission journal
    <root>/service.json           bound address (host/port/pid)
    <root>/metrics.json           rolling service metrics snapshot
    <root>/cache/                 shared content-addressed result cache
    <root>/campaigns/<tenant>/<campaign-id>/   one standard run dir each

Every per-campaign directory is a *normal* campaign run directory —
manifest, checkpoints, journal, lease, events, metrics — so ``status``,
``report``, ``validate``, and ``--resume`` all work on it unchanged.

**API surface** (see ``docs/SERVICE.md``):

- ``POST /v1/campaigns`` — submit ``{"tenant", "experiments",
  "quick", "deadline_seconds"}``; 202 with a campaign id, or 429/503
  with ``Retry-After`` under backpressure.
- ``GET /v1/campaigns/<id>`` — submission state (queued / running /
  complete / failed / deadline-exceeded), cache-hit tally.
- ``GET /v1/campaigns/<id>/result`` — the finished campaign summary.
- ``GET /healthz`` / ``GET /readyz`` — liveness vs readiness
  (``readyz`` turns 503 the moment a drain starts).
- ``GET /metrics`` — Prometheus text exposition of the registry.

**Durability.**  A submission is acknowledged (202) only after a
``submission-accepted`` record is fsynced into ``service.wal``; a
``submission-done`` record closes it.  On startup the WAL is replayed
(torn tail truncated): accepted-but-not-done submissions are re-queued
under their original campaign ids, and each per-campaign run directory
resumes through the PR-4 journal recovery — so a SIGKILL at any
instruction, including mid-drain, loses no accepted work and re-runs
no committed attempt.

**Drain.**  On SIGTERM the service stops admitting (readyz 503,
submissions 503), lets in-flight campaigns finish, leaves queued
submissions journaled for the next incarnation, flushes a final
metrics snapshot, journals the drain, and exits 0.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import EngineConfig
from repro.runtime.errors import JournalCorruptError, LeaseHeldError
from repro.runtime.events import EventLog
from repro.runtime.iofault import atomic_write_text
from repro.runtime.journal import (
    Journal,
    read_journal,
    recover,
    truncate_torn_tail,
)
from repro.runtime.lease import Lease
from repro.service.admission import (
    AdmissionClosed,
    AdmissionController,
    AdmissionRejected,
)
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache
from repro.service.engine import CachedCampaignEngine

SERVICE_WAL = "service.wal"
SERVICE_LEASE_TTL = 30.0
SERVICE_INFO = "service.json"
CAMPAIGNS_DIRNAME = "campaigns"
CACHE_DIRNAME = "cache"

#: Submission states exposed over the API.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_COMPLETE = "complete"
STATE_FAILED = "failed"
STATE_DEADLINE = "deadline-exceeded"
TERMINAL_STATES = (STATE_COMPLETE, STATE_FAILED, STATE_DEADLINE)


@dataclass
class ServiceConfig:
    """Service-wide policy knobs.

    Attributes:
        host, port: Bind address; port 0 picks an ephemeral port
            (read it back from ``service.json`` or :attr:`address`).
        queue_capacity: Bounded queue depth per tenant.
        max_queued: Global queued-submission cap (the memory bound).
        dispatchers: Concurrent campaign-running threads.
        jobs: ``EngineConfig.jobs`` for each campaign (0 = in-process).
        quick: Force every campaign to quick parameterizations.
        max_attempts: Per-experiment attempt budget.
        default_deadline_seconds: Deadline applied when a submission
            names none (None = no deadline).
        max_deadline_seconds: Ceiling on client-requested deadlines.
        breaker_threshold / breaker_cooldown_seconds: Circuit-breaker
            trip point and open-state cooldown.
        lease_ttl_seconds: TTL for the service and campaign leases.
        clock / wall_clock: Injectable time sources.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_capacity: int = 8
    max_queued: int = 64
    dispatchers: int = 1
    jobs: int = 0
    quick: bool = False
    max_attempts: int = 3
    default_deadline_seconds: Optional[float] = None
    max_deadline_seconds: float = 3600.0
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 30.0
    lease_ttl_seconds: float = SERVICE_LEASE_TTL
    clock: Callable[[], float] = time.monotonic
    wall_clock: Callable[[], float] = time.time

    def __post_init__(self) -> None:
        if self.dispatchers < 1:
            raise ValueError(f"dispatchers must be >= 1 (got {self.dispatchers})")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 (got {self.jobs})")
        if self.max_deadline_seconds <= 0:
            raise ValueError("max_deadline_seconds must be positive")


@dataclass
class Submission:
    """One accepted campaign submission."""

    campaign_id: str
    tenant: str
    experiments: List[str]
    quick: bool
    accepted_wall: float
    deadline_wall: Optional[float] = None
    state: str = STATE_QUEUED
    detail: str = ""
    cache_hits: int = 0
    statuses: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign_id": self.campaign_id,
            "tenant": self.tenant,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "accepted_wall": self.accepted_wall,
            "deadline_wall": self.deadline_wall,
            "state": self.state,
            "detail": self.detail,
            "cache_hits": self.cache_hits,
            "statuses": dict(self.statuses),
            "status_url": f"/v1/campaigns/{self.campaign_id}",
        }


class CampaignService:
    """The service supervisor (see module docstring).

    Args:
        root: Service root directory (created if missing).
        registry: experiment id -> (runner, kwargs), as for
            :class:`~repro.runtime.engine.CampaignEngine`.
        quick_overrides: Reduced-size parameterizations (also the
            breaker's degradation target).
        config: :class:`ServiceConfig`.
    """

    def __init__(
        self,
        root,
        registry,
        quick_overrides=None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.root = Path(root)
        self.registry = dict(registry)
        self.quick_overrides = dict(quick_overrides or {})
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.root / CACHE_DIRNAME)
        self.admission = AdmissionController(
            queue_capacity=self.config.queue_capacity,
            max_total=self.config.max_queued,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown_seconds,
            clock=self.config.clock,
            on_transition=self._journal_breaker_transition,
            wall_clock=self.config.wall_clock,
        )
        self._lock = threading.Lock()
        self._submissions: Dict[str, Submission] = {}
        self._seq = 0
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._dispatchers: List[threading.Thread] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._lease: Optional[Lease] = None
        self._journal: Optional[Journal] = None
        self._inflight = 0

    # -- lifecycle ---------------------------------------------------

    @property
    def campaigns_dir(self) -> Path:
        return self.root / CAMPAIGNS_DIRNAME

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("service is not started")
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def start(self) -> None:
        """Recover the WAL, take the lease, bind, and start serving.

        Raises :class:`~repro.runtime.errors.LeaseHeldError` when a
        live service already owns the root, and
        :class:`~repro.runtime.errors.JournalCorruptError` on mid-file
        WAL corruption (a torn tail is truncated silently — that is
        the expected crash signature).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        wal_path = self.root / SERVICE_WAL
        truncate_torn_tail(wal_path)  # raises JournalCorruptError mid-file
        replay = read_journal(wal_path)
        self._lease = Lease.acquire(
            self.root,
            ttl_seconds=self.config.lease_ttl_seconds,
            token_floor=replay.last_token,
            wall_clock=self.config.wall_clock,
        )
        self._lease.start_heartbeat()
        self._journal = Journal(
            wal_path,
            token=self._lease.token,
            wall_clock=self.config.wall_clock,
        )
        self._recover_submissions(replay.records)
        for index in range(self.config.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"service-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port),
            _make_handler(self),
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        self._http_thread.start()
        host, port = self.address
        atomic_write_text(
            self.root / SERVICE_INFO,
            json.dumps(
                {
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "started_wall": self.config.wall_clock(),
                },
                indent=1,
                sort_keys=True,
            ),
            site="service",
            durable=False,
        )
        self._write_metrics_snapshot()

    def _recover_submissions(self, records: List[Dict[str, object]]) -> None:
        """Rebuild submission states from the WAL; re-queue open ones.

        ``submission-accepted`` without a matching ``submission-done``
        means the previous incarnation was killed with the work still
        owed: it re-enters the queue under its *original* campaign id,
        so its run directory resumes exactly-once through journal
        recovery instead of starting over.
        """
        accepted: Dict[str, Dict[str, object]] = {}
        done: Dict[str, Dict[str, object]] = {}
        for record in records:
            campaign_id = record.get("campaign_id")
            if not isinstance(campaign_id, str):
                continue
            if record.get("type") == "submission-accepted":
                accepted[campaign_id] = record
            elif record.get("type") == "submission-done":
                done[campaign_id] = record
        for campaign_id, record in accepted.items():
            submission = Submission(
                campaign_id=campaign_id,
                tenant=str(record.get("tenant", "")),
                experiments=[str(x) for x in record.get("experiments", [])],
                quick=bool(record.get("quick", False)),
                accepted_wall=float(record.get("t_wall", 0.0)),
                deadline_wall=(
                    float(record["deadline_wall"])
                    if record.get("deadline_wall") is not None
                    else None
                ),
            )
            closing = done.get(campaign_id)
            if closing is not None:
                submission.state = str(closing.get("status", STATE_COMPLETE))
                submission.cache_hits = int(closing.get("cache_hits", 0))
            else:
                submission.state = STATE_QUEUED
                submission.detail = "re-queued by WAL recovery"
                self.admission.submit(
                    submission.tenant, submission, enforce_bounds=False
                )
                obs_metrics.inc("service.recovered_submissions")
            with self._lock:
                self._submissions[campaign_id] = submission
                self._seq += 1

    # -- breaker telemetry -------------------------------------------

    def _journal_breaker_transition(self, old: str, new: str, t_wall: float) -> None:
        """The breaker's ``on_transition`` callback: journal the move.

        The transition history (not just the current gauge) is what
        ``status --follow`` renders; the WAL is the durable witness.
        """
        journal = self._journal
        if journal is None:
            return  # a transition before start()/after close: gauge only
        try:
            journal.append(
                "breaker-transition",
                breaker="service",
                from_state=old,
                to_state=new,
                at_wall=t_wall,
            )
        except OSError:
            pass  # telemetry must not wedge the breaker
        obs_metrics.inc("service.breaker_transitions")

    # -- submission --------------------------------------------------

    def submit(
        self,
        tenant: str,
        experiments: List[str],
        quick: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> Submission:
        """Admit one campaign submission (the POST handler's core).

        Raises ``ValueError`` on malformed input, ``AdmissionClosed``
        while draining, and ``AdmissionRejected`` under backpressure.
        The 202 contract: this returns only after the acceptance is
        journaled, so an acknowledged submission survives SIGKILL.
        """
        if self._draining.is_set():
            raise AdmissionClosed("service is draining")
        if not experiments:
            raise ValueError("experiments must be a non-empty list")
        unknown = [e for e in experiments if e not in self.registry]
        if unknown:
            raise ValueError(
                f"unknown experiments: {unknown}; "
                f"choices: {sorted(self.registry)}"
            )
        deadline = deadline_seconds
        if deadline is None:
            deadline = self.config.default_deadline_seconds
        if deadline is not None:
            if deadline <= 0:
                raise ValueError("deadline_seconds must be positive")
            deadline = min(deadline, self.config.max_deadline_seconds)
        now = self.config.wall_clock()
        with self._lock:
            self._seq += 1
            campaign_id = f"{tenant}-{self._seq:05d}"
        submission = Submission(
            campaign_id=campaign_id,
            tenant=tenant,
            experiments=list(experiments),
            quick=bool(quick) or self.config.quick,
            accepted_wall=now,
            deadline_wall=None if deadline is None else now + deadline,
        )
        # Admission first (the bounded-memory gate), then the WAL
        # record, then the 202: a crash after the journal append but
        # before the response re-queues work the client never saw
        # acknowledged — harmless; the reverse order would acknowledge
        # work a crash could lose.
        self.admission.submit(tenant, submission)
        with self._lock:
            self._submissions[campaign_id] = submission
        self._journal.append(
            "submission-accepted",
            campaign_id=campaign_id,
            tenant=tenant,
            experiments=list(submission.experiments),
            quick=submission.quick,
            deadline_wall=submission.deadline_wall,
        )
        obs_metrics.inc("service.submissions")
        return submission

    def get_submission(self, campaign_id: str) -> Optional[Submission]:
        with self._lock:
            return self._submissions.get(campaign_id)

    def run_dir_for(self, submission: Submission) -> Path:
        return self.campaigns_dir / submission.tenant / submission.campaign_id

    # -- dispatch ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self.admission.next_job(timeout=0.2)
            if job is None:
                if self._draining.is_set():
                    return
                continue
            tenant, submission = job
            with self._lock:
                self._inflight += 1
            started = self.config.clock()
            try:
                self._run_submission(submission)
            except Exception as exc:  # noqa: BLE001 — the loop must survive
                self._finish_submission(
                    submission, STATE_FAILED, detail=f"dispatcher error: {exc}"
                )
            finally:
                with self._lock:
                    self._inflight -= 1
                self.admission.note_service_time(
                    self.config.clock() - started
                )
                self._write_metrics_snapshot()

    def _run_submission(self, submission: Submission) -> None:
        """Run one campaign in its own run directory, cache-aware."""
        submission.state = STATE_RUNNING
        budget: Optional[float] = None
        if submission.deadline_wall is not None:
            remaining = submission.deadline_wall - self.config.wall_clock()
            if remaining <= 0:
                self._finish_submission(
                    submission,
                    STATE_DEADLINE,
                    detail="deadline expired while queued",
                )
                return
            budget = remaining
        run_dir = self.run_dir_for(submission)
        store = CheckpointStore(run_dir)
        try:
            recovery = recover(run_dir)
        except JournalCorruptError as exc:
            self._finish_submission(
                submission, STATE_FAILED, detail=f"campaign journal corrupt: {exc}"
            )
            return
        try:
            lease = Lease.acquire(
                run_dir,
                ttl_seconds=self.config.lease_ttl_seconds,
                token_floor=recovery.last_token if recovery else 0,
                wall_clock=self.config.wall_clock,
            )
        except LeaseHeldError as exc:
            self._finish_submission(
                submission, STATE_FAILED, detail=f"campaign lease refused: {exc}"
            )
            return
        lease.start_heartbeat()
        journal = Journal(
            run_dir / "journal.wal",
            token=lease.token,
            wall_clock=self.config.wall_clock,
        )
        if recovery is not None:
            journal.append("recovered", **recovery.to_dict())
        event_log = EventLog(store.events_path)
        engine = CachedCampaignEngine(
            self.registry,
            quick_overrides=self.quick_overrides,
            config=EngineConfig(
                quick=submission.quick,
                budget_seconds=budget,
                max_attempts=self.config.max_attempts,
                jobs=self.config.jobs,
            ),
            store=store,
            event_log=event_log,
            journal=journal,
            recovery=recovery,
            cache=self.cache,
            breaker=self.breaker,
        )
        try:
            report = engine.run(submission.experiments)
        except KeyboardInterrupt:
            # The engine already flushed a partial summary; the WAL
            # keeps the submission open so the next incarnation
            # resumes it.
            raise
        finally:
            event_log.close()
            journal.close()
            lease.release()
        submission.statuses = {
            o.experiment_id: o.status for o in report.outcomes
        }
        submission.cache_hits = len(engine.cache_hits)
        self._finish_submission(
            submission,
            STATE_COMPLETE if report.succeeded else STATE_FAILED,
            detail="" if report.succeeded else f"failed: {report.failed_ids}",
        )

    def _finish_submission(
        self, submission: Submission, state: str, detail: str = ""
    ) -> None:
        submission.state = state
        submission.detail = detail
        obs_metrics.inc(f"service.submissions_{state.replace('-', '_')}")
        try:
            self._journal.append(
                "submission-done",
                campaign_id=submission.campaign_id,
                status=state,
                cache_hits=submission.cache_hits,
            )
        except OSError:
            pass  # WAL trouble must not wedge the dispatcher; recovery re-runs

    # -- drain -------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight work.

        Queued-but-unstarted submissions stay journaled as accepted in
        the WAL — the next incarnation re-queues them — while every
        in-flight campaign runs to completion (its own checkpoints and
        journal make a SIGKILL mid-drain resumable exactly-once).
        Returns True when everything wound down within ``timeout``.
        """
        self._draining.set()
        self.admission.close()
        # Pull still-queued submissions out of the dispatch queue:
        # they remain WAL-accepted (the durable truth) and will be
        # re-queued by the next incarnation's recovery.
        parked = self.admission.drain_remaining()
        for _, submission in parked:
            submission.detail = "parked by drain; resumes on next start"
        clean = True
        for thread in self._dispatchers:
            thread.join(timeout=timeout)
            clean = clean and not thread.is_alive()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
        try:
            if self._journal is not None:
                self._journal.append(
                    "interrupted",
                    completed=len(
                        [
                            s
                            for s in self._submissions.values()
                            if s.state in TERMINAL_STATES
                        ]
                    ),
                    requested=len(self._submissions),
                    parked=len(parked),
                )
        except OSError:
            pass
        self._write_metrics_snapshot()
        if self._journal is not None:
            self._journal.close()
        if self._lease is not None:
            self._lease.release()
        obs_metrics.inc("service.drains")
        self._drained.set()
        return clean

    # -- observability ------------------------------------------------

    def _write_metrics_snapshot(self) -> None:
        """Refresh ``<root>/metrics.json`` (best-effort, atomic)."""
        if not obs_metrics.obs_enabled():
            return
        snapshot = {
            "format": obs_metrics.METRICS_FORMAT,
            "written_wall": self.config.wall_clock(),
            "trace_id": None,
            "campaign": obs_metrics.get_registry().snapshot(),
            "attempts": {},
        }
        try:
            atomic_write_text(
                self.root / obs_metrics.METRICS_FILENAME,
                json.dumps(snapshot, indent=1, sort_keys=True),
                site="metrics",
                durable=False,
            )
        except OSError:
            pass

    def describe(self) -> Dict[str, object]:
        """Service-level rollup (also served at ``GET /v1/service``)."""
        with self._lock:
            submissions = list(self._submissions.values())
            inflight = self._inflight
        counts: Dict[str, int] = {}
        for submission in submissions:
            counts[submission.state] = counts.get(submission.state, 0) + 1
        return {
            "draining": self.draining,
            "inflight": inflight,
            "queue_depths": self.admission.depths(),
            "pending_total": self.admission.pending_total(),
            "breaker": self.breaker.describe(),
            "submissions": counts,
        }


# -- HTTP plumbing ---------------------------------------------------------


def _make_handler(service: CampaignService):
    """Bind a BaseHTTPRequestHandler subclass to ``service``."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1"
        protocol_version = "HTTP/1.1"

        # -- helpers --

        def _send_json(
            self,
            status: int,
            payload: Dict[str, object],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            body = json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: object) -> None:
            pass  # request logging goes through metrics, not stderr

        # -- routes --

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path.rstrip("/") != "/v1/campaigns":
                self._send_json(404, {"error": f"no such route {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length) if length else b"{}"
                body = json.loads(raw.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as exc:
                self._send_json(400, {"error": f"bad request body: {exc}"})
                return
            tenant = body.get("tenant")
            experiments = body.get("experiments")
            if not isinstance(tenant, str) or not isinstance(experiments, list):
                self._send_json(
                    400,
                    {"error": "body needs string 'tenant' and list 'experiments'"},
                )
                return
            deadline = body.get("deadline_seconds")
            if deadline is not None and not isinstance(deadline, (int, float)):
                self._send_json(400, {"error": "deadline_seconds must be a number"})
                return
            try:
                submission = service.submit(
                    tenant,
                    [str(e) for e in experiments],
                    quick=bool(body.get("quick", False)),
                    deadline_seconds=deadline,
                )
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            except AdmissionClosed:
                self._send_json(
                    503,
                    {"error": "service is draining; resubmit elsewhere"},
                    headers={"Retry-After": "30"},
                )
                return
            except AdmissionRejected as exc:
                status = 429 if exc.scope == "tenant" else 503
                self._send_json(
                    status,
                    {
                        "error": str(exc),
                        "scope": exc.scope,
                        "retry_after_seconds": exc.retry_after_seconds,
                    },
                    headers={"Retry-After": str(exc.retry_after_seconds)},
                )
                return
            except OSError as exc:
                self._send_json(500, {"error": f"journal write failed: {exc}"})
                return
            self._send_json(202, submission.to_dict())

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                self._send_json(200, {"ok": True})
                return
            if path == "/readyz":
                if service.draining:
                    self._send_json(
                        503, {"ready": False, "reason": "draining"},
                        headers={"Retry-After": "30"},
                    )
                else:
                    self._send_json(200, {"ready": True})
                return
            if path == "/metrics":
                text = obs_metrics.get_registry().to_prometheus()
                body = text.encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            if path == "/v1/service":
                self._send_json(200, service.describe())
                return
            if path.startswith("/v1/campaigns/"):
                rest = path[len("/v1/campaigns/") :]
                want_result = rest.endswith("/result")
                campaign_id = rest[: -len("/result")] if want_result else rest
                submission = service.get_submission(campaign_id)
                if submission is None:
                    self._send_json(
                        404, {"error": f"unknown campaign {campaign_id!r}"}
                    )
                    return
                if not want_result:
                    self._send_json(200, submission.to_dict())
                    return
                if submission.state not in TERMINAL_STATES:
                    self._send_json(
                        409,
                        {
                            "error": f"campaign is {submission.state}",
                            "state": submission.state,
                        },
                    )
                    return
                store = CheckpointStore(service.run_dir_for(submission))
                try:
                    summary = store.read_summary()
                except Exception as exc:  # noqa: BLE001 - corrupt on disk
                    self._send_json(
                        500, {"error": f"summary unreadable: {exc}"}
                    )
                    return
                self._send_json(
                    200,
                    {
                        "campaign_id": campaign_id,
                        "state": submission.state,
                        "cache_hits": submission.cache_hits,
                        "summary": summary,
                    },
                )
                return
            self._send_json(404, {"error": f"no such route {self.path}"})

    return Handler
