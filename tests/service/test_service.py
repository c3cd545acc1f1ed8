"""CampaignService end to end: HTTP surface, overload backpressure,
deadlines, graceful drain with parked work, and WAL recovery.

These tests run the real ThreadingHTTPServer on an ephemeral port with
fake in-process experiments, so they exercise the full admission ->
WAL -> dispatch -> cache -> response path without simulating anything.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.http import CampaignService, ServiceConfig

from tests.runtime.conftest import FakeExperiment, make_result


class GateExperiment:
    """An experiment that blocks until released (fills queues on cue)."""

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def run(self, **kwargs):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30), "gate never released"
        return make_result(self.experiment_id, **kwargs)


def make_service(tmp_path, experiments, **config_kwargs):
    registry = {e.experiment_id: (e, {"n": 100}) for e in experiments}
    overrides = {e.experiment_id: {"n": 10} for e in experiments}
    config = ServiceConfig(port=0, **config_kwargs)
    return CampaignService(tmp_path / "root", registry, overrides, config)


def http(method, base, path, body=None):
    """Returns (status, headers, decoded-json-or-None); never raises."""
    request = urllib.request.Request(
        base + path,
        method=method,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, dict(resp.headers), json.load(resp)
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            payload = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            payload = None
        return exc.code, dict(exc.headers), payload


def wait_terminal(service, campaign_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        submission = service.get_submission(campaign_id)
        if submission is not None and submission.state in (
            "complete", "failed", "deadline-exceeded"
        ):
            return submission
        time.sleep(0.02)
    raise AssertionError(f"{campaign_id} never reached a terminal state")


@pytest.fixture
def started(tmp_path):
    """Start a service, yield (service, base_url), always drain."""
    services = []

    def factory(experiments, **config_kwargs):
        service = make_service(tmp_path, experiments, **config_kwargs)
        service.start()
        services.append(service)
        host, port = service.address
        return service, f"http://{host}:{port}"

    yield factory
    for service in services:
        if not service.draining:
            service.drain(timeout=30)


class TestHappyPath:
    def test_submit_runs_and_serves_the_result(self, started):
        service, base = started([FakeExperiment("a"), FakeExperiment("b")])
        status, _, body = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["a", "b"]},
        )
        assert status == 202
        campaign_id = body["campaign_id"]
        assert body["status_url"] == f"/v1/campaigns/{campaign_id}"
        wait_terminal(service, campaign_id)
        status, _, body = http("GET", base, f"/v1/campaigns/{campaign_id}")
        assert status == 200
        assert body["state"] == "complete"
        assert body["statuses"] == {"a": "ok", "b": "ok"}
        status, _, body = http(
            "GET", base, f"/v1/campaigns/{campaign_id}/result"
        )
        assert status == 200
        assert body["summary"]["statuses"] == {"a": "ok", "b": "ok"}

    def test_identical_submission_from_a_second_tenant_hits_the_cache(
        self, started
    ):
        service, base = started([FakeExperiment("a")])
        _, _, first = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["a"]},
        )
        done = wait_terminal(service, first["campaign_id"])
        assert done.cache_hits == 0
        _, _, second = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "bob", "experiments": ["a"]},
        )
        done = wait_terminal(service, second["campaign_id"])
        assert done.state == "complete"
        assert done.cache_hits == 1  # served, not recomputed
        (experiment,) = [e for e, _ in service.registry.values()]
        assert len(experiment.calls) == 1

    def test_health_metrics_and_service_description(self, started):
        service, base = started([FakeExperiment("a")])
        assert http("GET", base, "/healthz")[0] == 200
        assert http("GET", base, "/readyz")[0] == 200
        status, _, body = http("GET", base, "/v1/service")
        assert status == 200
        assert body["draining"] is False
        assert body["breaker"]["state"] == "closed"
        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as resp:
            text = resp.read().decode()
        assert resp.headers["Content-Type"].startswith("text/plain")
        assert "service_" in text

    def test_healthz_reports_ok(self, started):
        service, base = started([FakeExperiment("a")])
        status, _, body = http("GET", base, "/healthz")
        assert status == 200
        assert body == {"ok": True}

    def test_error_surfaces(self, started):
        service, base = started([FakeExperiment("a")])
        assert http("POST", base, "/v1/campaigns", {"nope": 1})[0] == 400
        status, _, _ = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["unknown-exp"]},
        )
        assert status == 400
        assert http("GET", base, "/v1/campaigns/nope-00001")[0] == 404


class TestRollup:
    def test_status_rollup_aggregates_tenants_cache_and_breaker(
        self, started
    ):
        from repro.obs.status import load_service_status, render_service_status

        service, base = started([FakeExperiment("a")])
        for tenant in ("alice", "bob"):
            _, _, body = http(
                "POST", base, "/v1/campaigns",
                {"tenant": tenant, "experiments": ["a"]},
            )
            wait_terminal(service, body["campaign_id"])
        rollup = load_service_status(service.root)
        assert set(rollup["tenants"]) == {"alice", "bob"}
        assert rollup["tenants"]["alice"]["states"] == {"complete": 1}
        assert rollup["queue_depth_total"] == 0
        assert rollup["cache"]["hits"] == 1
        assert rollup["cache"]["misses"] == 1
        assert rollup["cache"]["hit_ratio"] == 0.5
        assert rollup["breaker_state"] == "closed"
        assert rollup["submissions"]["accepted"] == 2
        text = render_service_status(rollup)
        assert "alice" in text and "bob" in text and "hit ratio" in text


class TestOverload:
    def test_backpressure_is_explicit_and_accepted_work_survives(
        self, started
    ):
        gate = GateExperiment("slow")
        service, base = started(
            [gate], queue_capacity=1, max_queued=2, dispatchers=1
        )

        def post(tenant):
            return http(
                "POST", base, "/v1/campaigns",
                {"tenant": tenant, "experiments": ["slow"]},
            )

        status, _, first = post("alice")
        assert status == 202
        assert gate.started.wait(timeout=10)  # a1 occupies the dispatcher
        status, _, second = post("alice")  # queued: alice depth 1/1
        assert status == 202
        status, headers, body = post("alice")  # tenant queue full
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert body["scope"] == "tenant"
        status, _, third = post("bob")  # queued: service total 2/2
        assert status == 202
        status, headers, body = post("carol")  # service full
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert body["scope"] == "service"

        gate.release.set()
        for accepted in (first, second, third):
            done = wait_terminal(service, accepted["campaign_id"])
            assert done.state == "complete"  # nothing accepted was dropped

    def test_rejected_submissions_leave_no_submission_record(self, started):
        gate = GateExperiment("slow")
        service, base = started(
            [gate], queue_capacity=1, max_queued=8, dispatchers=1
        )
        status, _, first = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )
        assert status == 202
        assert gate.started.wait(timeout=10)
        status, _, second = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )
        assert status == 202  # fills the queue
        status, _, _ = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )
        assert status == 429
        gate.release.set()
        wait_terminal(service, first["campaign_id"])
        wait_terminal(service, second["campaign_id"])
        with service._lock:
            assert len(service._submissions) == 2


class TestDeadlines:
    def test_deadline_expired_in_queue_never_burns_worker_time(
        self, started
    ):
        gate = GateExperiment("slow")
        quick = FakeExperiment("quickie")
        service, base = started([gate, quick], dispatchers=1)
        status, _, first = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )
        assert status == 202
        assert gate.started.wait(timeout=10)
        status, _, doomed = http(
            "POST", base, "/v1/campaigns",
            {
                "tenant": "bob",
                "experiments": ["quickie"],
                "deadline_seconds": 0.05,
            },
        )
        assert status == 202
        time.sleep(0.2)  # let the deadline lapse while queued
        gate.release.set()
        done = wait_terminal(service, doomed["campaign_id"])
        assert done.state == "deadline-exceeded"
        assert quick.calls == []  # never dispatched
        wait_terminal(service, first["campaign_id"])

    def test_bad_deadline_is_rejected_up_front(self, started):
        service, base = started([FakeExperiment("a")])
        status, _, _ = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["a"], "deadline_seconds": -1},
        )
        assert status == 400
        status, _, _ = http(
            "POST", base, "/v1/campaigns",
            {
                "tenant": "alice",
                "experiments": ["a"],
                "deadline_seconds": "soon",
            },
        )
        assert status == 400


class TestDrainAndRecovery:
    def test_drain_finishes_inflight_parks_queued_and_recovery_resumes(
        self, tmp_path
    ):
        gate = GateExperiment("slow")
        service = make_service(
            tmp_path, [gate], queue_capacity=8, max_queued=64, dispatchers=1
        )
        service.start()
        host, port = service.address
        base = f"http://{host}:{port}"
        _, _, inflight = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )
        assert gate.started.wait(timeout=10)
        _, _, parked = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )

        drain_result = {}
        drainer = threading.Thread(
            target=lambda: drain_result.update(
                clean=service.drain(timeout=30)
            )
        )
        drainer.start()
        # The drain closes admission and parks the queue before it
        # waits on the in-flight campaign; release the gate only after
        # the parked submission is out of the queue.
        deadline = time.monotonic() + 10
        while service.admission.pending_total() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.admission.closed
        gate.release.set()
        drainer.join(timeout=30)
        assert drain_result["clean"] is True

        finished = service.get_submission(inflight["campaign_id"])
        assert finished.state == "complete"
        still_owed = service.get_submission(parked["campaign_id"])
        assert still_owed.state == "queued"  # parked, not lost
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(base + "/healthz", timeout=2)

        # A new incarnation on the same root owes exactly the parked
        # submission — WAL replay re-queues it under its original id.
        gate2 = GateExperiment("slow")
        gate2.release.set()  # no blocking this time
        second = make_service(tmp_path, [gate2], dispatchers=1)
        second.start()
        try:
            done = wait_terminal(second, parked["campaign_id"])
            assert done.state == "complete"
            # The first incarnation already computed this key, so the
            # recovered submission is served from the shared cache —
            # and the finished campaign is not re-dispatched at all.
            assert done.cache_hits == 1
            assert gate2.calls == 0
            finished_record = second.get_submission(inflight["campaign_id"])
            assert finished_record.state == "complete"
        finally:
            second.drain(timeout=30)

    def test_posts_during_drain_get_503_with_retry_after(self, tmp_path):
        gate = GateExperiment("slow")
        service = make_service(tmp_path, [gate], dispatchers=1)
        service.start()
        host, port = service.address
        base = f"http://{host}:{port}"
        http(
            "POST", base, "/v1/campaigns",
            {"tenant": "alice", "experiments": ["slow"]},
        )
        assert gate.started.wait(timeout=10)
        drainer = threading.Thread(target=lambda: service.drain(timeout=30))
        drainer.start()
        deadline = time.monotonic() + 10
        while not service.admission.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        status, headers, _ = http(
            "POST", base, "/v1/campaigns",
            {"tenant": "bob", "experiments": ["slow"]},
        )
        assert status == 503
        assert "Retry-After" in headers
        status, _, _ = http("GET", base, "/readyz")
        assert status == 503
        gate.release.set()
        drainer.join(timeout=30)
