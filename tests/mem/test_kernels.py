"""Tests for the vectorized simulation kernels and their trust harness.

The contract under test (see ``docs/KERNELS.md``): the columnar numpy
kernels in :mod:`repro.mem.kernels` must be *byte-identical* to the
pure-Python hot loops at every chunk boundary, and when they are not —
proven here with deterministic fault injection — the KernelGuard must
record a typed divergence, quarantine the kernel, fall back to the
oracle, and leave the campaign result exactly what the oracle alone
would have produced.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import kernels
from repro.mem.cache import FullyAssociativeCache
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import StackDistanceRun, profile_trace
from repro.mem.trace import Trace
from repro.runtime.errors import KernelDivergenceError


@pytest.fixture(autouse=True)
def _clean_kernel_world(monkeypatch):
    """Every test starts unconfigured, unquarantined, and fault-free."""
    for name in (
        kernels.TIER_ENV,
        kernels.VERIFY_ENV,
        kernels.MIN_REFS_ENV,
        kernels.BUNDLE_DIR_ENV,
        kernels.FAULT_ENV,
    ):
        monkeypatch.delenv(name, raising=False)
    kernels.clear_kernels(clear_env=False)
    kernels.reset_kernel_state()
    yield
    kernels.clear_kernels(clear_env=False)
    kernels.reset_kernel_state()


def _trace(blocks, kinds=None):
    addrs = np.asarray(blocks, dtype=np.int64) * 8
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    return Trace(addrs, np.asarray(kinds, dtype=np.uint8))


def _mixed_trace(num_refs, num_blocks, seed=0):
    rng = np.random.default_rng(seed)
    return _trace(
        rng.integers(0, num_blocks, size=num_refs),
        rng.integers(0, 2, size=num_refs),
    )


def _vector(min_refs=0, **kwargs):
    kernels.configure_kernels(
        tier="vector", min_refs=min_refs, export_env=False, **kwargs
    )


# -- configuration and fault grammar ---------------------------------------


class TestConfig:
    def test_defaults_from_empty_environment(self):
        config = kernels.active_kernel_config()
        assert config.tier == kernels.DEFAULT_TIER
        assert config.verify_every == kernels.DEFAULT_VERIFY_EVERY
        assert config.min_refs == kernels.DEFAULT_MIN_REFS

    def test_configure_exports_environment(self, monkeypatch):
        kernels.configure_kernels(tier="oracle", verify_every=7)
        assert kernels.active_kernel_config().tier == "oracle"
        import os

        assert os.environ[kernels.TIER_ENV] == "oracle"
        assert os.environ[kernels.VERIFY_ENV] == "7"
        kernels.clear_kernels()
        assert kernels.TIER_ENV not in os.environ

    def test_configure_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            kernels.configure_kernels(tier="gpu")

    def test_tier_override_restores(self):
        _vector()
        with kernels.tier_override("oracle"):
            assert kernels.active_kernel_config().tier == "oracle"
        assert kernels.active_kernel_config().tier == "vector"

    def test_tier_override_rejects_unknown(self):
        with pytest.raises(ValueError):
            with kernels.tier_override("turbo"):
                pass

    def test_parse_fault_spec(self):
        faults = kernels.parse_fault_spec(
            "fullassoc:wrong-count:1,stackdist:crash:3"
        )
        assert [(f.kernel, f.kind, f.nth) for f in faults] == [
            ("fullassoc", "wrong-count", 1),
            ("stackdist", "crash", 3),
        ]

    @pytest.mark.parametrize(
        "raw",
        ["nope", "fullassoc:wrong-count", "fullassoc:melt:1", "x:nan:1", "fullassoc:nan:0"],
    )
    def test_parse_fault_spec_rejects_garbage(self, raw):
        with pytest.raises(ValueError):
            kernels.parse_fault_spec(raw)


# -- guard engagement ------------------------------------------------------


class TestGuard:
    def test_vector_tier_engages_and_matches_oracle(self):
        trace = _mixed_trace(4000, 64)
        _vector()
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernels.kernel_state("fullassoc")["chunks"] == 1
        assert kernels.kernel_state("fullassoc")["verified"] == 1
        with kernels.tier_override("oracle"):
            expected = FullyAssociativeCache(32 * 8).run(trace)
        assert stats.__dict__ == expected.__dict__

    def test_small_chunks_stay_on_the_oracle(self):
        _vector(min_refs=2048)
        FullyAssociativeCache(32 * 8).run(_mixed_trace(100, 16))
        assert kernels.kernel_state("fullassoc")["chunks"] == 0

    def test_oracle_tier_never_engages(self):
        kernels.configure_kernels(tier="oracle", min_refs=0, export_env=False)
        profile_trace(_mixed_trace(4000, 64))
        assert kernels.kernel_state("stackdist")["chunks"] == 0

    def test_out_of_domain_block_ids_fall_back(self):
        _vector()
        trace = _trace([0, 1, 2, (1 << 45)] * 300)
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernels.kernel_state("fullassoc")["chunks"] == 0
        assert stats.accesses == len(trace)

    def test_sampling_skips_between_verifies(self):
        _vector(verify_every=3)
        trace = _mixed_trace(1000, 32)
        for _ in range(6):
            FullyAssociativeCache(16 * 8).run(trace)
        state = kernels.kernel_state("fullassoc")
        assert state["chunks"] == 6
        assert state["verified"] == 2  # ordinals 1 and 4


# -- deterministic fault injection: the full detection matrix --------------


_EXPECTED_REASON = {
    "wrong-count": "shadow-verify",
    "nan": "sanity",
    "overflow": "sanity",
    "crash": "kernel-crash",
}


def _run_sim(kind, trace):
    """Run one guarded simulator end to end; return its final state."""
    if kind == "fullassoc":
        sim = FullyAssociativeCache(32 * 8)
        sim.run(trace)
    elif kind == "setassoc":
        sim = SetAssociativeCache(64 * 8, associativity=4)
        sim.run(trace)
    else:
        sim = StackDistanceRun()
        sim.feed(trace)
    return sim.state_dict()


class TestFaultMatrix:
    @pytest.mark.parametrize("kernel", kernels.KERNEL_KINDS)
    @pytest.mark.parametrize("fault", kernels._FAULT_KINDS)
    def test_every_fault_is_caught_and_survived(
        self, kernel, fault, tmp_path, monkeypatch
    ):
        trace = _mixed_trace(3000, 48, seed=11)
        with kernels.tier_override("oracle"):
            expected = _run_sim(kernel, trace)

        monkeypatch.setenv(kernels.FAULT_ENV, f"{kernel}:{fault}:1")
        _vector(bundle_dir=tmp_path / "bundles")
        got = _run_sim(kernel, trace)

        # The campaign result is byte-identical to the pure oracle.
        assert json.dumps(got, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        state = kernels.kernel_state(kernel)
        assert state["divergences"] == 1
        assert state["quarantined"]
        assert kernels.quarantined(kernel)
        events = kernels.drain_kernel_events()
        assert len(events) == 1
        assert events[0]["kernel"] == kernel
        assert events[0]["reason"] == _EXPECTED_REASON[fault]
        assert events[0]["category"] == KernelDivergenceError("x").category
        bundles = list((tmp_path / "bundles").glob("*.json"))
        assert len(bundles) == 1
        payload = json.loads(bundles[0].read_text())
        assert payload["format"] == kernels.BUNDLE_FORMAT
        assert payload["kernel"] == kernel
        assert payload["blocks"] == trace.block_ids(8).tolist()

    def test_quarantine_is_sticky_for_the_process(self, monkeypatch):
        monkeypatch.setenv(kernels.FAULT_ENV, "fullassoc:crash:1")
        _vector()
        trace = _mixed_trace(3000, 48)
        FullyAssociativeCache(32 * 8).run(trace)
        assert kernels.quarantined("fullassoc")
        FullyAssociativeCache(32 * 8).run(trace)
        state = kernels.kernel_state("fullassoc")
        assert state["chunks"] == 0  # never ran again
        assert state["divergences"] == 1
        # Other kernels are unaffected.
        profile_trace(trace)
        assert kernels.kernel_state("stackdist")["chunks"] == 1

    def test_bad_fault_spec_disables_injection_with_one_event(
        self, monkeypatch
    ):
        monkeypatch.setenv(kernels.FAULT_ENV, "fullassoc:melt")
        _vector()
        trace = _mixed_trace(3000, 48)
        FullyAssociativeCache(32 * 8).run(trace)
        FullyAssociativeCache(32 * 8).run(trace)
        events = kernels.drain_kernel_events()
        assert [e["reason"] for e in events] == ["bad-fault-spec"]
        assert kernels.kernel_state("fullassoc")["chunks"] == 2


# -- property: byte-identical state at every chunk boundary ----------------


def _twin_check(make_vector_sim, make_oracle_sim, chunks):
    """Feed identical chunks both ways; states must match at every cut."""
    _vector()
    vec = make_vector_sim()
    with kernels.tier_override("oracle"):
        ora = make_oracle_sim()
    for chunk in chunks:
        step = getattr(vec, "run", None) or vec.feed
        step(chunk)
        with kernels.tier_override("oracle"):
            (getattr(ora, "run", None) or ora.feed)(chunk)
        assert json.dumps(vec.state_dict(), sort_keys=True) == json.dumps(
            ora.state_dict(), sort_keys=True
        )


def _chunked(blocks, kinds, cuts):
    bounds = sorted({c % (len(blocks) + 1) for c in cuts} | {0, len(blocks)})
    return [
        _trace(blocks[a:b], kinds[a:b])
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]


block_lists = st.lists(st.integers(0, 7), min_size=1, max_size=60)
cut_lists = st.lists(st.integers(0, 60), max_size=4)


class TestPropertyEquivalence:
    @given(blocks=block_lists, cuts=cut_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_kernels_match_oracle_at_every_boundary(
        self, blocks, cuts, data
    ):
        kinds = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(blocks), max_size=len(blocks)
            )
        )
        chunks = _chunked(blocks, kinds, cuts)
        _twin_check(
            lambda: FullyAssociativeCache(4 * 8),
            lambda: FullyAssociativeCache(4 * 8),
            chunks,
        )
        kernels.reset_kernel_state()
        for ways in (1, 2, 4):
            _twin_check(
                lambda: SetAssociativeCache(8 * 8, associativity=ways),
                lambda: SetAssociativeCache(8 * 8, associativity=ways),
                chunks,
            )
            kernels.reset_kernel_state()
        _twin_check(StackDistanceRun, StackDistanceRun, chunks)

    @pytest.mark.parametrize(
        "blocks",
        [
            [5] * 200,  # all-same-address
            [0, 1] * 150,  # two-block thrash
            list(range(31)) * 8,  # footprint == capacity - 1
            list(range(32)) * 8,  # footprint == capacity
            list(range(33)) * 8,  # footprint == capacity + 1
            # max-proc interleaving: 16 "processors" with disjoint
            # footprints touched round-robin, the paper's worst case
            # for LRU depth.
            [p * 64 + i for i in range(12) for p in range(16)],
        ],
    )
    def test_adversarial_traces(self, blocks):
        rng = np.random.default_rng(5)
        kinds = rng.integers(0, 2, size=len(blocks)).tolist()
        cuts = [7, len(blocks) // 3, len(blocks) // 2]
        chunks = _chunked(blocks, kinds, cuts)
        _twin_check(
            lambda: FullyAssociativeCache(32 * 8),
            lambda: FullyAssociativeCache(32 * 8),
            chunks,
        )
        kernels.reset_kernel_state()
        _twin_check(
            lambda: SetAssociativeCache(32 * 8, associativity=2),
            lambda: SetAssociativeCache(32 * 8, associativity=2),
            chunks,
        )
        kernels.reset_kernel_state()
        _twin_check(StackDistanceRun, StackDistanceRun, chunks)

    def test_warmup_and_reads_only_survive_the_kernel(self):
        trace = _mixed_trace(3000, 40, seed=3)
        _vector()
        vec = StackDistanceRun(warmup=500, count_reads_only=True)
        vec.feed(trace)
        assert kernels.kernel_state("stackdist")["chunks"] == 1
        with kernels.tier_override("oracle"):
            ora = StackDistanceRun(warmup=500, count_reads_only=True)
            ora.feed(trace)
        assert json.dumps(vec.state_dict(), sort_keys=True) == json.dumps(
            ora.state_dict(), sort_keys=True
        )


# -- campaign integration: the engine drains fallback events ---------------


class TestEngineIntegration:
    def test_engine_logs_kernel_fallback_events(self, tmp_path, monkeypatch):
        from repro.experiments.runner import ExperimentResult
        from repro.runtime.engine import CampaignEngine, EngineConfig
        from repro.runtime.events import EventLog, read_events

        monkeypatch.setenv(kernels.FAULT_ENV, "fullassoc:wrong-count:1")
        _vector()

        class GuardedExperiment:
            def run(self, **kwargs):
                FullyAssociativeCache(32 * 8).run(_mixed_trace(3000, 48))
                return ExperimentResult("guarded", "guarded experiment")

        log = EventLog(tmp_path / "events.jsonl")
        engine = CampaignEngine(
            {"guarded": (GuardedExperiment(), {})},
            config=EngineConfig(jobs=0, max_attempts=1, sleep=lambda s: None),
            event_log=log,
        )
        report = engine.run()
        assert report.succeeded  # the campaign completed despite the fault
        records = read_events(tmp_path / "events.jsonl")
        fallbacks = [r for r in records if r.get("event") == "kernel-fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["kernel"] == "fullassoc"
        assert fallbacks[0]["category"] == "kernel-divergence"
        assert not kernels.drain_kernel_events()  # engine drained them


# -- native state: mixed paths and the guard contract ------------------------


def _make(kind, ways=4):
    if kind == "fullassoc":
        return FullyAssociativeCache(32 * 8)
    if kind == "setassoc":
        return SetAssociativeCache(64 * 8, associativity=ways)
    return StackDistanceRun()


def _step(sim, trace):
    (getattr(sim, "run", None) or sim.feed)(trace)


def _live_forms(sim):
    """Which representations hold state: (native arrays, Python loop)."""
    if isinstance(sim, StackDistanceRun):
        return sim._order is not None, sim._tree is not None
    if isinstance(sim, FullyAssociativeCache):
        return sim._mru is not None, sim._lru is not None
    return sim._orders is not None, sim._sets is not None


def _dump(sim):
    return json.dumps(sim.state_dict(), sort_keys=True)


_MIXED_MIN_REFS = 64

KERNEL_CASES = [
    ("fullassoc", 1),
    ("setassoc", 1),
    ("setassoc", 2),
    ("setassoc", 4),
    ("stackdist", 1),
]


class TestMixedPaths:
    @pytest.mark.parametrize("kind,ways", KERNEL_CASES)
    def test_alternating_paths_match_pure_oracle(self, kind, ways):
        rng = np.random.default_rng(21)
        _vector(min_refs=_MIXED_MIN_REFS)
        sim = _make(kind, ways)
        with kernels.tier_override("oracle"):
            twin = _make(kind, ways)
        plan = ["vector", "oracle", "access", "vector", "roundtrip",
                "vector", "vector", "oracle", "roundtrip", "access", "vector"]
        vector_chunks = 0
        for step in plan:
            if step == "roundtrip":
                fresh = _make(kind, ways)
                fresh.load_state_dict(json.loads(_dump(sim)))
                sim = fresh
            else:
                size = {"vector": 300, "oracle": 40, "access": 5}[step]
                blocks = rng.integers(0, 96, size=size)
                kinds = rng.integers(0, 2, size=size)
                trace = _trace(blocks, kinds)
                if step == "access" and kind != "stackdist":
                    for addr, k in zip(trace.addrs.tolist(), trace.kinds.tolist()):
                        sim.access(addr, k)
                        with kernels.tier_override("oracle"):
                            twin.access(addr, k)
                else:
                    _step(sim, trace)
                    with kernels.tier_override("oracle"):
                        _step(twin, trace)
                vector_chunks += step == "vector"
            assert kernels.kernel_state(kind)["chunks"] == vector_chunks, step
            assert sum(_live_forms(sim)) == 1, step
            assert _live_forms(sim)[0] == (step in ("vector", "roundtrip")), step
            assert _dump(sim) == _dump(twin), step

    def test_queries_do_not_switch_representation(self):
        _vector(min_refs=0)
        cache = FullyAssociativeCache(4 * 8)
        cache.run(_trace([1, 2, 3, 2, 1]))
        assert cache.contains(8) and not cache.contains(80)
        assert cache.resident_blocks() == 3
        assert _live_forms(cache) == (True, False)
        cache.access(5 * 8)
        assert cache.contains(40) and cache.resident_blocks() == 4
        assert _live_forms(cache) == (False, True)


def _copy_state(state):
    return {
        k: (v.copy() if isinstance(v, np.ndarray) else dict(v) if isinstance(v, dict) else v)
        for k, v in state.items()
    }


def _assert_same_state(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key])
        else:
            assert a[key] == b[key], key


def _primed(kind, **kwargs):
    """A simulator holding non-trivial native state, and a next chunk."""
    _vector(verify_every=1 << 30)
    if kind == "stackdist":
        sim = StackDistanceRun(**kwargs)
    else:
        sim = _make(kind)
    _step(sim, _mixed_trace(3000, 48, seed=1))
    kernels.reset_kernel_state()
    return sim, _mixed_trace(3000, 48, seed=2)


class TestGuardContract:
    @pytest.mark.parametrize("kind", kernels.KERNEL_KINDS)
    def test_native_state_is_read_only_and_shared(self, kind):
        sim, _ = _primed(kind)
        state = sim.native_state()
        arrays = [v for v in state.values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.dtype == np.int64 for a in arrays)
        assert not any(a.flags.writeable for a in arrays)
        again = sim.native_state()
        assert all(
            again[k] is v for k, v in state.items() if isinstance(v, np.ndarray)
        )

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("fullassoc", {}),
            ("setassoc", {}),
            ("stackdist", {}),
            # Nothing counted: the kernel returns pre's histogram itself.
            ("stackdist", {"warmup": 10**9}),
        ],
    )
    def test_kernel_and_faults_leave_pre_unchanged(self, kind, kwargs):
        sim, trace = _primed(kind, **kwargs)
        pre = sim.native_state()
        saved = _copy_state(pre)
        blocks = trace.block_ids(8)
        post = kernels.KERNELS[kind](pre, blocks, trace.kinds)
        _assert_same_state(pre, saved)
        for fault in ("wrong-count", "nan", "overflow"):
            faulted = dict(post)
            assert kernels._apply_fault(kind, fault, faulted, pre)
            _assert_same_state(pre, saved)
            assert json.dumps(kernels.json_state(faulted), sort_keys=True) != (
                json.dumps(kernels.json_state(post), sort_keys=True)
            )
        _assert_same_state(pre, saved)

    @pytest.mark.parametrize("kind", kernels.KERNEL_KINDS)
    def test_declined_chunks_leave_state_unchanged(self, kind):
        sim, trace = _primed(kind)
        before = _dump(sim)
        kernels.configure_kernels(tier="oracle", export_env=False)
        assert not kernels.guard_run(kind, sim, trace)
        _vector(min_refs=len(trace) + 1)
        assert not kernels.guard_run(kind, sim, trace)
        _vector()
        assert not kernels.guard_run(kind, sim, _trace([0, 1, 1 << 45] * 50))
        assert _dump(sim) == before

    @pytest.mark.parametrize("kind", kernels.KERNEL_KINDS)
    @pytest.mark.parametrize("fault", kernels._FAULT_KINDS)
    def test_divergence_leaves_state_unchanged(
        self, kind, fault, tmp_path, monkeypatch
    ):
        sim, trace = _primed(kind)
        before = _dump(sim)
        monkeypatch.setenv(kernels.FAULT_ENV, f"{kind}:{fault}:1")
        _vector(bundle_dir=tmp_path)
        assert not kernels.guard_run(kind, sim, trace)
        assert _dump(sim) == before
        assert kernels.quarantined(kind)
        (event,) = kernels.drain_kernel_events()
        assert event["reason"] == _EXPECTED_REASON[fault]
        bundle = json.loads((tmp_path / f"{kind}-chunk000001.json").read_text())
        assert bundle["pre_state"] == json.loads(before)
        assert bundle["blocks"] == trace.block_ids(8).tolist()
        # Quarantined: later chunks decline without touching the state.
        assert not kernels.guard_run(kind, sim, trace)
        assert _dump(sim) == before
