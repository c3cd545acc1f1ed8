"""Mattson stack-distance profiling.

For a fully associative LRU cache, whether a reference hits depends only
on its *stack depth*: the number of distinct blocks referenced since the
previous reference to the same block (inclusive of the block itself).  A
reference with stack depth ``d`` hits in every cache of at least ``d``
blocks and misses in every smaller cache.  Profiling the distribution of
stack depths over a trace therefore yields the exact LRU miss rate at
**every** cache size in a single pass — the classic inclusion property
of Mattson, Gecsei, Slutz & Traiger (1970).

The paper sweeps cache sizes and looks for knees in the resulting curve
(Section 2.2); this profiler is how we make that sweep tractable in
Python.

Implementation: a Fenwick (binary-indexed) tree over reference
timestamps counts, for each access, how many *distinct* blocks were
touched since the previous access to the same block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.mem import kernels
from repro.mem.trace import READ, Trace
from repro.obs.metrics import hot_loop_sampler
from repro.runtime.budget import CHECK_MASK, Budget, active_budget


class _FenwickTree:
    """Prefix-sum tree over ``n`` slots, 0-indexed externally."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self._tree
        n = self._n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of slots [0, index]."""
        i = index + 1
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots [lo, hi]; zero when the range is empty."""
        if hi < lo:
            return 0
        total = self.prefix_sum(hi)
        if lo > 0:
            total -= self.prefix_sum(lo - 1)
        return total

    @classmethod
    def from_ones(cls, count: int, capacity: int) -> "_FenwickTree":
        """Tree of ``capacity`` slots with ones in slots ``[0, count)``.

        Closed form, one numpy expression: node ``i`` (1-based) sums the
        leaves ``(i - lowbit(i), i]``, of which ``max(0, min(i, count) -
        (i - lowbit(i)))`` are ones — used when rebuilding from a
        compacted timestamp space, where the live slots are a prefix.
        """
        if count > capacity:
            raise ValueError("count cannot exceed capacity")
        tree = cls.__new__(cls)
        tree._n = capacity
        i = np.arange(capacity + 1, dtype=np.int64)
        base = i - (i & -i)
        tree._tree = np.maximum(np.minimum(i, count) - base, 0)
        return tree


@dataclass
class StackDistanceProfile:
    """Result of profiling one trace.

    Attributes:
        depth_histogram: ``depth_histogram[d]`` counts references whose
            stack depth is ``d`` (1-based; index 0 is unused).
        cold_misses: References to never-before-seen blocks (infinite
            depth).
        total: Total counted references.
        block_size: Cache line size in bytes used during profiling.
    """

    depth_histogram: np.ndarray
    cold_misses: int
    total: int
    block_size: int

    def misses_at(self, capacity_blocks: int) -> int:
        """Miss count for a fully associative LRU cache of
        ``capacity_blocks`` lines."""
        if capacity_blocks < 1:
            return self.total
        hist = self.depth_histogram
        upper = min(capacity_blocks, len(hist) - 1)
        hits = int(hist[1 : upper + 1].sum())
        return self.total - hits

    def miss_rate_at(self, capacity_bytes: int) -> float:
        """Miss rate for a cache of ``capacity_bytes`` bytes."""
        if self.total == 0:
            return 0.0
        return self.misses_at(capacity_bytes // self.block_size) / self.total

    def miss_rates(self, capacities_bytes: Sequence[int]) -> np.ndarray:
        """Vector of miss rates, one per capacity (in bytes)."""
        return np.array(
            [self.miss_rate_at(int(c)) for c in capacities_bytes], dtype=float
        )

    def misses_per_op(
        self, capacities_bytes: Sequence[int], flops: float
    ) -> np.ndarray:
        """Misses per floating-point operation — the paper's metric for
        LU, CG and FFT (Section 2.2)."""
        if flops <= 0:
            raise ValueError("flops must be positive")
        return np.array(
            [self.misses_at(int(c) // self.block_size) / flops for c in capacities_bytes],
            dtype=float,
        )

    @property
    def max_useful_capacity_blocks(self) -> int:
        """Smallest capacity (in blocks) achieving the compulsory-only
        miss rate; equals the trace footprint in blocks."""
        hist = self.depth_histogram
        nonzero = np.nonzero(hist)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    @property
    def compulsory_miss_rate(self) -> float:
        """Miss rate of an infinite cache (cold misses only)."""
        return self.cold_misses / self.total if self.total else 0.0


class StackDistanceProfiler:
    """Single-pass LRU stack-distance profiler.

    Args:
        block_size: Cache line size in bytes (power of two; default one
            double word, matching the paper's accounting).
        count_reads_only: When True, only read references contribute to
            the histogram (the paper's read-miss-rate metric for
            Barnes-Hut and volume rendering) but *all* references update
            LRU state.
        warmup: Number of initial references excluded from the
            histogram (cold-start exclusion per Section 2.2); they still
            update LRU state.
    """

    def __init__(
        self,
        block_size: int = 8,
        count_reads_only: bool = False,
        warmup: int = 0,
    ) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.block_size = block_size
        self.count_reads_only = count_reads_only
        self.warmup = warmup

    def profile(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> StackDistanceProfile:
        """Profile a trace; returns the full stack-depth distribution.

        A sharded :class:`~repro.mem.shards.StreamingTrace` is consumed
        chunk-wise in bounded memory (with checkpoint/resume when a
        stream configuration is active); an in-memory trace runs the
        same incremental engine in a single feed.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled
                cooperatively every few thousand references (defaults
                to the ambient campaign budget, if any); raises
                :class:`~repro.runtime.errors.BudgetExceeded` when the
                deadline passes.
        """
        if hasattr(trace, "iter_chunks"):
            from repro.mem.streamsim import profile_streamed

            return profile_streamed(self, trace, budget=budget)
        from repro.obs import timeline as obs_timeline

        run = StackDistanceRun(
            block_size=self.block_size,
            count_reads_only=self.count_reads_only,
            warmup=self.warmup,
        )
        recorder = obs_timeline.active_recorder()
        step = (
            recorder.chunk_refs_for(len(trace)) if recorder is not None else 0
        )
        if recorder is None or step >= len(trace):
            run.feed(trace, budget=budget)
            return run.result()
        # Timeline recording is on: feed the same trace in windows so
        # each one lands a per-chunk row.  The incremental engine makes
        # chunked feeding bit-identical to a single feed, and the
        # window floor stays above the kernel guard's min_refs so the
        # vector tier is never demoted by the chunking itself.
        for start in range(0, len(trace), step):
            run.feed(
                Trace(
                    trace.addrs[start : start + step],
                    trace.kinds[start : start + step],
                ),
                budget=budget,
            )
        return run.result()


class StackDistanceRun:
    """Incremental stack-distance engine with bounded, serializable state.

    The classic single-pass algorithm indexes its Fenwick tree by raw
    reference timestamp, so the tree grows with the *trace* — fatal for
    out-of-core streams.  The saving observation: the tree slot for
    time ``i`` holds 1 exactly when ``i`` is some block's most recent
    access time, so the entire tree is a function of the ``last_time``
    map alone.  Depths depend only on the *relative order* of last
    accesses, which lets us compact: renumber the live timestamps to
    ``0..F-1`` (order preserved), rebuild the tree in closed form, and
    keep going — results are bit-identical while memory stays
    ``O(footprint + chunk)`` instead of ``O(trace)``.

    The same property gives the run a small native state: the blocks in
    last-access order plus the histogram (read-only int64 arrays, the
    :meth:`state_dict` schema).  That is what the vector kernel reads
    and returns by reference.  The ``last_time`` map and the tree exist
    only while the per-reference oracle loop runs: they are built from
    the order when that loop starts and dropped when the kernel takes
    over again, so one representation is live at a time.

    Feed chunks with :meth:`feed`; finish with :meth:`result`.
    """

    def __init__(
        self,
        block_size: int = 8,
        count_reads_only: bool = False,
        warmup: int = 0,
    ) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.block_size = block_size
        self.count_reads_only = count_reads_only
        self.warmup = warmup
        self._pos = 0  # total references fed (never resets; drives warmup)
        self._cold = 0
        self._total = 0
        # Native state: blocks by last access and the trimmed histogram.
        self._order: Optional[np.ndarray] = kernels.EMPTY
        self._hist = kernels.frozen(np.zeros(1, dtype=np.int64))
        # Oracle-loop state, live only while ``_order`` is None; the
        # histogram is then a private, growable buffer.
        self._last_time: Dict[int, int] = {}
        self._tree: Optional[_FenwickTree] = None
        self._clock = 0  # next free tree timestamp (resets on compaction)

    @property
    def refs_fed(self) -> int:
        return self._pos

    @property
    def footprint_blocks(self) -> int:
        """Distinct blocks referenced so far."""
        if self._order is not None:
            return int(self._order.shape[0])
        return len(self._last_time)

    def _grow_hist(self, size: int) -> None:
        if len(self._hist) < size:
            grown = np.zeros(size, dtype=np.int64)
            grown[: len(self._hist)] = self._hist
            self._hist = grown

    def _live_order(self) -> np.ndarray:
        """Blocks in last-access order, oldest first, from either form."""
        if self._order is not None:
            return self._order
        footprint = len(self._last_time)
        times = np.fromiter(self._last_time.values(), np.int64, footprint)
        blocks = np.fromiter(self._last_time.keys(), np.int64, footprint)
        # Timestamps are distinct and below the clock: scatter, no sort.
        by_time = np.empty(self._clock, dtype=np.int64)
        live = np.zeros(self._clock, dtype=bool)
        by_time[times] = blocks
        live[times] = True
        return kernels.frozen(by_time[live])

    def _to_native(self) -> None:
        """Drop the oracle-loop structures for the native arrays."""
        if self._order is not None:
            return
        self._order = self._live_order()
        self._hist = _trimmed(self._hist)
        self._last_time = {}
        self._tree = None
        self._clock = 0

    def _compact(self, incoming: int) -> None:
        """Build the oracle loop's ``last_time`` map and Fenwick tree.

        Live timestamps are renumbered to their ranks ``0..F-1`` in
        last-access order (order-preserving, so every later depth is
        unchanged), which makes the tree ones over a prefix.  Serves
        both to leave the native form and to compact a full tree.
        Leaving the native form sizes the tree to the ``incoming``
        chunk (a smaller tree means shorter Fenwick walks); compacting
        a full tree doubles the room so compactions stay rare.
        """
        order = self._live_order()
        footprint = int(order.shape[0])
        room = footprint + incoming
        if self._tree is not None:
            room *= 2
        self._last_time = dict(zip(order.tolist(), range(footprint)))
        self._tree = _FenwickTree.from_ones(footprint, max(room, 1024))
        self._clock = footprint
        if self._order is not None:
            self._hist = np.array(self._hist)  # writable private copy
            self._order = None

    def native_state(self) -> Dict[str, object]:
        """The :meth:`state_dict` schema with int64 arrays, by reference.

        Switches to the native form first (dropping the oracle-loop
        structures); the arrays are read-only.
        """
        self._to_native()
        return self._snapshot()

    def adopt_native_state(self, state: Dict[str, object]) -> None:
        """Take over a kernel's native state (arrays kept by reference)."""
        self._pos = state["pos"]
        self._cold = state["cold"]
        self._total = state["total"]
        self._order = kernels.frozen(state["blocks_by_last_access"])
        self._hist = kernels.frozen(state["hist"])
        self._last_time = {}
        self._tree = None
        self._clock = 0

    def _snapshot(self) -> Dict[str, object]:
        return {
            "block_size": self.block_size,
            "count_reads_only": self.count_reads_only,
            "warmup": self.warmup,
            "pos": self._pos,
            "cold": self._cold,
            "total": self._total,
            "blocks_by_last_access": self._live_order(),
            "hist": self._hist if self._order is not None else _trimmed(self._hist),
        }

    def feed(self, trace: Trace, budget: Optional[Budget] = None) -> None:
        """Consume one chunk of references, updating the running state.

        When a timeline recorder is active (``repro.obs.timeline``),
        every feed also emits one per-chunk telemetry row — covering
        both the vectorized kernel tier and the pure-Python loop, since
        both leave their results in the same incremental state.  The
        kernel trust harness replays chunks with sampling suppressed,
        which deactivates the recorder for the shadow copy.
        """
        from repro.obs import timeline as obs_timeline

        recorder = obs_timeline.active_recorder()
        if recorder is None:
            self._feed_impl(trace, budget=budget)
            return
        pre_hist = self._hist.copy()
        pre_cold = self._cold
        pre_total = self._total
        t0 = time.perf_counter()
        self._feed_impl(trace, budget=budget)
        elapsed = time.perf_counter() - t0
        self._record_chunk(
            recorder, trace, pre_hist, pre_cold, pre_total, elapsed
        )

    def _record_chunk(
        self,
        recorder,
        trace: Trace,
        pre_hist: np.ndarray,
        pre_cold: int,
        pre_total: int,
        elapsed: float,
    ) -> None:
        """Emit one timeline row for the chunk just fed (never raises)."""
        from repro.obs.metrics import inc

        try:
            n = len(trace)
            if n == 0:
                return
            d_cold = self._cold - pre_cold
            d_total = self._total - pre_total
            size = max(len(self._hist), len(pre_hist))
            d_hist = np.zeros(size, dtype=np.int64)
            d_hist[: len(self._hist)] += self._hist
            d_hist[: len(pre_hist)] -= pre_hist
            cum = np.cumsum(d_hist)
            hits_total = int(cum[-1])
            grid = default_capacity_grid()
            cap_blocks = np.minimum(grid // self.block_size, size - 1)
            hits_within = np.where(cap_blocks >= 1, cum[cap_blocks], 0)
            misses = d_total - hits_within
            percentiles: Dict[str, int] = {}
            if hits_total > 0:
                for label, q in (
                    ("depth_p50", 0.50),
                    ("depth_p90", 0.90),
                    ("depth_p99", 0.99),
                ):
                    percentiles[label] = int(
                        np.searchsorted(cum, q * hits_total)
                    )
            config = kernels.active_kernel_config()
            tier = (
                "vector"
                if config.tier == "vector"
                and not kernels.quarantined("stackdist")
                else "oracle"
            )
            recorder.record(
                "stackdist",
                refs=n,
                counted=int(d_total),
                cold=int(d_cold),
                elapsed_s=round(elapsed, 9),
                refs_per_second=(n / elapsed) if elapsed > 0 else None,
                block_size=self.block_size,
                ws_blocks=int(trace.footprint(self.block_size)),
                footprint_blocks=self.footprint_blocks,
                cache_sizes=[int(c) for c in grid],
                misses=[int(m) for m in misses],
                tier=tier,
                **percentiles,
            )
        except Exception:
            inc("obs.timeline.write_errors")

    def _feed_impl(self, trace: Trace, budget: Optional[Budget] = None) -> None:
        if kernels.guard_run("stackdist", self, trace, budget=budget):
            return
        if budget is None:
            budget = active_budget()
        blocks = trace.block_ids(self.block_size).tolist()
        kinds = trace.kinds.tolist()
        n = len(blocks)
        if n == 0:
            return
        if self._tree is None or self._clock + n > self._tree._n:
            self._compact(n)
        self._grow_hist(len(self._last_time) + n + 2)
        tree = self._tree
        last_time = self._last_time
        hist = self._hist
        cold = 0
        total = 0
        t0 = self._clock
        p0 = self._pos
        count_reads_only = self.count_reads_only
        warmup = self.warmup
        sampler = hot_loop_sampler("mem.stackdist")
        for i in range(n):
            if not (i & CHECK_MASK):
                if budget is not None:
                    budget.check("stack-distance profiling")
                if sampler is not None:
                    sampler.tick(i)
            t = t0 + i
            block = blocks[i]
            counted = p0 + i >= warmup and (
                not count_reads_only or kinds[i] == READ
            )
            prev = last_time.get(block)
            if prev is None:
                if counted:
                    cold += 1
                    total += 1
            else:
                # Distinct blocks touched strictly between prev and t,
                # plus the block itself -> 1-based stack depth.
                depth = tree.range_sum(prev + 1, t - 1) + 1
                if counted:
                    hist[depth] += 1
                    total += 1
                tree.add(prev, -1)
            tree.add(t, +1)
            last_time[block] = t
        self._clock = t0 + n
        self._pos = p0 + n
        self._cold += cold
        self._total += total
        if sampler is not None:
            sampler.finish(refs=n, misses=cold)

    def result(self) -> StackDistanceProfile:
        """The profile over everything fed so far (histogram trimmed)."""
        nonzero = np.nonzero(self._hist)[0]
        top = int(nonzero[-1]) if nonzero.size else 0
        return StackDistanceProfile(
            depth_histogram=self._hist[: top + 1].copy(),
            cold_misses=self._cold,
            total=self._total,
            block_size=self.block_size,
        )

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot: the native state as lists.

        The ``last_time`` map serializes as just the blocks in
        last-access order — after compaction their timestamps are
        exactly ``0..F-1``, so order alone reconstructs the map *and*
        the tree.
        """
        return kernels.json_state(self._snapshot())

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (parameters must match)."""
        for field in ("block_size", "count_reads_only", "warmup"):
            if state.get(field) != getattr(self, field):
                raise ValueError(
                    f"checkpoint {field}={state.get(field)!r} does not match "
                    f"this run's {field}={getattr(self, field)!r}"
                )
        self.adopt_native_state(
            {
                "pos": int(state["pos"]),
                "cold": int(state["cold"]),
                "total": int(state["total"]),
                "blocks_by_last_access": np.array(
                    state["blocks_by_last_access"], dtype=np.int64
                ),
                "hist": _trimmed(np.asarray(state["hist"], dtype=np.int64)),
            }
        )


def _trimmed(hist: np.ndarray) -> np.ndarray:
    """A read-only copy of ``hist`` without trailing zeros (>= 1 slot)."""
    nonzero = np.flatnonzero(hist)
    top = int(nonzero[-1]) + 1 if nonzero.size else 1
    out = np.zeros(top, dtype=np.int64)
    out[: min(top, len(hist))] = hist[:top]
    return kernels.frozen(out)


def profile_trace(
    trace: Trace,
    block_size: int = 8,
    count_reads_only: bool = False,
    warmup: int = 0,
    budget: Optional[Budget] = None,
) -> StackDistanceProfile:
    """Convenience wrapper: profile ``trace`` with a fresh profiler."""
    profiler = StackDistanceProfiler(
        block_size=block_size,
        count_reads_only=count_reads_only,
        warmup=warmup,
    )
    return profiler.profile(trace, budget=budget)


def default_capacity_grid(
    min_bytes: int = 64,
    max_bytes: int = 8 * 1024 * 1024,
    points_per_octave: int = 4,
) -> np.ndarray:
    """A geometric grid of cache sizes for miss-rate sweeps.

    Mirrors the paper's log-scale cache-size axes (Figures 2, 4-7).
    """
    if min_bytes < 8:
        raise ValueError("min_bytes must be at least one double word")
    if max_bytes < min_bytes:
        raise ValueError("max_bytes must be >= min_bytes")
    octaves = np.log2(max_bytes / min_bytes)
    count = max(2, int(round(octaves * points_per_octave)) + 1)
    grid = np.unique(
        np.round(
            min_bytes * np.power(2.0, np.linspace(0.0, octaves, count))
        ).astype(np.int64)
    )
    return grid
