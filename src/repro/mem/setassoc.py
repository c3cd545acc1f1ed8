"""Set-associative and direct-mapped cache simulators.

Section 6.4 of the paper observes that with direct-mapped caches the
knees of the Barnes-Hut miss-rate curve are less well defined and that
the direct-mapped capacity required to hold the important working set is
about three times the fully associative capacity.  This module provides
the limited-associativity instrument used to reproduce that study
(``experiments/assoc_study.py``).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

import numpy as np

from repro.mem import kernels
from repro.mem.cache import CacheStats
from repro.mem.lru import LRUList
from repro.mem.trace import READ, Trace
from repro.obs.metrics import hot_loop_sampler
from repro.runtime.budget import CHECK_MASK, Budget, active_budget


class SetAssociativeCache:
    """An ``associativity``-way set-associative LRU cache.

    ``associativity=1`` gives a direct-mapped cache.  Indexing is the
    conventional modulo scheme: block address modulo number of sets.

    Args:
        capacity_bytes: Total capacity in bytes.
        block_size: Line size in bytes (power of two).
        associativity: Ways per set; must divide the number of blocks.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int = 8,
        associativity: int = 1,
    ) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError(
                f"block_size must be a positive power of two (got {block_size})"
            )
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive (got {capacity_bytes})"
            )
        num_blocks = capacity_bytes // block_size
        if num_blocks < 1:
            raise ValueError(
                f"capacity must hold at least one block "
                f"(capacity_bytes={capacity_bytes} < block_size={block_size})"
            )
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1 (got {associativity})")
        if num_blocks % associativity != 0:
            raise ValueError(
                f"associativity must divide the number of blocks "
                f"({associativity} does not divide {num_blocks})"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = num_blocks // associativity
        self.stats = CacheStats()
        self.flush()

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1

    def _materialize(self) -> None:
        """Build the oracle loop's per-set LRU lists from native state."""
        if self._sets is not None:
            return
        sets = [LRUList() for _ in range(self.num_sets)]
        orders = self._orders.tolist()
        counts = self._counts
        ends = np.cumsum(counts).tolist()
        for index in np.flatnonzero(counts).tolist():
            end = ends[index]
            sets[index] = LRUList.from_mru_to_lru(
                orders[end - int(counts[index]) : end]
            )
        self._sets = sets
        self._ever_seen = set(self._ever.tolist())
        self._orders = self._counts = self._ever = None

    def _to_native(self) -> None:
        """Drop the oracle-loop structures for the native arrays."""
        if self._sets is None:
            return
        self._orders, self._counts, self._ever = self._native_arrays()
        self._sets = self._ever_seen = None

    def _native_arrays(self):
        if self._sets is None:
            return self._orders, self._counts, self._ever
        counts = np.fromiter(
            (len(cache_set) for cache_set in self._sets), np.int64, self.num_sets
        )
        orders: List[int] = []
        for cache_set in self._sets:
            orders.extend(cache_set.keys_mru_to_lru())
        ever = np.fromiter(self._ever_seen, np.int64, len(self._ever_seen))
        return (
            kernels.frozen(np.array(orders, dtype=np.int64)),
            kernels.frozen(counts),
            kernels.frozen(np.sort(ever)),
        )

    def native_state(self) -> dict:
        """The :meth:`state_dict` schema with int64 arrays, by reference.

        Switches to the native form first (dropping the oracle-loop
        structures); the arrays are read-only.
        """
        self._to_native()
        return self._snapshot()

    def adopt_native_state(self, state: dict) -> None:
        """Take over a kernel's native state (arrays kept by reference)."""
        self._orders = kernels.frozen(state["set_orders_mru_to_lru"])
        self._counts = kernels.frozen(state["set_counts"])
        self._ever = kernels.frozen(state["ever_seen"])
        self._sets = self._ever_seen = None
        self.stats = CacheStats(**state["stats"])

    def _snapshot(self) -> dict:
        """Per-set recency orders flattened into one array plus a per-set
        length vector, to keep the state shallow."""
        orders, counts, ever = self._native_arrays()
        return {
            "capacity_bytes": self.capacity_bytes,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "set_orders_mru_to_lru": orders,
            "set_counts": counts,
            "ever_seen": ever,
            "stats": asdict(self.stats),
        }

    def access(self, addr: int, kind: int = READ) -> bool:
        """Issue one reference.  Returns True on hit, False on miss."""
        if self._sets is None:
            self._materialize()
        block = addr // self.block_size
        index = block % self.num_sets
        cache_set = self._sets[index]
        if kind == READ:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        hit = cache_set.touch(block)
        if not hit:
            if kind == READ:
                self.stats.read_misses += 1
            else:
                self.stats.write_misses += 1
            if block not in self._ever_seen:
                self.stats.cold_misses += 1
                self._ever_seen.add(block)
            if len(cache_set) > self.associativity:
                cache_set.evict_lru()
        return hit

    def run(self, trace: Trace, budget: Optional[Budget] = None) -> CacheStats:
        """Run a whole trace through the cache; returns cumulative stats.

        A sharded :class:`~repro.mem.shards.StreamingTrace` is consumed
        chunk-wise in bounded memory, with checkpoint/resume at shard
        boundaries when a stream configuration is active.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled every
                few thousand references (defaults to the ambient
                campaign budget, if any).
        """
        if hasattr(trace, "iter_chunks"):
            from repro.mem.streamsim import run_setassoc_streamed

            return run_setassoc_streamed(self, trace, budget=budget)
        from repro.obs import timeline as obs_timeline

        recorder = obs_timeline.active_recorder()
        if recorder is None:
            return self._run_impl(trace, budget=budget)
        import time as _time

        pre = self.stats
        pre_accesses, pre_misses = pre.accesses, pre.misses
        pre_cold = pre.cold_misses
        t0 = _time.perf_counter()
        stats = self._run_impl(trace, budget=budget)
        obs_timeline.record_cache_chunk(
            recorder,
            "setassoc",
            trace,
            block_size=self.block_size,
            capacity_bytes=self.capacity_bytes,
            refs=len(trace),
            counted=stats.accesses - pre_accesses,
            cold=stats.cold_misses - pre_cold,
            misses_total=stats.misses - pre_misses,
            elapsed=_time.perf_counter() - t0,
        )
        return stats

    def _run_impl(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> CacheStats:
        if kernels.guard_run("setassoc", self, trace, budget=budget):
            return self.stats
        if budget is None:
            budget = active_budget()
        sampler = hot_loop_sampler("mem.setassoc")
        misses_before = self.stats.misses
        accesses_before = self.stats.accesses
        for i, (block, kind) in enumerate(
            zip(trace.block_ids(self.block_size).tolist(), trace.kinds.tolist())
        ):
            if not (i & CHECK_MASK):
                if budget is not None:
                    budget.check("set-associative cache simulation")
                if sampler is not None:
                    sampler.tick(i)
            self.access(block * self.block_size, kind)
        if sampler is not None:
            sampler.finish(
                refs=self.stats.accesses - accesses_before,
                misses=self.stats.misses - misses_before,
            )
        return self.stats

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        # Native state: flattened per-set orders MRU -> LRU, per-set
        # counts and the sorted blocks ever seen.  The per-set LRU lists
        # and seen-set exist only while the oracle loop runs (then the
        # arrays are None).
        self._orders: Optional[np.ndarray] = kernels.EMPTY
        self._counts: Optional[np.ndarray] = kernels.frozen(
            np.zeros(self.num_sets, dtype=np.int64)
        )
        self._ever: Optional[np.ndarray] = kernels.EMPTY
        self._sets: Optional[List[LRUList]] = None
        self._ever_seen: Optional[set] = None

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every set, history and stats."""
        return kernels.json_state(self._snapshot())

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        for field_name in ("capacity_bytes", "block_size", "associativity"):
            if state.get(field_name) != getattr(self, field_name):
                raise ValueError(
                    f"checkpoint {field_name}={state.get(field_name)!r} does "
                    f"not match this cache's "
                    f"{field_name}={getattr(self, field_name)!r}"
                )
        counts = np.array(state["set_counts"], dtype=np.int64)
        if len(counts) != self.num_sets:
            raise ValueError(
                f"checkpoint has {len(counts)} sets, cache has {self.num_sets}"
            )
        orders = np.array(state["set_orders_mru_to_lru"], dtype=np.int64)
        if len(orders) != int(counts.sum()):
            raise ValueError("checkpoint set orders disagree with set counts")
        self.adopt_native_state(
            {
                "set_orders_mru_to_lru": orders,
                "set_counts": counts,
                "ever_seen": np.unique(np.asarray(state["ever_seen"], dtype=np.int64)),
                "stats": {k: int(v) for k, v in state["stats"].items()},
            }
        )
