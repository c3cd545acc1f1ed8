"""Tests for the Mattson stack-distance profiler — including the
equivalence property against the explicit LRU cache simulator that
justifies using the single-pass instrument everywhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import FullyAssociativeCache, sweep_cache_sizes
from repro.mem.stack_distance import (
    StackDistanceProfiler,
    _FenwickTree,
    default_capacity_grid,
    profile_trace,
)
from repro.mem.trace import READ, WRITE, Trace, TraceBuilder
from tests.conftest import random_trace


class TestBasics:
    def test_all_cold_for_streaming(self, sequential_trace):
        profile = profile_trace(sequential_trace)
        assert profile.cold_misses == len(sequential_trace)
        assert profile.miss_rate_at(10**9) == 1.0  # cold misses never go away

    def test_loop_depth_distribution(self, looping_trace):
        profile = profile_trace(looping_trace)
        # Each of 3 repeat sweeps re-touches 64 blocks at depth exactly 64.
        assert profile.cold_misses == 64
        assert profile.depth_histogram[64] == 3 * 64

    def test_hit_iff_capacity_at_least_depth(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.misses_at(63) == len(looping_trace)
        assert profile.misses_at(64) == 64  # cold only

    def test_miss_rate_at_bytes_granularity(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.miss_rate_at(64 * 8) == 64 / 256
        assert profile.miss_rate_at(63 * 8) == 1.0

    def test_zero_capacity_misses_everything(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.misses_at(0) == len(looping_trace)

    def test_compulsory_miss_rate(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.compulsory_miss_rate == pytest.approx(0.25)

    def test_max_useful_capacity_is_footprint(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.max_useful_capacity_blocks == 64

    def test_empty_trace(self):
        profile = profile_trace(Trace.from_addresses([]))
        assert profile.total == 0
        assert profile.miss_rate_at(1024) == 0.0

    def test_misses_per_op(self, looping_trace):
        profile = profile_trace(looping_trace)
        per_op = profile.misses_per_op([64 * 8], flops=512.0)
        assert per_op[0] == pytest.approx(64 / 512)

    def test_misses_per_op_requires_positive_flops(self, looping_trace):
        profile = profile_trace(looping_trace)
        with pytest.raises(ValueError):
            profile.misses_per_op([64], flops=0.0)


class TestOptions:
    def test_warmup_excludes_head(self, looping_trace):
        profile = profile_trace(looping_trace, warmup=64)
        # Cold misses all fall in the warmup window.
        assert profile.cold_misses == 0
        assert profile.total == 192

    def test_count_reads_only(self):
        builder = TraceBuilder()
        builder.read(0)
        builder.write(8)
        builder.read(0)
        builder.write(8)
        trace = builder.build()
        profile = profile_trace(trace, count_reads_only=True)
        assert profile.total == 2  # the two reads
        # Writes still update LRU state: the second read hits depth 2.
        assert profile.depth_histogram[2] == 1

    def test_block_size_coalesces(self):
        trace = Trace.from_addresses([0, 4, 8, 12])
        coarse = profile_trace(trace, block_size=16)
        assert coarse.cold_misses == 1
        assert coarse.total == 4

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            StackDistanceProfiler(block_size=10)

    def test_negative_warmup(self):
        with pytest.raises(ValueError):
            StackDistanceProfiler(warmup=-1)


class TestEquivalenceWithExplicitCache:
    """The inclusion property: one stack-distance pass equals explicit
    simulation at every capacity."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces(self, seed):
        trace = random_trace(2000, 80, seed=seed)
        profile = profile_trace(trace)
        capacities = np.array([8, 64, 128, 256, 320, 640])
        expected = sweep_cache_sizes(trace, capacities)
        actual = profile.miss_rates(capacities)
        np.testing.assert_allclose(actual, expected)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.sampled_from([READ, WRITE]),
            ),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_capacity(self, refs, capacity_blocks):
        builder = TraceBuilder()
        for block, kind in refs:
            if kind == READ:
                builder.read(block * 8)
            else:
                builder.write(block * 8)
        trace = builder.build()
        profile = profile_trace(trace)
        cache = FullyAssociativeCache(capacity_blocks * 8, block_size=8)
        stats = cache.run(trace)
        assert profile.misses_at(capacity_blocks) == stats.misses

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_miss_counts_monotone_in_capacity(self, blocks):
        trace = Trace.from_addresses([b * 8 for b in blocks])
        profile = profile_trace(trace)
        misses = [profile.misses_at(c) for c in range(0, 70)]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        assert misses[-1] == profile.cold_misses


class TestCapacityGrid:
    def test_geometric_and_increasing(self):
        grid = default_capacity_grid(64, 1024, points_per_octave=2)
        assert grid[0] == 64
        assert grid[-1] == 1024
        assert np.all(np.diff(grid) > 0)

    def test_rejects_tiny_min(self):
        with pytest.raises(ValueError):
            default_capacity_grid(min_bytes=4)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            default_capacity_grid(min_bytes=1024, max_bytes=64)


def _loop_built_tree(count, capacity):
    """Reference construction: set the leaves, push each node into its
    parent once."""
    arr = np.zeros(capacity + 1, dtype=np.int64)
    arr[1 : count + 1] = 1
    for i in range(1, capacity + 1):
        j = i + (i & -i)
        if j <= capacity:
            arr[j] += arr[i]
    return arr


class TestFenwickFromOnes:
    @pytest.mark.parametrize("capacity", [1, 2, 7, 8, 4096, 5000])
    def test_closed_form_matches_loop_built_tree(self, capacity):
        for count in sorted({0, 1, capacity - 1, capacity}):
            tree = _FenwickTree.from_ones(count, capacity)
            assert tree._n == capacity
            assert tree._tree.dtype == np.int64
            np.testing.assert_array_equal(
                tree._tree, _loop_built_tree(count, capacity)
            )
            for index in {0, count - 1, count, capacity - 1} - {-1, capacity}:
                assert tree.prefix_sum(index) == min(index + 1, count)

    def test_count_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            _FenwickTree.from_ones(9, 8)
