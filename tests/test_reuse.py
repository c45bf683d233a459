"""Tests for reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.params import CacheParams
from repro.mem.cache import simulate_miss_rate
from repro.trace.patterns import AccessMix, RandomPattern, StreamingPattern
from tests.oracles.reuse import miss_rate_curve_from_mix, reuse_profile


class TestReuseProfile:
    def test_first_touches_are_cold(self):
        p = reuse_profile(np.array([0, 64, 128], dtype=np.int64), 64)
        assert list(p.distances) == [-1, -1, -1]
        assert p.cold_fraction == 1.0

    def test_immediate_reuse_distance_zero(self):
        p = reuse_profile(np.array([0, 0], dtype=np.int64), 64)
        assert list(p.distances) == [-1, 0]

    def test_stack_distance_counts_distinct_lines(self):
        # Touch a, b, c, then a again: distance 2 (b and c in between).
        addrs = np.array([0, 64, 128, 0], dtype=np.int64)
        p = reuse_profile(addrs, 64)
        assert p.distances[3] == 2

    def test_repeated_line_does_not_inflate_distance(self):
        # a, b, b, a: only one distinct line (b) between the a's.
        addrs = np.array([0, 64, 64, 0], dtype=np.int64)
        p = reuse_profile(addrs, 64)
        assert p.distances[3] == 1

    def test_line_granularity(self):
        addrs = np.array([0, 32, 64], dtype=np.int64)
        p = reuse_profile(addrs, 64)
        assert list(p.distances) == [-1, 0, -1]

    def test_miss_rate_cliff(self):
        # Cyclic sweep over 8 lines: fits in 8-line cache (after cold),
        # thrashes in anything smaller.
        sweep = np.tile(np.arange(8, dtype=np.int64) * 64, 10)
        p = reuse_profile(sweep, 64)
        assert p.miss_rate(8 * 64) == pytest.approx(8 / 80)   # cold only
        assert p.miss_rate(7 * 64) == 1.0                     # LRU thrash

    def test_histogram_sums_to_one(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 12, 500, dtype=np.int64)
        p = reuse_profile(addrs, 64)
        h = p.histogram([1, 4, 16, 64])
        binned = sum(v for k, v in h.items() if k != "cold")
        # Bins cover reuses; cold (first-touch) accesses are separate.
        assert binned + h["cold"] == pytest.approx(1.0)

    def test_empty_stream(self):
        p = reuse_profile(np.array([], dtype=np.int64), 64)
        assert p.miss_rate(1024) == 0.0
        assert p.histogram([4]) == {}

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_matches_fully_associative_simulation(self, seed):
        """Mattson's algorithm must agree with the structural FA-LRU
        cache exactly (cold misses included)."""
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 11, 300, dtype=np.int64)
        p = reuse_profile(addrs, 64)
        params = CacheParams(size_bytes=512, line_bytes=64, associativity=8,
                             latency_cycles=1.0)  # fully associative
        measured = simulate_miss_rate(params, addrs, warmup_fraction=0.0)
        assert p.miss_rate(512) == pytest.approx(measured, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_miss_rate_monotone_in_capacity(self, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 12, 400, dtype=np.int64)
        p = reuse_profile(addrs, 64)
        curve = p.miss_rate_curve([64, 256, 1024, 4096, 1 << 14])
        assert curve == sorted(curve, reverse=True)


class TestMixCurveValidation:
    def test_random_pattern_curve_matches_analytic(self):
        mix = AccessMix.of(
            (1.0, RandomPattern(footprint_bytes=64 * 1024)),
        )
        caps = [8 * 1024, 16 * 1024, 32 * 1024, 128 * 1024]
        measured = miss_rate_curve_from_mix(mix, caps, samples=15000)
        for cap, m in zip(caps, measured):
            analytic = mix.miss_rate(cap, 64)
            # The finite sample carries ~7% cold first-touches that the
            # steady-state closed form excludes.
            assert m == pytest.approx(analytic, abs=0.08)

    def test_streaming_pattern_thrash_region(self):
        mix = AccessMix.of(
            (1.0, StreamingPattern(footprint_bytes=1 << 20, stride_bytes=8)),
        )
        measured = miss_rate_curve_from_mix(mix, [16 * 1024], samples=15000)
        analytic = mix.miss_rate(16 * 1024, 64)
        assert measured[0] == pytest.approx(analytic, abs=0.04)
