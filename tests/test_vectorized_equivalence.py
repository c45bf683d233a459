"""Batch-replay equivalence for the structural simulators.

The batch replay engines (`repro.mem.lru_batch`, the branch predictor
scans) must be *exact* reimplementations of the per-access oracles in
``tests/oracles`` — same miss flags, same counters, same post-run state.
These properties drive random streams through both and require bitwise
agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.branch import BimodalPredictor, GsharePredictor
from repro.machine.params import (
    BranchPredictorParams,
    CacheParams,
    TLBParams,
)
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.tlb import TLB
from repro.npb.suite import build_workload
from repro.sim.structural import SharingScenario, StructuralCoSimulator
from tests.oracles.replay import (
    ScalarCoSimulator,
    cache_run_misses,
    predictor_run,
    tlb_run_misses,
)

SMALL_CACHE = CacheParams(
    size_bytes=4096, line_bytes=64, associativity=4, latency_cycles=3
)


def _addresses(draw, n):
    # A small address universe forces conflict and capacity misses.
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 14),
            min_size=n,
            max_size=n,
        )
    )


@st.composite
def cache_stream(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    addrs = _addresses(draw, n)
    ctxs = draw(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=n, max_size=n
        )
    )
    return np.asarray(addrs, dtype=np.int64), np.asarray(ctxs, dtype=np.int64)


class TestCacheEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(cache_stream())
    def test_miss_flags_stats_and_state_match(self, stream):
        addrs, ctxs = stream
        scalar = SetAssocCache(SMALL_CACHE)
        batch = SetAssocCache(SMALL_CACHE)
        m_s = cache_run_misses(scalar, addrs, ctxs)
        m_b = batch.run_misses(addrs, ctxs)
        assert np.array_equal(m_s, m_b)
        assert scalar.stats.accesses == batch.stats.accesses
        assert scalar.stats.misses == batch.stats.misses
        assert scalar._clock == batch._clock
        # Way slots may differ; the resident lines per set may not.
        assert np.array_equal(
            np.sort(scalar._tags, axis=1), np.sort(batch._tags, axis=1)
        )

    @settings(max_examples=40, deadline=None)
    @given(cache_stream())
    def test_batch_then_scalar_continuation(self, stream):
        """The batch path must leave the cache in the exact LRU state the
        oracle would, so an oracle continuation sees the same
        hits/misses."""
        addrs, ctxs = stream
        cut = len(addrs) // 2
        mixed = SetAssocCache(SMALL_CACHE)
        mixed.run_misses(addrs[:cut], ctxs[:cut])
        tail_mixed = cache_run_misses(mixed, addrs[cut:], ctxs[cut:])
        pure = SetAssocCache(SMALL_CACHE)
        cache_run_misses(pure, addrs[:cut], ctxs[:cut])
        tail_pure = cache_run_misses(pure, addrs[cut:], ctxs[cut:])
        assert np.array_equal(tail_mixed, tail_pure)


class TestTLBEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 18),
            min_size=1,
            max_size=400,
        )
    )
    def test_miss_flags_and_continuation_match(self, addrs):
        addrs = np.asarray(addrs, dtype=np.int64)
        params = TLBParams(entries=8)
        scalar, batch = TLB(params), TLB(params)
        assert np.array_equal(
            tlb_run_misses(scalar, addrs), batch.run_misses(addrs)
        )
        assert scalar.stats == batch.stats
        assert np.array_equal(np.sort(scalar._pages), np.sort(batch._pages))
        # Continuation from the written-back LRU state.
        assert np.array_equal(
            tlb_run_misses(scalar, addrs), tlb_run_misses(batch, addrs)
        )


@st.composite
def branch_stream(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    pcs = draw(
        st.lists(
            st.integers(min_value=0, max_value=255), min_size=n, max_size=n
        )
    )
    outcomes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        np.asarray(pcs, dtype=np.int64),
        np.asarray(outcomes, dtype=bool),
    )


class TestBranchEquivalence:
    PARAMS = BranchPredictorParams(bht_entries=64, history_bits=6)

    @settings(max_examples=60, deadline=None)
    @given(branch_stream())
    def test_bimodal_counts_and_table_match(self, stream):
        pcs, outcomes = stream
        scalar = BimodalPredictor(self.PARAMS)
        batch = BimodalPredictor(self.PARAMS)
        predictor_run(scalar, pcs, outcomes)
        batch.run(pcs, outcomes)
        assert scalar.stats == batch.stats
        assert np.array_equal(scalar._table, batch._table)

    @settings(max_examples=60, deadline=None)
    @given(branch_stream())
    def test_gshare_counts_table_and_history_match(self, stream):
        pcs, outcomes = stream
        scalar = GsharePredictor(self.PARAMS)
        batch = GsharePredictor(self.PARAMS)
        predictor_run(scalar, pcs, outcomes)
        batch.run(pcs, outcomes)
        assert scalar.stats == batch.stats
        assert scalar._history == batch._history
        assert np.array_equal(scalar._table, batch._table)


class TestStructuralEquivalence:
    """Whole-replay equivalence, including the interleaved HT scenario."""

    @pytest.fixture(scope="class")
    def phases(self):
        return (
            build_workload("CG", "A").phases[-1],
            build_workload("FT", "A").phases[-1],
        )

    @pytest.mark.parametrize("shared", [False, True])
    def test_measure_identical(self, phases, shared):
        cg, ft = phases
        scenario = SharingScenario(
            phase=cg,
            n_threads=2,
            co_phase=ft if shared else None,
            same_data=False,
        )
        fast = StructuralCoSimulator(samples=4000)
        slow = ScalarCoSimulator(samples=4000)
        r_fast = fast.measure(scenario)
        r_slow = slow.measure(scenario)
        assert r_fast == r_slow


class TestRecordMany:
    def test_matches_repeated_record(self):
        a, b = CacheStats(), CacheStats()
        for _ in range(7):
            a.record(1, miss=False)
        for _ in range(3):
            a.record(1, miss=True)
        b.record_many(1, accesses=10, misses=3)
        assert a.accesses == b.accesses
        assert a.misses == b.misses
        assert a.miss_rate(1) == b.miss_rate(1)

    def test_accumulates_across_calls(self):
        s = CacheStats()
        s.record_many(0, accesses=4, misses=1)
        s.record_many(0, accesses=6, misses=2)
        s.record_many(2, accesses=5, misses=5)
        assert s.total_accesses == 15
        assert s.total_misses == 8
        assert s.miss_rate(2) == 1.0
