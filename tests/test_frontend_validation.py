"""Front-end validation: analytic branch/trace-cache models vs
structural simulation on synthetic instruction streams."""

import numpy as np
import pytest

from repro.cpu.branch import (
    BimodalPredictor,
    GsharePredictor,
    analytic_mispredict_rate,
)
from repro.machine.params import BranchPredictorParams, CacheParams
from repro.mem.cache import cyclic_chain_miss_rate
from repro.npb.suite import build_workload
from repro.trace.patterns import loop_thrash_miss_rate
from tests.oracles.instr_stream import (
    BranchStream,
    gen_branch_stream,
    gen_code_stream,
)


class TestBranchStreamGenerator:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            BranchStream(
                pcs=np.zeros(3, dtype=np.int64),
                outcomes=np.zeros(2, dtype=bool),
            )

    def test_loop_exits_at_trip_count(self):
        phase = build_workload("SP", "B").phases[1]  # x_solve, trips=102
        stream = gen_branch_stream(phase, 4000, np.random.default_rng(1))
        not_taken = np.count_nonzero(~stream.outcomes)
        # Roughly one exit per trip block plus the data-branch minority.
        assert not_taken >= 4000 / 102 * 0.8

    def test_site_population(self):
        phase = build_workload("CG", "B").phases[1]
        stream = gen_branch_stream(phase, 3000, np.random.default_rng(2))
        assert len(np.unique(stream.pcs)) > 100


def _measure(predictor_cls, phase, seed=42, n=30000, n_threads=1):
    """Warm on the first half of a synthetic stream, measure the rest."""
    params = BranchPredictorParams()
    stream = gen_branch_stream(
        phase, n, np.random.default_rng(seed), n_threads=n_threads
    )
    predictor = predictor_cls(params)
    half = len(stream.pcs) // 2
    predictor.run(stream.pcs[:half], stream.outcomes[:half])
    predictor.stats = type(predictor.stats)()
    return predictor.run(
        stream.pcs[half:], stream.outcomes[half:]
    ).mispredict_rate


class TestPredictorsAgainstAnalytic:
    @pytest.mark.parametrize("bench,phase_idx", [
        ("SP", 1), ("MG", 0), ("FT", 1), ("EP", 0), ("CG", 1),
    ])
    def test_bimodal_brackets_analytic(self, bench, phase_idx):
        """The idealized bimodal predictor on an entropy-matched stream
        is a *lower bound* on the analytic rate (which adds the floor
        for BTB misses and cold paths real machines pay), and lands
        within 2 pp of it."""
        phase = build_workload(bench, "B").phases[phase_idx]
        params = BranchPredictorParams()
        structural = _measure(BimodalPredictor, phase)
        analytic = analytic_mispredict_rate(phase, params)
        assert structural <= analytic + 0.005
        assert analytic - structural < 0.02

    def test_analytic_ordering_matches_structural(self):
        """Benchmarks rank the same under both views."""
        params = BranchPredictorParams()
        pairs = [("CG", 1), ("SP", 1), ("FT", 1)]
        structural = [
            _measure(BimodalPredictor, build_workload(b, "B").phases[i])
            for b, i in pairs
        ]
        analytic = [
            analytic_mispredict_rate(
                build_workload(b, "B").phases[i], params
            )
            for b, i in pairs
        ]
        assert sorted(range(3), key=lambda k: structural[k]) == sorted(
            range(3), key=lambda k: analytic[k]
        )

    def test_trip_division_visible_structurally(self):
        """Shorter inner loops mispredict more in the structural
        predictor too (the SP-at-8-threads mechanism)."""
        phase = build_workload("SP", "B").phases[1]
        assert _measure(
            BimodalPredictor, phase, seed=7, n_threads=8
        ) > _measure(BimodalPredictor, phase, seed=7, n_threads=1)

    def test_gshare_history_pollution_pessimism(self):
        """Pure gshare on entropy-matched streams is *worse* than
        bimodal (random outcomes pollute the shared history) — the
        effect behind the analytic HT pollution term."""
        phase = build_workload("CG", "B").phases[1]
        assert _measure(GsharePredictor, phase) > _measure(
            BimodalPredictor, phase
        )


class TestTraceCacheAgainstAnalytic:
    def _tc_params(self):
        # 12 K uops, 6-uop lines, 8-way (mirrors MachineParams defaults
        # in uop units).
        return CacheParams(size_bytes=12 * 1024, line_bytes=6,
                           associativity=8, latency_cycles=0.0)

    @pytest.mark.parametrize("footprint_uops,expect_low", [
        (4000, True),    # fits: ~0 misses
        (27000, False),  # MG-sized: thrash
    ])
    def test_cyclic_code_fetch(self, footprint_uops, expect_low):
        params = self._tc_params()
        stream = gen_code_stream(footprint_uops, 20000)
        exact = cyclic_chain_miss_rate(params, np.unique(stream))
        if expect_low:
            assert exact < 0.05
        else:
            assert exact > 0.95

    def test_smooth_model_brackets_the_cliff(self):
        """The engine's smoothed thrash model agrees with the exact
        cyclic behaviour away from the capacity knee."""
        params = self._tc_params()
        for footprint in (3000, 6000, 40000, 80000):
            # exact per-line steady state:
            n_lines = max(int(footprint) // 6, 1)
            exact = cyclic_chain_miss_rate(
                params, np.arange(n_lines, dtype=np.int64) * 6
            )
            smooth = loop_thrash_miss_rate(footprint, 12 * 1024, width=0.35)
            assert smooth == pytest.approx(exact, abs=0.2)
