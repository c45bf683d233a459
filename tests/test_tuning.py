"""Tests for the runtime-tuning package (the paper's future work)."""

import pytest

from repro.core.context import RunContext
from repro.core.study import Study
from repro.openmp.env import ScheduleKind
from repro.openmp.constructs import (
    critical_section_cycles,
    measure_construct_overheads,
    overhead_table,
)
from repro.tuning.loop_tuner import tune_loop_schedule
from repro.tuning.placement_tuner import tune_placement


class TestLoopTuner:
    def test_imbalanced_workload_prefers_self_scheduling(self, study):
        result = tune_loop_schedule(study, "LU", "ht_off_4_2")
        assert result.chosen in (ScheduleKind.GUIDED, ScheduleKind.DYNAMIC)
        assert result.gain_over_static > 0

    def test_regular_workload_prefers_static(self, study):
        result = tune_loop_schedule(study, "SP", "ht_off_4_2")
        assert result.chosen is ScheduleKind.STATIC

    def test_all_schedules_trialed(self, study):
        result = tune_loop_schedule(study, "EP", "ht_off_2_1")
        assert set(result.trial_seconds) == set(ScheduleKind)

    def test_invalid_fraction(self, study):
        with pytest.raises(ValueError):
            tune_loop_schedule(study, "EP", "serial", trial_fraction=0.0)


class TestPlacementTuner:
    @pytest.fixture(scope="class")
    def cg_cg(self):
        return tune_placement(Study("B"), "CG", "CG", "ht_on_8_2")

    def test_gang_wins_homogeneous_pair(self, cg_cg):
        """Two CG copies want same-program siblings (shared code and
        source vector) and no migration churn: gang placement."""
        assert cg_cg.chosen == "gang"
        assert cg_cg.gain_over_default > 0.1

    def test_trial_identifies_true_optimum(self, cg_cg):
        assert cg_cg.regret == pytest.approx(0.0, abs=1e-9)

    def test_all_policies_measured(self, cg_cg):
        assert set(cg_cg.full_makespans) == {
            "linux_default", "gang", "symbiosis"
        }

    def test_invalid_fraction(self, study):
        with pytest.raises(ValueError):
            tune_placement(study, "CG", "CG", "ht_on_8_2", trial_fraction=2.0)


class TestConstructOverheads:
    def test_overheads_grow_with_team_span(self):
        small = measure_construct_overheads("ht_on_2_1")
        big = measure_construct_overheads("ht_on_8_2")
        assert big.parallel > small.parallel
        assert big.barrier > small.barrier
        assert big.critical > small.critical

    def test_sibling_critical_cheaper_than_cross_chip(self):
        assert critical_section_cycles(2, 1, 1) < critical_section_cycles(
            2, 2, 2
        )

    def test_uncontended_floor(self):
        assert critical_section_cycles(1, 1, 1) == pytest.approx(120.0)

    def test_table_covers_all_configs(self):
        rows = overhead_table()
        assert len(rows) == 7
        assert {r.config for r in rows} >= {"ht_on_2_1", "ht_on_8_2"}

    def test_microsecond_conversion(self):
        r = measure_construct_overheads("ht_off_4_2")
        us = r.in_microseconds(2.8e9)
        assert us["parallel"] == pytest.approx(r.parallel / 2800.0)


class TestTuningFollowsContext:
    """The tuning study runs on the context's machine (``--machine``)."""

    def test_runs_on_the_context_machine(self):
        from repro.experiments import tuning_study

        ctx = RunContext(machine="cascadelake-2s-numa")
        kwargs = dict(
            benchmarks=("CG",), loop_configs=("ht_off_4_2",),
            pairs=(("CG", "FT"),),
        )
        result = tuning_study.run(ctx, **kwargs)
        default = tuning_study.run(RunContext(), **kwargs)
        placement = result.placement_rows[0]
        assert placement.full_makespans["linux_default"] == (
            ctx.study().run_pair("CG", "FT", "ht_on_8_2").runtime_seconds
        )
        assert placement.full_makespans != (
            default.placement_rows[0].full_makespans
        )
        assert result.loop_rows[0].trial_seconds != (
            default.loop_rows[0].trial_seconds
        )
