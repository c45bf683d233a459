"""Tests for the new workload families (minigmg, rzbench kernels).

The families must be first-class citizens of the whole stack: audited by
the invariant auditor, batchable by the machine-axis engine, sweepable
by the experiment drivers, and cache-keyed through the registry tokens.
"""

import pytest

from repro import verify
from repro.core.context import RunContext, override
from repro.core.study import Study
from repro.npb.common import ProblemClass
from repro.workload.families import minigmg, rzbench


class TestMiniGMG:
    def test_level_working_sets_shrink_eightfold(self):
        wl = minigmg.build(ProblemClass.B)
        smooth = [p for p in wl.phases if p.name.startswith("smooth_l")]
        assert len(smooth) >= 4
        # The grid (stencil) footprint halves each edge, so it shrinks
        # 8x per level; the fixed scalar side-pattern is excluded.
        grids = [
            next(
                p_.footprint_bytes
                for _, p_ in p.access_mix.components
                if type(p_).__name__ == "StencilPattern"
            )
            for p in smooth
        ]
        for finer, coarser in zip(grids, grids[1:]):
            assert finer / coarser == pytest.approx(8.0)
        # And the phase-level working set is dominated by the grid.
        sets = [p.working_set_bytes() for p in smooth]
        assert sets == sorted(sets, reverse=True)

    def test_bottom_solve_is_barrier_bound(self):
        wl = minigmg.build(ProblemClass.B)
        bottom = wl.phases[-1]
        assert bottom.name == "bottom_solve"
        assert bottom.barriers > max(
            p.barriers for p in wl.phases[:-1]
        )

    def test_class_scaling_monotone(self):
        small = minigmg.build(ProblemClass.W)
        big = minigmg.build(ProblemClass.B)
        assert big.total_instructions > small.total_instructions
        assert big.working_set_bytes > small.working_set_bytes

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError, match="fine_edge"):
            minigmg.build(ProblemClass.B, fine_edge=8)

    def test_spec_round_trips(self):
        spec = minigmg.spec(ProblemClass.B)
        from repro.workload.spec import WorkloadSpec

        assert WorkloadSpec.from_dict(spec.to_dict()).build() == spec.build()


class TestRZBench:
    def test_triad_streams_three_arrays(self):
        wl = rzbench.triad_build(ProblemClass.B, elements=2 ** 20)
        # Three streamed arrays plus the 512 B scalar footprint.
        assert wl.working_set_bytes == 3 * 8 * 2 ** 20 + 512

    def test_strided_prefetchability_degrades_with_stride(self):
        short = rzbench.strided_load_build(ProblemClass.B, stride_bytes=8)
        long_ = rzbench.strided_load_build(ProblemClass.B, stride_bytes=512)
        assert (
            short.phases[0].prefetchability
            > long_.phases[0].prefetchability
        )

    def test_mem_ops_clamped(self):
        with pytest.raises(ValueError, match="mem_ops_per_instr"):
            rzbench.triad_build(ProblemClass.B, mem_ops_per_instr=1.5)

    def test_specs_memoized(self):
        assert rzbench.triad_spec(ProblemClass.B) is rzbench.triad_spec(
            ProblemClass.B
        )


class TestAuditedRuns:
    @pytest.mark.parametrize("name", ["minigmg", "triad", "strided-load"])
    def test_families_pass_the_invariant_auditor(self, name):
        st = Study("B")
        before = verify.stats().snapshot()
        with override(verify=True):
            result = st.engine("ht_off_4_2").run_single(st.workload(name))
        delta = verify.stats().since(before)
        assert result.runtime_seconds > 0
        assert delta.runs == 1 and delta.violations == 0
        assert delta.checks > 0

    def test_minigmg_speedup_sane(self):
        st = Study("B")
        s = st.speedup("minigmg", "ht_off_4_2")
        assert 1.0 < s <= 8.0


class TestBatchedEquivalence:
    def test_minigmg_batched_equals_scalar(self):
        from repro.machine.registry import resolve_machine
        from repro.sim.batch import run_batched_single
        from tests.test_batch_equivalence import assert_identical_runs

        # Lane-uniform hierarchy depth (two levels): deeper machines
        # like broadwell-shared-l3 fall back to scalar runs by design.
        variants = [
            resolve_machine("paxville").to_params(),
            resolve_machine("nextgen-shared-l2").to_params(),
            resolve_machine("nextgen-shared-l2-4mb").to_params(),
        ]
        studies = [Study("B", params=p) for p in variants]
        workloads = [st.workload("minigmg") for st in studies]
        # The auditor forces scalar resolves by design; batching is the
        # subject here, so switch it off for both paths.
        with override(verify=False):
            batched = run_batched_single(
                [st.engine("ht_off_4_2") for st in studies], workloads
            )
            assert batched is not None
            for st, wl, res in zip(studies, workloads, batched):
                scalar = st.engine("ht_off_4_2").run_single(wl)
                assert_identical_runs(res, scalar, tag="minigmg")


class TestDriverSweeps:
    def test_fig3_with_new_families(self):
        from repro.experiments import fig3_speedup

        ctx = RunContext(
            machine="broadwell-shared-l3",
            workloads=["minigmg", "triad"],
        )
        result = fig3_speedup.run(ctx)
        assert set(result.table.benchmarks) == {"minigmg", "triad"}
        for bench in result.table.benchmarks:
            for config in result.config_order:
                assert result.table.get(bench, config) > 0

    def test_fig3_default_is_unchanged(self):
        from repro.experiments import fig3_speedup

        result = fig3_speedup.run(RunContext())
        assert set(result.table.benchmarks) == set(Study.paper_benchmarks())
