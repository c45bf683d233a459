"""Tests for the thread-count scalability study."""

import pytest

from repro.core.context import RunContext
from repro.experiments import scaling_curves


@pytest.fixture(scope="module")
def result():
    return scaling_curves.run(benchmarks=["CG", "EP", "SP"])


class TestScalingCurves:
    def test_thread_grids(self, result):
        assert result.thread_counts["ht_off_4_2"] == [1, 2, 4]
        assert result.thread_counts["ht_on_8_2"] == [1, 2, 4, 8]

    def test_ep_scales_linearly_to_four(self, result):
        curve = result.curves["EP"]["ht_off_4_2"]
        assert curve[-1] == pytest.approx(4.0, rel=0.05)

    def test_memory_codes_sublinear(self, result):
        curve = result.curves["CG"]["ht_off_4_2"]
        assert curve[-1] < 3.2

    def test_sp_knee_at_eight_on_ht(self, result):
        """SP keeps gaining through the sibling contexts (its L2 window
        fit); everyone else's knee sits at 4 threads."""
        assert result.knee("SP", "ht_on_8_2") == 8
        assert result.knee("CG", "ht_on_8_2") == 4

    def test_one_thread_near_serial(self, result):
        for bench in result.curves:
            one = result.curves[bench]["ht_off_4_2"][0]
            assert one == pytest.approx(1.0, abs=0.08)

    def test_report_renders(self, result):
        text = scaling_curves.report(result)
        assert "Scalability on ht_off_4_2" in text
        assert "knee" in text


class TestMachineFollowsContext:
    """Every point of a curve runs on the context's machine, so the
    full-thread point is the study's own speedup (the same run-cache
    entry as fig3's)."""

    @pytest.mark.parametrize("machine", [None, "cascadelake-2s-numa"])
    def test_full_thread_point_is_the_study_speedup(self, machine):
        ctx = RunContext(machine=machine)
        curves = scaling_curves.run(ctx, benchmarks=["CG"])
        study = ctx.study()
        for cfg in ("ht_off_4_2", "ht_on_8_2"):
            assert curves.curves["CG"][cfg][-1] == study.speedup("CG", cfg)
