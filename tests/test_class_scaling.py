"""Tests for the problem-class scaling extension study."""

import pytest

from repro.core.runcache import get_cache
from repro.experiments import class_scaling
from repro.machine.configurations import Architecture


@pytest.fixture(scope="module")
def result():
    return class_scaling.run(classes=("W", "B"))


class TestClassScaling:
    def test_covers_requested_classes(self, result):
        assert result.classes == ["W", "B"]
        assert set(result.averages) == {"W", "B"}

    def test_smaller_class_scales_better(self, result):
        """Class W fits caches: every architecture speeds up more."""
        for arch in (Architecture.CMP_BASED_SMP, Architecture.CMT):
            assert result.averages["W"][arch] > result.averages["B"][arch]

    def test_ht8_penalty_grows_with_class(self, result):
        """Bandwidth saturation deepens with the working set, making HT
        on both chips progressively less attractive."""
        assert result.ht8_slowdown["W"] < result.ht8_slowdown["B"]

    def test_sp_wins_at_class_b(self, result):
        assert result.ht8_winners["B"] == ["SP"]

    def test_report_renders(self, result):
        text = class_scaling.report(result)
        assert "Problem-class scaling" in text
        assert "HTon-8-2 slowdown %" in text


def test_uncached_class_builds_its_table_once(uncached_engine_runs):
    """Without the cache one class simulates its 48-run speedup table
    once: the Table-2 averages, slowdown and winners all read it."""
    uncached = class_scaling.run(classes=("S",), jobs=1)
    assert len(uncached_engine_runs) == 48
    get_cache().enabled = True  # the fixture restores it at teardown
    assert class_scaling.run(classes=("S",), jobs=1) == uncached
