"""Tests for the parameter-sensitivity framework."""

import pytest

from repro.analysis.findings import F1, F2, Finding
from repro.core.context import RunContext
from repro.core.study import Study
from repro.experiments import sensitivity_study
from repro.experiments.sensitivity_study import PERTURBABLE, SensitivityRow, sweep_many
from repro.machine.params import paxville_params
from repro.machine.spec import SpecError, SpecOverride


class TestPerturbParams:
    def test_top_level_field(self):
        base = paxville_params()
        p = SpecOverride.scaled("memory_latency_ns", 2.0).apply_params(base)
        assert p.memory_latency_ns == pytest.approx(
            base.memory_latency_ns * 2
        )
        assert base.memory_latency_ns == pytest.approx(136.9)  # untouched

    def test_nested_field(self):
        base = paxville_params()
        p = SpecOverride.scaled("bus.chip_read_bw", 0.5).apply_params(base)
        assert p.bus.chip_read_bw == pytest.approx(base.bus.chip_read_bw / 2)
        # Sibling fields intact.
        assert p.bus.chip_write_bw == base.bus.chip_write_bw

    def test_all_registered_paths_resolve(self):
        base = paxville_params()
        for path in PERTURBABLE:
            SpecOverride.scaled(path, 1.1).apply_params(base)

    def test_unsupported_path(self):
        with pytest.raises(SpecError):
            SpecOverride.scaled("a.b.c", 1.0).apply_params(paxville_params())


class TestSensitivityRow:
    def test_elasticity(self):
        r = SensitivityRow(
            parameter="x", scale=1.25, metric_value=11.0,
            baseline_value=10.0, finding_holds=True,
        )
        assert r.metric_change == pytest.approx(0.1)
        assert r.elasticity == pytest.approx(0.4)

    def test_zero_baseline(self):
        r = SensitivityRow("x", 1.25, 1.0, 0.0, True)
        assert r.metric_change == 0.0


class TestSweep:
    @pytest.fixture(scope="class")
    def result(self):
        # One cheap parameter, one benchmark metric.
        def ep(table):
            return table.get("EP", "ht_off_4_2")

        (result,) = sweep_many(
            [Finding("EP", "EP > 3x", "EP speedup", ep, lambda t: ep(t) > 3)],
            Study(), scales=(0.8, 1.25), parameters=["memory_latency_ns"],
        )
        return result

    def test_rows_per_scale(self, result):
        assert len(result.rows) == 2
        assert {r.parameter for r in result.rows} == {"memory_latency_ns"}

    def test_ep_insensitive_to_memory_latency(self, result):
        """EP never touches memory: its speedup barely moves."""
        for r in result.rows:
            assert abs(r.metric_change) < 0.02
            assert r.finding_holds
        assert result.fragile_parameters() == []

    def test_max_elasticity_names_the_parameter(self, result):
        name, _ = result.max_elasticity()
        assert name == "memory_latency_ns"

    def test_memory_bound_metric_is_sensitive(self):
        def cg_cpi(study):
            return study.run("CG", "serial").metrics(0).cpi

        base = paxville_params()
        slow = SpecOverride.scaled("memory_latency_ns", 1.5).apply_params(base)
        # 50% more DRAM latency must raise CG's CPI noticeably.
        assert cg_cpi(Study(params=slow)) / cg_cpi(Study()) - 1 > 0.10


def test_uncached_sweep_builds_each_table_once(uncached_engine_runs):
    """Without the cache every sweep point (the baseline and two
    perturbations) simulates its 48-run speedup table exactly once."""
    sweep_many([F1, F2], Study("S"), parameters=PERTURBABLE[:1], jobs=1)
    assert len(uncached_engine_runs) == 3 * 48


def test_sweep_follows_the_machine(monkeypatch):
    """The sweep perturbs the context's machine: its baseline is that
    machine's table, and the perturbed studies stay out of the
    context's study fingerprints."""
    monkeypatch.setattr(sensitivity_study, "PERTURBABLE", PERTURBABLE[:1])

    def sweep(machine):
        ctx = RunContext(machine=machine, jobs=1)
        result = sensitivity_study.run(ctx, problem_class="S")
        return ctx, result

    ctx, fast = sweep("paxville-fast-bus")
    _, stock = sweep(None)
    table = ctx.study(problem_class="S").speedup_table()
    assert fast.f1.baseline == table.get("SP", "ht_on_8_2")
    assert fast.f2.baseline == table.column_average("ht_off_4_2")
    assert (fast.f1.baseline, fast.f2.baseline) != (
        stock.f1.baseline, stock.f2.baseline
    )
    assert [r.metric_value for r in fast.f1.rows] != [
        r.metric_value for r in stock.f1.rows
    ]
    assert ctx.fingerprints == [ctx.study(problem_class="S").fingerprint]
