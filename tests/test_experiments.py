"""Tests for the experiment drivers and registry."""

import pytest

from repro.analysis import findings
from repro.experiments import (
    fig2_single_program,
    fig3_speedup,
    fig4_multiprogram,
    fig5_crossproduct,
    registry,
    sec3_lmbench,
    table2_avg_speedup,
)


# The shared ``study`` fixture lives in tests/conftest.py.


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        ids = set(registry.EXPERIMENTS)
        assert {"sec3-lmbench", "fig2", "fig3", "table2", "fig4",
                "fig5", "ablations"} <= ids

    def test_get_unknown(self):
        with pytest.raises(KeyError, match="available"):
            registry.get("fig9")

    def test_entries_reference_importable_modules(self):
        import importlib

        for entry in registry.EXPERIMENTS.values():
            module = importlib.import_module(entry.module)
            assert hasattr(module, "run"), entry.id
            assert hasattr(module, "report"), entry.id

    def test_every_entry_runs_reports_and_round_trips_json(self):
        """Smoke: ``run_experiment`` succeeds for every registered id, the
        driver's ``report`` renders its result, and the structured result
        survives a JSON round-trip with stable keys."""
        import json

        for entry in registry.EXPERIMENTS.values():
            result = registry.run_experiment(entry.id)
            assert result is not None, entry.id
            text = entry.render_text(result)
            assert isinstance(text, str) and text.strip(), entry.id

            payload = entry.json_payload(result)
            assert payload["experiment"] == entry.id
            assert payload["result"] == result.to_dict(), entry.id
            encoded = json.dumps(payload, indent=2, sort_keys=True)
            decoded = json.loads(encoded)
            assert decoded == json.loads(
                json.dumps(payload, indent=2, sort_keys=True)
            ), entry.id
            assert set(decoded) == {
                "experiment", "paper_artifact", "description",
                "tags", "requires", "result",
            }, entry.id

    def test_entries_carry_metadata(self):
        for entry in registry.EXPERIMENTS.values():
            assert entry.tags, entry.id
            assert entry.cost_estimate > 0, entry.id
            for dep in entry.requires:
                assert dep in registry.EXPERIMENTS, (entry.id, dep)

    def test_execution_waves_order_dependencies(self):
        entries = registry.select(only=["fig3", "table2"])
        waves = registry.execution_waves(entries)
        assert [e.id for e in waves[0]] == ["fig3"]
        assert [e.id for e in waves[1]] == ["table2"]

    def test_execution_waves_ignore_deps_outside_selection(self):
        entries = registry.select(only=["table2"])
        waves = registry.execution_waves(entries)
        assert [[e.id for e in w] for w in waves] == [["table2"]]

    def test_select_by_tag(self):
        ids = {e.id for e in registry.select(only=["platform"])}
        assert ids == {"sec3-lmbench", "omp-overheads"}

    def test_select_unknown_token(self):
        with pytest.raises(KeyError, match="valid"):
            registry.select(only=["not-a-thing"])


class TestSec3Driver:
    def test_report_contains_all_rows(self):
        result = sec3_lmbench.run()
        text = sec3_lmbench.report(result)
        for needle in ("L1 latency", "L2 latency", "memory latency",
                       "read BW", "write BW"):
            assert needle in text

    def test_measured_close_to_paper(self):
        result = sec3_lmbench.run()
        for key in ("l1_ns", "l2_ns", "memory_ns"):
            assert result.plateaus[key] == pytest.approx(
                sec3_lmbench.PAPER_VALUES[key], rel=0.06
            )


class TestFig2Driver:
    def test_all_panels_populated(self, study):
        result = fig2_single_program.run(
            study, benchmarks=["EP", "CG"], configs=["ht_off_2_1"]
        )
        for panel in fig2_single_program.PANELS:
            assert set(result.panels[panel]) == {"EP", "CG"}
            for bench in ("EP", "CG"):
                assert "serial" in result.panels[panel][bench]
                assert "ht_off_2_1" in result.panels[panel][bench]

    def test_report_renders(self, study):
        result = fig2_single_program.run(
            study, benchmarks=["EP"], configs=["ht_off_2_1"]
        )
        text = fig2_single_program.report(result)
        assert "l1_miss_rate" in text and "cpi" in text


class TestFig3Driver:
    def test_table_and_average_row(self, study):
        result = fig3_speedup.run(study)
        text = fig3_speedup.report(result)
        assert "AVERAGE" in text
        assert result.table.get("EP", "ht_off_4_2") > 3.5


class TestTable2Driver:
    def test_seven_architectures(self, study):
        result = table2_avg_speedup.run(study)
        assert len(result.averages) == 7
        text = table2_avg_speedup.report(result)
        assert "CMP-based SMP" in text
        assert "paper: 3.6%" in text

    def test_slowdown_metrics_consistent(self, study):
        result = table2_avg_speedup.run(study)
        assert -1.0 < findings.ht8_slowdown(result.averages) < 1.0
        assert -1.0 < findings.cmt_gap(result.averages) < 1.0


class TestFig4Driver:
    def test_series_labels(self, study):
        result = fig4_multiprogram.run(study, configs=["ht_off_4_2"])
        labels = set(result.panels["cpi"])
        assert "CG (CG/FT)" in labels
        assert "FT (CG/FT)" in labels
        assert "FT/FT" in labels
        assert "CG/CG" in labels

    def test_speedups_for_all_workloads(self, study):
        result = fig4_multiprogram.run(study, configs=["ht_off_4_2"])
        assert set(result.speedups) == {"CG/FT", "FT/FT", "CG/CG"}

    def test_report_renders(self, study):
        result = fig4_multiprogram.run(study, configs=["ht_off_4_2"])
        text = fig4_multiprogram.report(result)
        assert "multiprogrammed speedup" in text


class TestFig5Driver:
    def test_sample_counts(self, study):
        result = fig5_crossproduct.run(
            study, benchmarks=["CG", "FT", "EP"], configs=["ht_off_4_2"]
        )
        # 6 unordered pairs (with replacement) x 2 samples each.
        assert len(result.samples["ht_off_4_2"]) == 12

    def test_report_renders(self, study):
        result = fig5_crossproduct.run(
            study, benchmarks=["CG", "EP"], configs=["ht_off_4_2", "ht_on_8_2"]
        )
        text = fig5_crossproduct.report(result)
        assert "winner tally" in text

    def test_run_experiment_via_registry(self):
        result = registry.run_experiment("sec3-lmbench")
        assert result.plateaus["l1_ns"] > 0
