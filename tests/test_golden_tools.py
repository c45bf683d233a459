"""Tests for the golden-diff tooling (``tools/golden_diff.py`` and
``tools/refresh_goldens.py``) and the benchmark gate
(``tools/bench_compare.py``).

The text-alignment logic is exercised directly on synthetic renders;
the refresh round-trip runs against a temporary golden directory with
the (expensive) artifact renderer stubbed out.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, TOOLS_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # refresh_goldens resolves ``import golden_diff`` through sys.path;
    # registering the module keeps both loads pointing at one instance.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


golden_diff = _load("golden_diff")
refresh_goldens = _load("refresh_goldens")
bench_compare = _load("bench_compare")

GOLDEN = """Table X: demo
== cpi ==
bench  serial  parallel
-----  ------  --------
   CG   4.740     2.210
   EP   1.130     1.130
"""


class TestDiffText:
    def test_identical_text_is_clean(self):
        diff = golden_diff.diff_text("demo", GOLDEN, GOLDEN)
        assert diff.clean
        assert diff.metric_diffs == [] and diff.structural_changes == []

    def test_numeric_drift_reported_per_metric(self):
        fresh = GOLDEN.replace("2.210", "2.300").replace("1.130", "1.140", 1)
        diff = golden_diff.diff_text("demo", GOLDEN, fresh)
        assert not diff.clean
        assert diff.structural_changes == []
        assert len(diff.metric_diffs) == 2
        cg = next(d for d in diff.metric_diffs if d.row == "CG")
        assert cg.section == "cpi"
        assert cg.old == 2.210 and cg.new == 2.300
        assert cg.column == 2
        assert cg.rel_delta == pytest.approx(0.0407, abs=1e-3)
        assert "cpi" in cg.format() and "CG" in cg.format()

    def test_wording_change_is_structural(self):
        fresh = GOLDEN.replace("Table X", "Table Y")
        diff = golden_diff.diff_text("demo", GOLDEN, fresh)
        assert diff.metric_diffs == []
        assert len(diff.structural_changes) == 1
        assert "Table X" in diff.structural_changes[0]

    def test_added_line_is_structural(self):
        diff = golden_diff.diff_text("demo", GOLDEN, GOLDEN + "extra\n")
        assert not diff.clean
        assert any("line count" in c for c in diff.structural_changes)

    def test_zero_to_nonzero_has_infinite_delta(self):
        diff = golden_diff.diff_text(
            "demo", "x 0.000\n", "x 0.125\n"
        )
        [md] = diff.metric_diffs
        assert md.rel_delta == float("inf")
        assert "new" in md.format()


class TestAgainstGoldens:
    def test_unknown_id_raises(self, tmp_path):
        with pytest.raises(KeyError, match="valid ids"):
            golden_diff.diff_against_goldens(tmp_path, ["bogus"])

    def test_refresh_round_trip(self, tmp_path, monkeypatch):
        fresh = GOLDEN.replace("2.210", "2.300")
        monkeypatch.setattr(golden_diff, "GOLDEN_IDS", ["demo"])
        monkeypatch.setattr(golden_diff, "render", lambda _id: fresh)
        (tmp_path / "demo.txt").write_text(GOLDEN)

        diffs = golden_diff.diff_against_goldens(tmp_path, ["demo"])
        assert not diffs["demo"].clean
        assert golden_diff.report(diffs) == 1

        assert refresh_goldens.refresh(tmp_path, ["demo"]) == 1
        assert (tmp_path / "demo.txt").read_text() == fresh
        # Second refresh is a no-op: the golden now matches.
        assert refresh_goldens.refresh(tmp_path, ["demo"]) == 0
        after = golden_diff.diff_against_goldens(tmp_path, ["demo"])
        assert after["demo"].clean and golden_diff.report(after) == 0


class TestBenchCompare:
    def test_identical_reports_pass(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"benchmarks": [
            {"name": "sweep", "stats": {"median": 6.0}},
            {"name": "run", "stats": {"median": 1.5}},
        ]}))
        assert bench_compare.main([str(report), str(report)]) == 0
