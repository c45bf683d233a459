"""The BatchPlan layer: mode knob, dedup, prefetch, stats, fallbacks.

:mod:`tests.test_batch_equivalence` pins the *numerics* of the batched
engine; this module pins the *planning* around it — which lanes run
batched, which fall back, what gets deduplicated or served from the run
cache, and how the counters surface in sweeps and the CLI tooling.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.context import RunContext, current, override
from repro.core.runcache import configure, get_cache
from repro.core.study import Study
from repro.machine.registry import default_params
from repro.sim import batch
from repro.sim.sensitivity import PERTURBABLE, perturb_params


@pytest.fixture(autouse=True)
def _cache_off():
    """BatchPlan behavior must not depend on warm cache state."""
    configure(reset=True, enabled=False)
    yield
    configure(reset=True, enabled=True)


class TestModeKnob:
    def test_default_is_auto(self):
        assert batch.get_mode() == "auto"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(batch.BATCH_ENV, "off")
        assert batch.get_mode() == "off"
        monkeypatch.setenv(batch.BATCH_ENV, "bogus")
        assert batch.get_mode() == "auto"  # unknown tokens fall back

    def test_explicit_mode_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(batch.BATCH_ENV, "off")
        with override(batch="on"):
            assert batch.get_mode() == "on"

    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            with override(batch="sideways"):
                pass

    def test_batching_allowed_per_mode(self):
        with override(batch="off"):
            assert not batch.batching_allowed(100)
        with override(batch="on"):
            assert batch.batching_allowed(1)
        with override(batch="auto"):
            assert not batch.batching_allowed(1)  # nothing to amortize
            assert batch.batching_allowed(2)

    def test_context_pushes_mode(self):
        ctx = RunContext(batch="off")
        with ctx.active():
            assert batch.get_mode() == "off"
        with RunContext(batch=None).active():
            assert batch.get_mode() == "auto"

    def test_auditor_forces_scalar(self):
        with override(verify=True):
            assert batch.runtime_forces_scalar()
        with override(verify=False):
            assert not batch.runtime_forces_scalar()


class TestRecordRunKeys:
    def test_records_in_order_and_dedups(self):
        study = Study("B")
        with override(verify=False), batch.record_run_keys() as keys:
            study.run("cg", "serial")
            study.run("cg", "ht_off_4_2")
            study.run("cg", "serial")  # repeat: recorded once
        assert keys == [
            ("single", "CG", "serial"),
            ("single", "CG", "ht_off_4_2"),
        ]
        assert current() is None  # the recorder ended with the block

    def test_preload_is_served_without_compute(self):
        study = Study("B")
        with override(verify=False):
            sentinel = study.engine("serial").run_single(
                study.workload("cg")
            )
        study.preload(("single", "CG", "serial"), sentinel)
        # With the cache disabled, the only way run() can return the
        # sentinel object itself is through the preload slot.
        assert study.run("cg", "serial") is sentinel


class TestPrefetchStudyRuns:
    KEY = ("single", "CG", "ht_off_4_2")

    def _lanes(self, scales=(0.8, 1.25)):
        base = default_params()
        return [
            Study("B", params=perturb_params(base, PERTURBABLE[0][1], s))
            for s in scales
        ]

    def test_prefetches_batched_and_counts(self):
        lanes = self._lanes()
        with override(verify=False, batch="auto") as ctx:
            batch.prefetch_study_runs(lanes, [self.KEY])
        stats = ctx.batch_stats
        assert stats.batched_machines == 2
        assert stats.scalar_fallbacks == 0
        for lane in lanes:
            assert self.KEY in lane._preloaded

    def test_identical_fingerprints_deduplicate(self):
        lanes = self._lanes() + self._lanes((0.8,))  # twin of lane 0
        assert lanes[0].fingerprint == lanes[2].fingerprint
        with override(verify=False, batch="auto") as ctx:
            batch.prefetch_study_runs(lanes, [self.KEY])
        stats = ctx.batch_stats
        assert stats.deduplicated_machines == 1
        assert stats.batched_machines == 2
        # The twin is served the representative's result object.
        assert lanes[2].run("cg", "ht_off_4_2") is \
            lanes[0].run("cg", "ht_off_4_2")

    def test_mode_off_counts_fallbacks_and_runs_nothing(self):
        lanes = self._lanes()
        with override(verify=False, batch="off") as ctx:
            batch.prefetch_study_runs(lanes, [self.KEY])
        assert ctx.batch_stats.scalar_fallbacks == 2
        assert all(not lane._preloaded for lane in lanes)

    def test_auditor_counts_fallbacks_and_runs_nothing(self):
        lanes = self._lanes()
        with override(verify=True, batch="on") as ctx:
            batch.prefetch_study_runs(lanes, [self.KEY])
        assert ctx.batch_stats.scalar_fallbacks == 2
        assert all(not lane._preloaded for lane in lanes)

    def test_pair_keys_fall_back(self):
        lanes = self._lanes()
        with override(verify=False, batch="auto") as ctx:
            batch.prefetch_study_runs(
                lanes, [("pair", "CG", "SP", "ht_off_4_2")]
            )
        stats = ctx.batch_stats
        assert stats.batched_machines == 0
        assert stats.scalar_fallbacks == 2

    def test_cached_keys_are_skipped(self):
        configure(reset=True, enabled=True)
        lanes = self._lanes()
        with override(verify=False):
            for lane in lanes:  # warm the cache scalar
                lane.run("cg", "ht_off_4_2")
            with override(batch="auto") as ctx:
                batch.prefetch_study_runs(lanes, [self.KEY])
        stats = ctx.batch_stats
        assert stats.batched_machines == 0  # nothing left to run
        assert all(not lane._preloaded for lane in lanes)
        assert not get_cache().is_miss(
            get_cache().get(lanes[0].fingerprint, self.KEY)
        )

    def test_stats_reset_on_take(self):
        with override() as ctx:
            batch.note_batched(2)
            batch.note_scalar_fallback()
            batch.note_deduplicated(3)
        stats = ctx.batch_stats
        assert stats.as_dict() == {
            "batched_machines": 2,
            "scalar_fallbacks": 1,
            "deduplicated_machines": 3,
        }
        # The next task (the pipeline's next experiment) starts at zero.
        assert ctx.for_task("next").batch_stats.as_dict() == {
            "batched_machines": 0,
            "scalar_fallbacks": 0,
            "deduplicated_machines": 0,
        }


class TestBenchCompareSpeedup:
    """The --speedup assertion mode of tools/bench_compare.py."""

    @pytest.fixture(scope="class")
    def bench_compare(self):
        tools = Path(__file__).resolve().parent.parent / "tools"
        spec = importlib.util.spec_from_file_location(
            "bench_compare", tools / "bench_compare.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_compare"] = module
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"benchmarks": [
            {"name": "sweep[scalar]", "stats": {"median": 6.0}},
            {"name": "sweep[batched]", "stats": {"median": 1.5}},
        ]}))
        return path

    def test_passes_above_threshold(self, bench_compare, report):
        assert bench_compare.main([
            "--speedup", str(report), "sweep[scalar]", "sweep[batched]",
            "--threshold", "3.0",
        ]) == 0

    def test_fails_below_threshold(self, bench_compare, report):
        assert bench_compare.main([
            "--speedup", str(report), "sweep[scalar]", "sweep[batched]",
            "--threshold", "5.0",
        ]) == 1

    def test_missing_benchmark_fails(self, bench_compare, report):
        assert bench_compare.main([
            "--speedup", str(report), "sweep[scalar]", "nope",
        ]) == 1

    def test_pairwise_mode_unchanged(self, bench_compare, report):
        assert bench_compare.main([str(report), str(report)]) == 0
