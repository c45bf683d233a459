"""Tests for the RunContext and the dependency-aware run-all pipeline."""

import json

import pytest

from repro.core.context import RunContext, as_context
from repro.core.runcache import CacheStats, get_cache
from repro.core.study import Study
from repro.experiments.pipeline import (
    MANIFEST_SCHEMA,
    run_pipeline,
    write_artifacts,
)


class TestRunContext:
    def test_default_study_memoized(self):
        ctx = RunContext()
        assert ctx.study() is ctx.study()

    def test_override_builds_distinct_study(self):
        ctx = RunContext()
        base = ctx.study()
        variant = ctx.study(problem_class="A")
        assert variant is not base
        assert variant is ctx.study(problem_class="A")
        assert len(ctx.fingerprints) == 2

    def test_for_study_returns_same_instance(self):
        study = Study("B")
        ctx = as_context(study)
        assert ctx.study() is study

    def test_as_context_coercions(self):
        assert isinstance(as_context(None), RunContext)
        ctx = RunContext()
        assert as_context(ctx) is ctx
        with pytest.raises(TypeError):
            as_context(42)

    def test_dependency_lookup(self):
        ctx = RunContext()
        ctx.results["fig3"] = "sentinel"
        assert ctx.dependency("fig3") == "sentinel"
        with pytest.raises(KeyError, match="available"):
            ctx.dependency("fig2")

    def test_touched_fingerprints_reset(self):
        ctx = RunContext()
        ctx.study()
        assert ctx.touched_fingerprints(reset=True)
        assert ctx.touched_fingerprints() == []
        # The memo pool survives the reset.
        assert ctx.fingerprints

    def test_spawn_carries_studies_and_trims_jobs(self):
        ctx = RunContext(jobs=4)
        base = ctx.study()
        worker = ctx.spawn(jobs=1)
        assert worker.jobs == 1
        assert worker.study() is base
        # Worker results are an independent dict.
        worker.results["x"] = 1
        assert "x" not in ctx.results

    def test_machine_params_default(self):
        from repro.machine.params import paxville_params

        assert RunContext().machine_params() == paxville_params()


class TestCacheStats:
    def test_since_and_as_dict(self):
        before = CacheStats(memory_hits=2, disk_hits=1, misses=3)
        after = CacheStats(memory_hits=5, disk_hits=1, misses=4)
        delta = after.since(before)
        d = delta.as_dict()
        assert d["memory_hits"] == 3
        assert d["hits"] == 3
        assert d["misses"] == 1
        assert d["lookups"] == 4
        assert d["hit_rate"] == pytest.approx(0.75)

    def test_empty_hit_rate(self):
        assert CacheStats().as_dict()["hit_rate"] == 0.0


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return run_pipeline(RunContext(), only=["fig3", "table2"])

    def test_dependency_consumed_not_recomputed(self, pipeline):
        rec3 = pipeline.records["fig3"]
        rec2 = pipeline.records["table2"]
        assert rec3.wave == 0 and rec2.wave == 1
        # table2 consumed fig3's table from ctx.results: no simulator
        # runs (cache lookups) of its own.
        assert rec2.cache["lookups"] == 0
        assert rec2.result.averages

    def test_records_expose_measurements(self, pipeline):
        for rec in pipeline.records.values():
            assert rec.wall_time_s >= 0
            assert rec.text.strip()
            assert isinstance(rec.study_fingerprints, list)

    def test_manifest_shape(self, pipeline):
        m = pipeline.manifest
        assert m["schema"] == MANIFEST_SCHEMA
        assert "batch_mode" not in m
        assert m["status"] == "complete"
        assert m["failures"] == {} and m["skipped"] == {}
        assert m["parallel_fallbacks"] == []
        assert m["problem_class"] == "B"
        assert m["package_version"]
        assert set(m["experiments"]) == {"fig3", "table2"}
        entry = m["experiments"]["table2"]
        assert entry["requires"] == ["fig3"]
        assert "batch" not in entry
        assert entry["artifacts"] == {
            "text": "table2.txt", "json": "table2.json"
        }
        assert m["total_wall_time_s"] >= 0
        assert "totals" in m["cache"]

    def test_write_artifacts(self, pipeline, tmp_path):
        written = write_artifacts(pipeline, tmp_path)
        names = {p.name for p in written}
        assert names == {"fig3.txt", "fig3.json", "table2.txt",
                         "table2.json", "manifest.json"}
        payload = json.loads((tmp_path / "fig3.json").read_text())
        assert payload["experiment"] == "fig3"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == pipeline.manifest

    def test_parallel_matches_serial(self):
        serial = run_pipeline(
            RunContext(), only=["sec3-lmbench", "omp-overheads"]
        )
        parallel = run_pipeline(
            RunContext(jobs=2), only=["sec3-lmbench", "omp-overheads"]
        )
        for rid in serial.records:
            assert serial.records[rid].text == parallel.records[rid].text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_totals_sum_the_rows(self, jobs):
        """Under ``jobs=2`` the rows count the pool workers' lookups,
        which this process's cache never sees; the totals still add up."""
        m = run_pipeline(
            RunContext(problem_class="S", jobs=jobs),
            only=["fig2", "fig3", "table2"],
        ).manifest
        rows = [e["cache"] for e in m["experiments"].values()]
        totals = m["cache"]["totals"]
        assert totals["lookups"] > 0
        for key in CacheStats().as_dict():
            if key != "hit_rate":
                assert totals[key] == sum(r[key] for r in rows), key

    def test_disk_cache_dir_applied(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cache")
        run_pipeline(ctx, only=["omp-overheads"])
        assert get_cache().disk_dir == tmp_path / "cache"
