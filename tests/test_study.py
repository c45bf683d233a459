"""Tests for the Study facade."""

import pytest

from repro.core.study import Study
from repro.npb.common import ProblemClass


@pytest.fixture(scope="module")
def study():
    return Study("B")


class TestStudy:
    def test_class_resolution(self):
        assert Study("a").problem_class is ProblemClass.A
        assert Study(ProblemClass.W).problem_class is ProblemClass.W

    def test_workload_memoized(self, study):
        assert study.workload("CG") is study.workload("cg")

    def test_run_memoized(self, study):
        r1 = study.run("EP", "serial")
        r2 = study.run("EP", "serial")
        assert r1 is r2

    def test_speedup_positive(self, study):
        assert study.speedup("EP", "ht_off_4_2") > 1.0

    def test_pair_speedups(self, study):
        sa, sb = study.pair_speedups("CG", "FT", "ht_off_4_2")
        assert sa > 0 and sb > 0

    def test_speedup_table_shape(self, study):
        t = study.speedup_table(benchmarks=["EP", "CG"],
                                configs=["ht_off_2_1", "ht_off_4_2"])
        assert t.benchmarks == ["CG", "EP"]
        assert set(t.configs) == {"ht_off_2_1", "ht_off_4_2"}

    def test_paper_lists(self):
        assert len(Study.paper_configs()) == 7
        assert Study.paper_benchmarks() == ["CG", "MG", "SP", "FT", "LU", "EP"]

    def test_serial_runtime_matches_run(self, study):
        assert study.serial_runtime("EP") == study.run(
            "EP", "serial"
        ).runtime_seconds

    def test_scheduler_choice_respected(self):
        s = Study("B", scheduler="gang")
        assert s.engine("ht_on_8_2").scheduler.name == "gang"


class TestSpeedupTableMemo:
    """The speedup table is one run-cache entry under the study's
    fingerprint, so a warm reader loads 42 floats instead of the 48
    runs behind them."""

    CFGS = ["ht_off_2_1", "ht_off_4_2"]

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        from repro.core import runcache

        cache = runcache.RunCache(disk_dir=tmp_path / "cache")
        monkeypatch.setattr(runcache, "_global_cache", cache)
        return cache

    def test_default_key_is_pinned(self):
        from repro.core.runcache import RunCache

        s = Study("B")
        key = s.speedup_table_key()
        assert key == (
            "speedup_table",
            (("CG", "CG"), ("MG", "MG"), ("SP", "SP"),
             ("FT", "FT"), ("LU", "LU"), ("EP", "EP")),
            ("ht_on_2_1", "ht_off_2_1", "ht_on_4_1", "ht_off_2_2",
             "ht_on_4_2", "ht_off_4_2", "ht_on_8_2"),
        )
        assert s.speedup_table_key(
            Study.paper_benchmarks(), Study.paper_configs()
        ) == key
        assert RunCache()._entry_key(s.fingerprint, key) == (
            "735bd1c02c34a4c5bed3673cd9050ae93a4ff0349b752f7748b65ecd49c6e4cb"
        )

    def test_warm_table_is_one_disk_read(self, cache, monkeypatch):
        from repro.sim.engine import Engine

        s = Study("S")
        cold = s.speedup_table()
        cache.clear()  # a new process: empty memory tier
        calls = []

        def counting(owner):
            original = owner.run

            def run(*args, **kwargs):
                calls.append(owner.__name__)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, "run", run)

        counting(Study)
        counting(Engine)
        before = cache.stats.snapshot()
        warm = Study("S").speedup_table()
        delta = cache.stats.since(before)
        assert calls == []
        assert (delta.disk_hits, delta.memory_hits, delta.misses) == (1, 0, 0)
        assert warm == cold and warm is not cold

    def test_axes_get_their_own_entries(self, cache):
        s = Study("S")
        tables = {
            (benches, cfgs): s.speedup_table(list(benches), list(cfgs))
            for benches, cfgs in [
                (("CG", "EP"), tuple(self.CFGS)),
                (("EP", "CG"), tuple(self.CFGS)),
                (("cg", "EP"), tuple(self.CFGS)),
                (("CG", "EP"), tuple(reversed(self.CFGS))),
                (("CG", "EP"), ("ht_off_2_1",)),
            ]
        }
        keys = {s.speedup_table_key(list(b), list(c)) for b, c in tables}
        assert len(keys) == len(tables)
        for (benches, cfgs), table in tables.items():
            assert list(table.values) == list(benches)
            assert table.configs == list(cfgs)
        assert tables[(("cg", "EP"), tuple(self.CFGS))].get(
            "cg", "ht_off_4_2"
        ) == s.speedup("CG", "ht_off_4_2")

    def test_spec_edit_recomputes_the_table(
        self, cache, monkeypatch, tmp_path
    ):
        import json
        import os

        spec = tmp_path / "specs" / "mytriad.json"
        spec.parent.mkdir()
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(spec.parent))

        def write(scale):
            spec.write_text(json.dumps({
                "schema": 1, "name": "mytriad", "base": "triad",
                "workload": {"scale": scale},
            }))
            # Force a visible mtime change even on coarse filesystems.
            st = spec.stat()
            os.utime(spec, ns=(st.st_atime_ns, st.st_mtime_ns + 10**6))

        write(0.5)
        before = Study("B")
        table = before.speedup_table(["mytriad"], self.CFGS)
        write(0.25)
        after = Study("B")
        assert after.speedup_table_key(["mytriad"], self.CFGS) != (
            before.speedup_table_key(["mytriad"], self.CFGS)
        )
        misses = cache.stats.misses
        assert after.speedup_table(["mytriad"], self.CFGS) != table
        assert cache.stats.misses > misses

    def test_pipeline_consumers_leave_the_shared_table_intact(self, cache):
        from repro.analysis.speedup import speedup_table
        from repro.core.context import RunContext
        from repro.experiments import pipeline

        ctx = RunContext(jobs=1)
        result = pipeline.run_pipeline(ctx, only=["fig3", "table2"])
        assert result.ok
        s = ctx.study()
        assert result.records["fig3"].result.table is s.speedup_table()
        benches = Study.paper_benchmarks()
        fresh = speedup_table(
            {b: s.serial_runtime(b) for b in benches},
            {
                b: {c: s.run(b, c).runtime_seconds
                    for c in Study.paper_configs()}
                for b in benches
            },
        )
        assert s.speedup_table() == fresh


class TestRunKeys:
    """Run-cache addresses.  Disk entries written by earlier versions
    and the serve daemon's dedup keys depend on these exact values, so
    the default-argument forms are pinned byte for byte."""

    def test_default_fingerprints_and_keys_are_pinned(self):
        from repro.core.context import RunContext
        from repro.core.runcache import RunCache
        from repro.openmp.env import OMPEnvironment, ScheduleKind

        s = Study("B")
        assert s.fingerprint == (
            "6cc690b131892ee1c83fce6e579617962c356dceeac9565a2b1d27f5924418a2"
        )
        numa = RunContext(machine="cascadelake-2s-numa").study()
        assert numa.fingerprint == (
            "6076f979bba69a0af1ab0cd6daa899ffcdcdcc604e8d03fd4ee7fd7dca34fb78"
        )
        variant = Study(
            "S", scheduler="gang",
            omp=OMPEnvironment(schedule=ScheduleKind.GUIDED),
        )
        assert variant.fingerprint == (
            "44e24eac2dcff64128e2fff907120c7a63f3dfe752bfcc161e813a7ffa73dac1"
        )
        key = s.run_key("cg", "ht_on_4_1")
        assert key == ("single", "CG", "ht_on_4_1")
        entry = RunCache()._entry_key
        assert entry(s.fingerprint, key) == (
            "811a29415d87e75875f67801f56b7cae7f129e3a54a3e551876ddb99dce33a94"
        )
        assert entry(s.fingerprint, ("pair", "CG", "FT", "ht_on_8_2")) == (
            "18257046a7d7f3cecbf5619ed379cc7783b8104e4e7dc162b7f11d82715c2ff6"
        )

    def test_pair_default_key(self, monkeypatch):
        from repro.core import runcache

        cache = runcache.RunCache()
        monkeypatch.setattr(runcache, "_global_cache", cache)
        s = Study("S")
        r = s.run_pair("cg", "ft", "ht_off_2_1")
        key = ("pair", "CG", "FT", "ht_off_2_1")
        assert cache.get(s.fingerprint, key) is r

    def test_own_thread_count_keeps_the_default_key(self, study):
        assert study.run_key("CG", "ht_off_4_2", n_threads=4) == (
            "single", "CG", "ht_off_4_2"
        )
        assert study.run("CG", "ht_off_4_2", n_threads=4) is study.run(
            "CG", "ht_off_4_2"
        )

    def test_fixed_omp_thread_count_keeps_the_default_key(self):
        from repro.openmp.env import OMPEnvironment

        s = Study("B", omp=OMPEnvironment(num_threads=2))
        assert s.run_key("CG", "ht_off_4_2", n_threads=3) == (
            "single", "CG", "ht_off_4_2"
        )

    def test_variant_keys(self, study):
        assert study.run_key("CG", "ht_off_4_2", n_threads=2) == (
            "single", "CG", "ht_off_4_2", ("threads", 2)
        )
        assert study.run_key("CG", "ht_on_8_2", n_threads=2, scale=0.5) == (
            "single", "CG", "ht_on_8_2", ("threads", 2), ("scale", 0.5)
        )

    def test_variant_runs_equal_direct_engine_runs(self, study):
        wl = study.workload("CG")
        engine = study.engine("ht_on_8_2")
        assert study.run("CG", "ht_on_8_2", n_threads=2).runtime_seconds == (
            engine.run_single(wl, n_threads=2).runtime_seconds
        )
        assert study.run("CG", "ht_on_8_2", scale=0.02).runtime_seconds == (
            engine.run_single(wl.scaled(0.02)).runtime_seconds
        )
        ft = study.workload("FT")
        pair = study.run_pair("CG", "FT", "ht_on_8_2", scale=0.02)
        assert pair.runtime_seconds == engine.run_pair(
            wl.scaled(0.02), ft.scaled(0.02)
        ).runtime_seconds

