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

