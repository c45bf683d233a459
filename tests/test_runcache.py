"""Tests for the cross-study content-addressed run cache."""

import pickle

import pytest

from repro.core import runcache
from repro.core.context import override
from repro.core.runcache import (
    QUARANTINE_DIR,
    RunCache,
    configure,
    get_cache,
    study_fingerprint,
)
from repro.core.study import Study
from repro.machine.params import paxville_params
from repro.openmp.env import OMPEnvironment
from repro.testing.faults import FaultPlan


class _Payload:
    """A picklable value class tests can make 'disappear' to simulate a
    class-layout refactor between package versions."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Payload) and other.value == self.value


@pytest.fixture(autouse=True)
def fresh_global_cache(monkeypatch):
    """Each test gets a pristine global cache driven by a clean env."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    configure(reset=True)
    yield
    configure(reset=True)


class TestFingerprint:
    def test_stable_across_equal_configurations(self):
        p1, p2 = paxville_params(), paxville_params()
        assert p1 is not p2
        assert study_fingerprint("B", p1, "linux_cfs", None) == \
            study_fingerprint("B", p2, "linux_cfs", None)

    def test_sensitive_to_each_component(self):
        base = study_fingerprint("B", None, "linux_cfs", None)
        assert study_fingerprint("A", None, "linux_cfs", None) != base
        assert study_fingerprint("B", None, "other", None) != base
        assert study_fingerprint(
            "B", None, "linux_cfs", OMPEnvironment(num_threads=4)
        ) != base
        assert study_fingerprint(
            "B", paxville_params(), "linux_cfs", None
        ) != base


class TestRunCache:
    def test_memory_tier_round_trip(self):
        cache = RunCache()
        assert cache.is_miss(cache.get("fp", ("single", "CG")))
        cache.put("fp", ("single", "CG"), {"v": 1})
        assert cache.get("fp", ("single", "CG")) == {"v": 1}
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_cached_none_is_not_a_miss(self):
        cache = RunCache()
        cache.put("fp", ("k",), None)
        assert not cache.is_miss(cache.get("fp", ("k",)))

    def test_disabled_cache_never_stores(self):
        cache = RunCache(enabled=False)
        cache.put("fp", ("k",), 42)
        assert cache.is_miss(cache.get("fp", ("k",)))
        assert len(cache) == 0

    def test_disk_tier_round_trip(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path / "c")
        writer.put("fp", ("k",), [1, 2, 3])
        assert len(list((tmp_path / "c").glob("*.pkl"))) == 1
        reader = RunCache(disk_dir=tmp_path / "c")
        assert reader.get("fp", ("k",)) == [1, 2, 3]
        assert reader.stats.disk_hits == 1

    def test_put_makes_the_directory_only_when_it_is_missing(
        self, tmp_path, monkeypatch
    ):
        """The first put makes the directory; later puts do not touch
        it, and a put after the directory was removed makes it again."""
        made = []
        mkdir = type(tmp_path).mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(type(tmp_path), "mkdir", counting_mkdir)
        directory = tmp_path / "c"
        cache = RunCache(disk_dir=directory)
        for i in range(3):
            cache.put("fp", (i,), i)
        assert made == [directory]
        for entry in directory.iterdir():
            entry.unlink()
        directory.rmdir()
        cache.put("fp", ("again",), "value")
        assert made == [directory, directory]
        assert RunCache(disk_dir=directory).get("fp", ("again",)) == "value"
        assert len(list(directory.glob("*.pkl"))) == 1

    def test_bounded_memory_tier_drops_least_recently_used(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path, max_memory_entries=2)
        cache.put("fp", ("a",), "A")
        cache.put("fp", ("b",), "B")
        assert cache.get("fp", ("a",)) == "A"  # b is now the oldest
        cache.put("fp", ("c",), "C")
        assert len(cache) == 2
        assert cache.get("fp", ("c",)) == "C"
        assert cache.stats.disk_hits == 0
        # b left memory only: the disk tier still answers it.
        assert cache.get("fp", ("b",)) == "B"
        assert cache.stats.disk_hits == 1
        assert len(cache) == 2

    def test_torn_disk_entry_is_a_miss(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path)
        writer.put("fp", ("k",), "value")
        (path,) = tmp_path.glob("*.pkl")
        path.write_bytes(b"\x80")  # truncated pickle
        reader = RunCache(disk_dir=tmp_path)
        assert reader.is_miss(reader.get("fp", ("k",)))


class TestDiskIntegrity:
    def _one_entry(self, tmp_path, value="value"):
        writer = RunCache(disk_dir=tmp_path)
        writer.put("fp", ("k",), value)
        (path,) = tmp_path.glob("*.pkl")
        return path

    def _read(self, tmp_path):
        reader = RunCache(disk_dir=tmp_path)
        return reader, reader.get("fp", ("k",))

    def assert_quarantined(self, tmp_path, path, reader):
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIR / path.name).exists()
        assert reader.stats.quarantined == 1
        assert reader.stats.as_dict()["quarantined"] == 1

    def test_corrupt_entry_quarantined_not_served(self, tmp_path):
        path = self._one_entry(tmp_path)
        path.write_bytes(b"\x00garbage that is not a pickle")
        reader, value = self._read(tmp_path)
        assert reader.is_miss(value)
        self.assert_quarantined(tmp_path, path, reader)

    def test_legacy_raw_pickle_entry_quarantined(self, tmp_path):
        """Pre-envelope entries (plain pickled values) are stale by
        definition: quarantined, never deserialized."""
        path = self._one_entry(tmp_path)
        path.write_bytes(pickle.dumps({"v": 1}))
        reader, value = self._read(tmp_path)
        assert reader.is_miss(value)
        self.assert_quarantined(tmp_path, path, reader)

    def test_package_version_mismatch_quarantined(self, tmp_path, monkeypatch):
        path = self._one_entry(tmp_path)
        monkeypatch.setattr(
            runcache, "_package_version", lambda: "999.0.0"
        )
        reader, value = self._read(tmp_path)
        assert reader.is_miss(value)
        self.assert_quarantined(tmp_path, path, reader)

    def test_entry_schema_mismatch_quarantined(self, tmp_path, monkeypatch):
        path = self._one_entry(tmp_path)
        monkeypatch.setattr(runcache, "CACHE_ENTRY_SCHEMA", 999)
        reader, value = self._read(tmp_path)
        assert reader.is_miss(value)
        self.assert_quarantined(tmp_path, path, reader)

    def test_payload_bitrot_fails_checksum(self, tmp_path):
        path = self._one_entry(tmp_path, value="A" * 256)
        raw = bytearray(path.read_bytes())
        # Flip one bit inside the payload region (the long A-run).
        raw[raw.find(b"AAAA") + 2] ^= 0x01
        path.write_bytes(bytes(raw))
        reader, value = self._read(tmp_path)
        assert reader.is_miss(value)
        self.assert_quarantined(tmp_path, path, reader)

    def test_stale_class_layout_regression(self, tmp_path, monkeypatch):
        """Regression: unpickling an entry whose class no longer exists
        raised AttributeError straight through ``get`` — a warm cache
        crashed run-all after any refactor.  Now it quarantines."""
        import tests.test_runcache as this_module

        path = self._one_entry(tmp_path, value=_Payload(7))
        # Same package version, but the class was refactored away.
        monkeypatch.delattr(this_module, "_Payload")
        reader, value = self._read(tmp_path)
        assert reader.is_miss(value)
        self.assert_quarantined(tmp_path, path, reader)

    def test_valid_entry_round_trips_with_zero_quarantine(self, tmp_path):
        self._one_entry(tmp_path, value=_Payload(7))
        reader, value = self._read(tmp_path)
        assert value == _Payload(7)
        assert reader.stats.quarantined == 0
        assert reader.stats.disk_hits == 1

    def test_quarantined_entry_not_retried(self, tmp_path):
        path = self._one_entry(tmp_path)
        path.write_bytes(b"garbage")
        reader = RunCache(disk_dir=tmp_path)
        assert reader.is_miss(reader.get("fp", ("k",)))
        assert reader.is_miss(reader.get("fp", ("k",)))
        assert reader.stats.quarantined == 1  # moved aside exactly once


class TestInjectedCacheFaults:
    def test_read_oserror_degrades_to_miss(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path)
        writer.put("fp", ("k",), 42)
        reader = RunCache(disk_dir=tmp_path)
        with override(faults=FaultPlan(cache_read_oserror=True)):
            assert reader.is_miss(reader.get("fp", ("k",)))
        # Entry left intact (the failure was IO, not content).
        assert reader.stats.quarantined == 0
        assert reader.get("fp", ("k",)) == 42

    def test_write_oserror_degrades_to_memory_only(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        with override(faults=FaultPlan(cache_write_oserror=True)):
            cache.put("fp", ("k",), 42)
        assert not list(tmp_path.glob("*.pkl"))
        assert cache.get("fp", ("k",)) == 42  # memory tier still serves

    def test_injected_corruption_is_quarantined(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path)
        writer.put("fp", ("k",), 42)
        reader = RunCache(disk_dir=tmp_path)
        with override(faults=FaultPlan(corrupt_cache_reads=1)):
            assert reader.is_miss(reader.get("fp", ("k",)))
        assert reader.stats.quarantined == 1
        assert list((tmp_path / QUARANTINE_DIR).iterdir())

    def test_clear(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cache.put("fp", ("k",), 1)
        cache.clear(memory=True, disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.pkl"))


class TestEnvironmentKnobs:
    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = configure(reset=True)
        assert not cache.enabled

    def test_cache_dir_env_enables_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "d"))
        cache = configure(reset=True)
        assert cache.disk_dir == tmp_path / "d"


class TestStudyIntegration:
    def test_equal_studies_share_results(self):
        a, b = Study("A"), Study("A")
        assert a is not b
        assert a.fingerprint == b.fingerprint
        r1 = a.run("EP", "ht_off_2_1")
        hits_before = get_cache().stats.hits
        r2 = b.run("EP", "ht_off_2_1")
        assert get_cache().stats.hits == hits_before + 1
        assert r2 == r1

    def test_different_problem_class_does_not_share(self):
        assert Study("A").fingerprint != Study("B").fingerprint

    def test_results_survive_pickling(self):
        """Disk-tier viability: results must round-trip through pickle."""
        r = Study("A").run("EP", "ht_off_2_1")
        assert pickle.loads(pickle.dumps(r)) == r


class TestReadRetryAndDegradation:
    """Transient-read retry, the cache-read breaker, and memory-only
    degradation (the supervision PR's backoff layer in the cache)."""

    def _seeded(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path)
        writer.put("fp", ("k",), "value")
        return RunCache(disk_dir=tmp_path)

    def test_transient_oserror_is_retried_through(self, tmp_path, monkeypatch):
        reader = self._seeded(tmp_path)
        attempts = {"n": 0}
        real = type(tmp_path).read_bytes

        def flaky(self):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("transient glitch")
            return real(self)

        monkeypatch.setattr(type(tmp_path), "read_bytes", flaky)
        assert reader.get("fp", ("k",)) == "value"
        assert reader.stats.read_retries == 1
        assert reader.stats.disk_hits == 1

    def test_persistent_oserror_counts_breaker_strike(self, tmp_path):
        from repro.supervise import backoff

        reader = self._seeded(tmp_path)
        plan = FaultPlan(cache_read_oserror=True)
        with override(faults=plan):
            assert reader.is_miss(reader.get("fp", ("k",)))
        assert reader.stats.read_retries >= 1
        assert backoff.breaker("cache-read").total_trips == 1
        # The entry was left in place (the file may be fine).
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_open_breaker_degrades_to_memory_only(self, tmp_path):
        from repro.supervise import backoff

        reader = self._seeded(tmp_path)
        plan = FaultPlan(cache_read_oserror=True)
        with override(faults=plan):
            for _ in range(backoff.breaker("cache-read").threshold):
                reader.get("fp", ("k",))
        assert reader.memory_only_reason is not None
        assert "cache-read breaker open" in reader.memory_only_reason
        # Degraded: disk is not consulted even for clean reads...
        assert reader.is_miss(reader.get("fp", ("k",)))
        # ...and writes stay in memory (no new disk entries).
        before = len(list(tmp_path.glob("*.pkl")))
        reader.put("fp", ("other",), 42)
        assert len(list(tmp_path.glob("*.pkl"))) == before
        assert reader.get("fp", ("other",)) == 42  # memory tier works

    def test_slow_cache_fault_only_delays(self, tmp_path):
        reader = self._seeded(tmp_path)
        with override(faults=FaultPlan(slow_cache_ms=1.0)):
            assert reader.get("fp", ("k",)) == "value"
        assert reader.stats.read_retries == 0


class TestQuarantineRetention:
    def _corrupt_entries(self, tmp_path, n):
        """Write n distinct entries, then corrupt them all."""
        writer = RunCache(disk_dir=tmp_path)
        for i in range(n):
            writer.put("fp", ("k", i), i)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"garbage")

    def test_count_cap_evicts_oldest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runcache, "QUARANTINE_MAX_ENTRIES", 3)
        self._corrupt_entries(tmp_path, 5)
        reader = RunCache(disk_dir=tmp_path)
        for i in range(5):
            reader.get("fp", ("k", i))
        assert reader.stats.quarantined == 5
        qdir = tmp_path / QUARANTINE_DIR
        assert len(list(qdir.iterdir())) == 3
        assert reader.stats.evicted == 2
        assert reader.stats.as_dict()["evicted"] == 2

    def test_age_cap_evicts_expired(self, tmp_path, monkeypatch):
        import os as _os

        self._corrupt_entries(tmp_path, 2)
        reader = RunCache(disk_dir=tmp_path)
        reader.get("fp", ("k", 0))
        qdir = tmp_path / QUARANTINE_DIR
        (old,) = qdir.iterdir()
        ancient = 1_000_000.0  # epoch seconds, far past any age bound
        _os.utime(old, (ancient, ancient))
        reader.get("fp", ("k", 1))  # next quarantine triggers eviction
        remaining = list(qdir.iterdir())
        assert len(remaining) == 1
        assert remaining[0].name != old.name
        assert reader.stats.evicted == 1

    def test_stats_snapshot_tracks_new_fields(self, tmp_path):
        reader = RunCache(disk_dir=tmp_path)
        before = reader.stats.snapshot()
        reader.stats.read_retries += 2
        reader.stats.evicted += 1
        delta = reader.stats.since(before)
        assert delta.read_retries == 2
        assert delta.evicted == 1
        assert set(delta.as_dict()) >= {"read_retries", "evicted"}


class TestWarmPipeline:
    """A warm run of the experiments that simulate outside the study
    runs (trial slices, thread sweeps, structural replays, LMbench)
    simulates nothing: every result comes from the disk tier."""

    IDS = ["validation", "tuning", "scaling-curves", "sec3-lmbench"]

    def _counted_run(self, ctx):
        from repro.experiments import pipeline, sec3_lmbench
        from repro.sim.engine import Engine
        from repro.sim.structural import StructuralCoSimulator

        calls = {}
        configure(reset=True)  # a new process: empty memory tier
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in [
                (Engine, "run"),
                (StructuralCoSimulator, "measure"),
                (sec3_lmbench, "lat_mem_rd"),
            ]:
                mp.setattr(owner, name, _counting(calls, getattr(owner, name)))
            result = pipeline.run_pipeline(ctx, only=self.IDS)
        assert result.ok
        return result, calls

    def test_warm_run_simulates_nothing(self, tmp_path):
        from repro.core.context import RunContext

        def ctx(**kw):
            return RunContext(jobs=1, **kw)

        cache_dir = tmp_path / "cache"
        cold, cold_calls = self._counted_run(ctx(cache_dir=cache_dir))
        assert set(cold_calls) == {"run", "measure", "lat_mem_rd"}
        warm, warm_calls = self._counted_run(ctx(cache_dir=cache_dir))
        assert warm_calls == {}
        for exp_id in self.IDS:
            cache = warm.manifest["experiments"][exp_id]["cache"]
            assert cache["misses"] == 0, (exp_id, cache)
        uncached, uncached_calls = self._counted_run(ctx(cache_enabled=False))
        assert set(uncached_calls) == set(cold_calls)
        for run in (warm, uncached):
            for exp_id in self.IDS:
                assert run.records[exp_id].text == cold.records[exp_id].text
                assert run.records[exp_id].result.to_json() == (
                    cold.records[exp_id].result.to_json()
                )


class TestWarmSweep:
    def test_warm_sweep_reads_only_the_tables(self, tmp_path):
        """A warm sensitivity sweep reads one speedup-table entry per
        study (the baseline plus one per perturbation), not the 48 runs
        behind each table."""
        from repro.analysis.findings import F1, F2
        from repro.experiments.sensitivity_study import PERTURBABLE, sweep_many

        def sweep():
            configure(reset=True, disk_dir=tmp_path)  # empty memory tier
            results = sweep_many(
                [F1, F2], study=Study("S"), parameters=PERTURBABLE[:1], jobs=1
            )
            return results, get_cache().stats

        cold, cold_stats = sweep()
        warm, warm_stats = sweep()
        assert (warm_stats.disk_hits, warm_stats.misses) == (3, 0)
        assert cold_stats.misses == 3 * (48 + 1)
        assert warm == cold


def _counting(calls, original):
    """``original``, counting its calls in ``calls`` by name."""

    def wrapper(*args, **kwargs):
        calls[original.__name__] = calls.get(original.__name__, 0) + 1
        return original(*args, **kwargs)

    return wrapper
