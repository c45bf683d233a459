"""Tests for the fault-injection harness itself."""

import multiprocessing
import os
import time

import pytest

from repro.core.context import override
from repro.testing import faults
from repro.testing.faults import (
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    parse_plan,
)


@pytest.fixture(autouse=True)
def clean_harness(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)


class TestParsePlan:
    def test_experiment_tokens(self):
        plan = parse_plan("experiment:fig3,experiment:fig4=custom msg")
        assert plan.fail_experiments == {"fig3": "", "fig4": "custom msg"}

    def test_cache_and_worker_tokens(self):
        plan = parse_plan(
            "cache-read-oserror,cache-write-oserror,"
            "cache-corrupt:3,worker-death:1"
        )
        assert plan.cache_read_oserror and plan.cache_write_oserror
        assert plan.corrupt_cache_reads == 3
        assert plan.worker_death_index == 1
        assert plan.touches_parallel_map

    def test_empty_tokens_ignored(self):
        assert parse_plan(" , ,") == FaultPlan()

    def test_unknown_token_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault token"):
            parse_plan("typo:fig3")

    def test_bad_int_rejected(self):
        with pytest.raises(FaultSpecError, match="integer"):
            parse_plan("cache-corrupt:lots")
        with pytest.raises(FaultSpecError, match=">= 0"):
            parse_plan("worker-death:-1")

    def test_empty_experiment_id_rejected(self):
        with pytest.raises(FaultSpecError, match="empty experiment id"):
            parse_plan("experiment:")

    def test_spec_round_trips(self):
        spec = "cache-corrupt:2,experiment:fig3,worker-death:0"
        assert parse_plan(parse_plan(spec).spec()) == parse_plan(spec)


class TestActivation:
    def test_no_plan_by_default(self):
        assert faults.active_plan() is None
        # Hooks are no-ops without a plan.
        faults.maybe_fail_experiment("fig3")
        faults.maybe_raise_cache_io("read")
        faults.maybe_kill_worker(0)

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "experiment:fig3")
        assert faults.active_plan().fail_experiments == {"fig3": ""}

    def test_malformed_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "nonsense")
        with pytest.raises(FaultSpecError):
            faults.active_plan()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "experiment:fig3")
        with override(faults=FaultPlan()) as ctx:
            plan = ctx.faults
            assert faults.active_plan() is plan
        assert faults.active_plan().fail_experiments == {"fig3": ""}

    def test_context_manager_restores(self):
        outer = FaultPlan(cache_read_oserror=True)
        with override(faults=outer):
            with override(faults=FaultPlan()):
                assert faults.active_plan() == FaultPlan()
            assert faults.active_plan() is outer


class TestHooks:
    def test_fail_experiment_targets_only_named_id(self):
        with override(faults=FaultPlan(fail_experiments={"fig3": "boom"})):
            faults.maybe_fail_experiment("fig4")
            with pytest.raises(InjectedFault, match="boom"):
                faults.maybe_fail_experiment("fig3")

    def test_cache_io_faults_by_operation(self):
        with override(faults=FaultPlan(cache_read_oserror=True)):
            faults.maybe_raise_cache_io("write")
            with pytest.raises(OSError, match="injected cache read"):
                faults.maybe_raise_cache_io("read")

    def test_corrupt_budget_is_per_distinct_entry(self, tmp_path):
        paths = [tmp_path / f"{i}.pkl" for i in range(3)]
        for p in paths:
            p.write_bytes(b"originalcontent")
        with override(faults=FaultPlan(corrupt_cache_reads=2)):
            for p in paths + paths:  # revisits don't re-corrupt
                faults.maybe_corrupt_cache_file(p)
        corrupted = [
            p for p in paths if p.read_bytes() != b"originalcontent"
        ]
        assert len(corrupted) == 2

    def test_kill_worker_never_fires_in_main_process(self):
        assert multiprocessing.parent_process() is None
        with override(faults=FaultPlan(worker_death_index=0)):
            faults.maybe_kill_worker(0)  # would os._exit in a worker
        assert os.getpid() > 0  # still alive


class TestSupervisionFaultTokens:
    """The chaos-soak tokens added with the supervision layer."""

    def test_hang_token_parses(self):
        plan = faults.parse_plan("hang:2:1.5")
        assert plan.hang_task_index == 2
        assert plan.hang_seconds == 1.5
        assert plan.touches_parallel_map

    def test_sigkill_and_slow_cache_tokens_parse(self):
        plan = faults.parse_plan("sigkill-self:1,slow-cache:20")
        assert plan.sigkill_wave == 1
        assert plan.slow_cache_ms == 20.0

    def test_new_tokens_round_trip_through_spec(self):
        spec = "hang:2:1.5,sigkill-self:1,slow-cache:20"
        plan = faults.parse_plan(spec)
        assert faults.parse_plan(plan.spec()) == plan

    def test_malformed_hang_rejected(self):
        for bad in ("hang:2", "hang:x:1", "hang:1:fast", "hang:"):
            with pytest.raises(faults.FaultSpecError):
                faults.parse_plan(bad)

    def test_malformed_sigkill_and_slow_cache_rejected(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan("sigkill-self:soon")
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan("slow-cache:fast")

    def test_hang_never_fires_in_main_process(self):
        assert multiprocessing.parent_process() is None
        start = time.perf_counter()
        with override(
            faults=FaultPlan(hang_task_index=0, hang_seconds=30.0)
        ):
            faults.maybe_hang_worker(0)  # would sleep 30s in a worker
        assert time.perf_counter() - start < 5.0

    def test_sigkill_self_fires_only_on_its_wave(self):
        with override(faults=FaultPlan(sigkill_wave=7)):
            faults.maybe_sigkill_self(0)
            faults.maybe_sigkill_self(6)
        assert os.getpid() > 0  # wave 7 never started: still alive

    def test_slow_cache_sleeps_briefly(self):
        with override(faults=FaultPlan(slow_cache_ms=10.0)):
            start = time.perf_counter()
            faults.maybe_slow_cache()
            assert time.perf_counter() - start >= 0.009
        start = time.perf_counter()
        faults.maybe_slow_cache()  # no plan: no delay
        assert time.perf_counter() - start < 0.009
