"""Tests for the process-pool sweep runner."""

import os

import pytest

from repro.core.context import override
from repro.sim import parallel
from repro.sim.parallel import get_default_jobs, parallel_map, resolve_jobs
from repro.testing.faults import FaultPlan


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"task {x}")


def _os_boom(x):
    raise OSError(f"task io failure {x}")


@pytest.fixture
def pool_host(monkeypatch):
    """Pretend the host has cores so resolve_jobs does not clamp the
    pool path away on single-CPU CI containers."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


class TestJobResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
        assert get_default_jobs() == 1

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "4")
        assert get_default_jobs() == 4

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "4")
        with override(jobs=2):
            assert get_default_jobs() == 2

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "many")
        assert get_default_jobs() == 1

    def test_resolve_clamps_to_host(self):
        assert resolve_jobs(10_000) <= (os.cpu_count() or 1)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            with override(jobs=0):
                pass
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_path_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [5], jobs=4) == [25]

    def test_unpicklable_callable_falls_back_to_serial(self, pool_host):
        # Lambdas cannot cross a process boundary; the map must still
        # return correct results via the serial fallback.
        seen = []
        assert parallel_map(
            lambda x: x + 1, [1, 2, 3], jobs=2, on_fallback=seen.append
        ) == [2, 3, 4]
        report = seen[-1]
        assert report.reason == "unpicklable-callable"
        assert report.completed == 0 and report.retried == 3

    def test_task_exceptions_propagate(self):
        with pytest.raises(ValueError, match="task"):
            parallel_map(_boom, [1, 2], jobs=1)
        with pytest.raises(ValueError, match="task"):
            parallel_map(_boom, [1, 2], jobs=2)

    def test_task_oserror_propagates_not_swallowed(self, pool_host):
        """Regression: an OSError raised *by the task* used to be
        mistaken for pool infrastructure failure, silently re-running
        the whole list serially (and raising only on the second pass)."""
        seen = []
        with pytest.raises(OSError, match="task io failure"):
            parallel_map(_os_boom, [1, 2], jobs=2, on_fallback=seen.append)
        # And it was a task failure, not a pool degradation.
        assert not seen


class TestBrokenPoolRetry:
    def test_worker_death_retries_only_incomplete(self, pool_host):
        plan = FaultPlan(worker_death_index=1)
        seen = []
        with override(faults=plan):
            results = parallel_map(
                _square, [0, 1, 2, 3], jobs=2, on_fallback=seen.append
            )
        assert results == [0, 1, 4, 9]
        report = seen[-1] if seen else None
        assert report is not None
        assert report.reason == "broken-pool"
        # Every task is accounted for exactly once: results the pool
        # delivered are kept, the rest re-ran serially.
        assert report.completed + report.retried == 4
        assert report.retried >= 1

    def test_on_fallback_callback_invoked(self, pool_host):
        seen = []
        with override(faults=FaultPlan(worker_death_index=0)):
            parallel_map(
                _square, [1, 2, 3], jobs=2, on_fallback=seen.append
            )
        assert len(seen) == 1
        assert seen[0].reason == "broken-pool"
        assert seen[0].as_dict()["retried"] == seen[0].retried

    def test_clean_run_leaves_no_report(self, pool_host):
        seen = []
        assert parallel_map(
            _square, [1, 2, 3], jobs=2, on_fallback=seen.append
        ) == [1, 4, 9]
        assert not seen

    def test_take_report_pops(self, pool_host):
        seen = []
        parallel_map(lambda x: x, [1, 2], jobs=2, on_fallback=seen.append)
        assert len(seen) == 1
        # A clean map afterwards reports nothing more.
        parallel_map(_square, [1, 2], jobs=2, on_fallback=seen.append)
        assert len(seen) == 1


def _slow(x):
    # Only ever called under the hang drills' generous watchdogs.
    return x + 100


class TestWatchdog:
    def test_hung_worker_reaped_and_rescheduled(self, pool_host):
        plan = FaultPlan(hang_task_index=1, hang_seconds=30.0)
        seen = []
        with override(faults=plan):
            results = parallel_map(
                _square, [0, 1, 2, 3], jobs=2, task_timeout_s=1.0,
                on_fallback=seen.append,
            )
        assert results == [0, 1, 4, 9]
        report = seen[-1] if seen else None
        assert report is not None
        assert report.reason == "hung-worker"
        assert "killed workers" in report.detail
        assert report.completed + report.retried == 4
        assert report.retried >= 1

    def test_healthy_pool_never_trips_watchdog(self, pool_host):
        # The heartbeat window restarts at every completion: many tasks
        # under a short-but-sufficient watchdog run clean.
        seen = []
        results = parallel_map(
            _square, list(range(8)), jobs=2, task_timeout_s=30.0,
            on_fallback=seen.append,
        )
        assert results == [x * x for x in range(8)]
        assert not seen

    def test_watchdog_defaults_from_armed_budget(self, pool_host):
        from repro.supervise import Budget

        plan = FaultPlan(hang_task_index=0, hang_seconds=30.0)
        seen = []
        with override(
            budget=Budget(experiment_timeout_s=1.0).arm(), faults=plan
        ):
            results = parallel_map(
                _square, [1, 2, 3], jobs=2, on_fallback=seen.append
            )
        assert results == [1, 4, 9]
        assert seen[-1].reason == "hung-worker"

    def test_no_budget_means_no_watchdog(self, pool_host):
        # Unbudgeted runs must not invent a timeout; a clean pool just
        # completes (we cannot wait forever to prove the negative, so
        # assert the resolved default is None instead).
        from repro import supervise

        assert supervise.default_watchdog_s() is None


class TestCircuitBreaker:
    def test_open_breaker_short_circuits_to_serial(self, pool_host):
        from repro.supervise import backoff

        brk = backoff.breaker("process-pool")
        for _ in range(brk.threshold):
            brk.record_failure("drill")
        assert brk.open
        seen = []
        results = parallel_map(
            _square, [1, 2, 3], jobs=2, on_fallback=seen.append
        )
        assert results == [1, 4, 9]
        report = seen[-1]
        assert report.reason == "circuit-open"
        assert report.retried == 3 and report.completed == 0

    def test_pool_failures_count_toward_breaker(self, pool_host):
        from repro.supervise import backoff

        with override(faults=FaultPlan(worker_death_index=0)):
            parallel_map(_square, [1, 2, 3], jobs=2)
        assert backoff.breaker("process-pool").total_trips == 1

    def test_clean_run_resets_consecutive_failures(self, pool_host):
        from repro.supervise import backoff

        brk = backoff.breaker("process-pool")
        brk.record_failure("one")
        parallel_map(_square, [1, 2, 3], jobs=2)
        assert brk.failures == 0
        assert not brk.open


class TestOnResult:
    def test_serial_path_reports_in_order(self):
        seen = []
        parallel_map(
            _square, [3, 1, 2], jobs=1,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(0, 9), (1, 1), (2, 4)]

    def test_pool_path_reports_every_task_once(self, pool_host):
        seen = []
        results = parallel_map(
            _square, [0, 1, 2, 3], jobs=2,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert sorted(seen) == [(i, i * i) for i in range(4)]
        assert results == [0, 1, 4, 9]

    def test_fallback_path_still_reports_every_task(self, pool_host):
        seen = []
        with override(faults=FaultPlan(worker_death_index=1)):
            parallel_map(
                _square, [0, 1, 2, 3], jobs=2,
                on_result=lambda i, r: seen.append(i),
            )
        assert sorted(seen) == [0, 1, 2, 3]
        assert len(seen) == 4  # exactly once each, kept + retried
