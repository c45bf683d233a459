"""Tests for the supervision primitives: budgets, cancellation, backoff.

The journal has its own module (``test_journal.py``); pipeline/CLI
integration lives in ``test_pipeline_supervise.py`` and ``test_cli.py``.
"""

import os
import signal
import threading

import pytest

from repro import supervise
from repro.core.context import override
from repro.supervise import (
    BackoffPolicy,
    Budget,
    BudgetError,
    CancelToken,
    CancelledRun,
    CircuitBreaker,
    DeadlineExceeded,
    SupervisionObserver,
    breaker,
    breaker_states,
    install_signal_handlers,
    reset_breakers,
)


class TestBudget:
    def test_default_is_inert(self):
        b = Budget()
        assert not b.armed
        assert not b.bounded
        assert b.run_deadline is None
        assert b.experiment_deadline(0.0) is None
        assert not b.run_overdrawn(1e9)

    def test_arm_stamps_start_and_is_idempotent(self):
        b = Budget(run_timeout_s=10).arm(now=100.0)
        assert b.armed and b.started_at == 100.0
        assert b.arm(now=999.0) is b

    def test_run_deadline(self):
        b = Budget(run_timeout_s=10).arm(now=100.0)
        assert b.run_deadline == 110.0
        assert not b.run_overdrawn(now=109.0)
        assert b.run_overdrawn(now=111.0)

    def test_experiment_deadline_is_min_of_both(self):
        b = Budget(run_timeout_s=10, experiment_timeout_s=4).arm(now=100.0)
        # Early in the run the per-experiment allowance binds...
        assert b.experiment_deadline(started=100.0) == 104.0
        # ...near the end the campaign deadline does.
        assert b.experiment_deadline(started=108.0) == 110.0

    def test_experiment_only_budget(self):
        b = Budget(experiment_timeout_s=4).arm(now=100.0)
        assert b.run_deadline is None
        assert b.experiment_deadline(started=50.0) == 54.0

    def test_nonpositive_timeouts_rejected(self):
        with pytest.raises(BudgetError):
            Budget(run_timeout_s=0)
        with pytest.raises(BudgetError):
            Budget(experiment_timeout_s=-1)

    def test_as_dict_excludes_absolute_deadlines(self):
        b = Budget(run_timeout_s=10, experiment_timeout_s=4).arm()
        assert b.as_dict() == {
            "run_timeout_s": 10, "experiment_timeout_s": 4,
        }


class TestCancelToken:
    def test_latch_semantics_first_reason_wins(self):
        t = CancelToken()
        assert not t.cancelled and t.reason is None
        t.cancel("first")
        t.cancel("second")
        assert t.cancelled and t.reason == "first"

    def test_raise_if_cancelled(self):
        t = CancelToken()
        t.raise_if_cancelled()  # untripped: no-op
        t.cancel("stop now")
        with pytest.raises(CancelledRun, match="stop now"):
            t.raise_if_cancelled()

    def test_reset_rearms(self):
        t = CancelToken()
        t.cancel("x")
        t.reset()
        assert not t.cancelled and t.reason is None

    def test_cancelled_run_is_not_keyboard_interrupt(self):
        # The pipeline's `except Exception` boundary must contain it.
        assert not issubclass(CancelledRun, KeyboardInterrupt)
        assert issubclass(CancelledRun, Exception)


class TestSignalHandlers:
    def test_sigint_routes_into_token_and_restores(self):
        t = CancelToken()
        previous = signal.getsignal(signal.SIGINT)
        restore = install_signal_handlers(t, signals=(signal.SIGINT,))
        try:
            assert signal.getsignal(signal.SIGINT) is not previous
            os.kill(os.getpid(), signal.SIGINT)
            assert t.cancelled
            assert t.reason == "signal:SIGINT"
            # First delivery already restored the previous handler: a
            # second signal would behave as if never supervised.
            assert signal.getsignal(signal.SIGINT) is previous
        finally:
            restore()
        assert signal.getsignal(signal.SIGINT) is previous

    def test_non_main_thread_installs_nothing(self):
        t = CancelToken()
        before = signal.getsignal(signal.SIGTERM)
        result = {}

        def worker():
            result["restore"] = install_signal_handlers(
                t, signals=(signal.SIGTERM,)
            )

        th = threading.Thread(target=worker)
        th.start()
        th.join()
        assert signal.getsignal(signal.SIGTERM) is before
        result["restore"]()  # the no-op restore


class TestBackoffPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        p = BackoffPolicy(retries=3, base_s=0.01, factor=2.0,
                          max_s=0.03, jitter=0.25)
        a = list(p.delays("cache-read"))
        b = list(p.delays("cache-read"))
        assert a == b  # jitter is hashed, not random
        assert len(a) == 3
        for raw, got in zip([0.01, 0.02, 0.03], a):
            assert raw <= got <= raw * 1.25
        assert list(p.delays("other-key")) != a

    def test_run_retries_transient_then_succeeds(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        p = BackoffPolicy(retries=2)
        out = p.run(flaky, (OSError,), key="k",
                    on_retry=lambda i, e: retries.append(i),
                    sleep=lambda s: None)
        assert out == "ok"
        assert calls["n"] == 3
        assert retries == [0, 1]

    def test_run_final_failure_propagates(self):
        def always():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            BackoffPolicy(retries=1).run(
                always, (OSError,), key="k", sleep=lambda s: None
            )

    def test_run_does_not_catch_other_exceptions(self):
        def boom():
            raise ValueError("task bug")

        with pytest.raises(ValueError):
            BackoffPolicy(retries=2).run(
                boom, (OSError,), key="k", sleep=lambda s: None
            )


class TestCircuitBreaker:
    def test_opens_after_threshold_and_stays_open(self):
        b = CircuitBreaker("x", threshold=2)
        assert b.record_failure("one") is False
        assert b.record_failure("two") is True  # just opened
        assert b.open
        assert "two" in b.opened_reason
        b.record_success()  # one-way: success cannot close it
        assert b.open
        assert b.record_failure("three") is False  # already open

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("x", threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert not b.open  # never two *consecutive* failures

    def test_registry_shared_and_reports_tripped_only(self):
        reset_breakers()
        assert breaker("a") is breaker("a")
        assert breaker_states() == {}  # untripped: invisible
        breaker("a").record_failure("warmup")
        states = breaker_states()
        assert set(states) == {"a"}
        assert states["a"]["total_trips"] == 1
        reset_breakers()
        assert breaker_states() == {}


class TestModuleState:
    def test_inactive_by_default(self):
        assert not supervise.active()
        supervise.check("anywhere")  # no budget, no token: no-op

    def test_bounded_budget_activates(self):
        with override(budget=Budget(run_timeout_s=100).arm()):
            assert supervise.active()
            supervise.check("early")  # within budget: fine

    def test_unbounded_budget_does_not_activate(self):
        with override(budget=Budget()):
            assert not supervise.active()

    def test_task_deadline_enforced_by_check(self):
        budget = Budget(experiment_timeout_s=0.0001).arm(now=0.0)
        with override(budget=budget) as ctx, \
                ctx.for_task("fig2", now=0.0).active():
            # monotonic "now" is far past deadline computed from now=0.
            with pytest.raises(DeadlineExceeded, match="fig2"):
                supervise.check("step 3")

    def test_run_deadline_enforced_by_check(self):
        with override(budget=Budget(run_timeout_s=0.0001).arm(now=0.0)):
            with pytest.raises(DeadlineExceeded, match="run exceeded"):
                supervise.check()

    def test_cancellation_beats_deadline(self):
        with override(budget=Budget(run_timeout_s=0.0001).arm(now=0.0)):
            supervise.token().cancel("user said stop")
            with pytest.raises(CancelledRun, match="user said stop"):
                supervise.check()

    def test_end_task_clears_deadline(self):
        budget = Budget(experiment_timeout_s=0.0001).arm(now=0.0)
        with override(budget=budget) as ctx:
            with ctx.for_task("fig2", now=0.0).active():
                pass
            supervise.check()  # no task deadline, generous run budget

    def test_default_watchdog_follows_budget(self):
        assert supervise.default_watchdog_s() is None
        with override(budget=Budget(experiment_timeout_s=7.0).arm()):
            assert supervise.default_watchdog_s() == 7.0
        with override(budget=Budget(experiment_timeout_s=7.0)):  # unarmed
            assert supervise.default_watchdog_s() is None

    def test_install_signals_activates(self):
        assert not supervise.active()
        restore = supervise.install_signals()
        try:
            assert supervise.active()
        finally:
            restore()
        assert not supervise.active()

    def test_reset_clears_everything(self):
        with override(budget=Budget(run_timeout_s=1).arm()) as ctx, \
                ctx.for_task("x").active():
            supervise.token().cancel("y")
            breaker("z").record_failure()
        supervise.reset()
        assert not supervise.active()
        assert supervise.current_budget() is None
        assert not supervise.token().cancelled
        assert breaker_states() == {}


class TestSupervisionObserver:
    def test_checks_run_at_boundaries(self):
        seen = []
        obs = SupervisionObserver(check=seen.append)
        obs.on_run_start([])
        from repro.sim.observer import PhaseEvent, ResolveEvent

        obs.on_resolve(ResolveEvent(step=3, resolved={}))
        obs.on_phase_complete(PhaseEvent(
            program_id=0, phase_name="conj_grad", wall_seconds=1.0,
            mean_cpi=1.0, bus_utilization=0.1,
        ))
        assert seen == ["run-start", "step 3", "phase 'conj_grad'"]

    def test_engine_attaches_observer_only_when_active(self, study):
        from repro.sim.engine import Engine
        from repro.machine.configurations import CONFIGURATIONS

        config = CONFIGURATIONS["serial"]
        workload = study.workload("cg")
        # Active supervision with an already-cancelled token: the run
        # must die at the very first checkpoint.
        supervise.token().cancel("drill")
        engine = Engine(config)
        with pytest.raises(CancelledRun, match="drill"):
            engine.run_single(workload)
        # Inactive supervision: same run completes untouched.
        supervise.reset()
        result = Engine(config).run_single(workload)
        assert result.programs[0].runtime_seconds > 0
