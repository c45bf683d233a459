"""Supervised execution: deadlines, cancellation, journaling, backoff.

The execution stack below this package is fault-*isolating* (PR 4):
one experiment's exception never costs another's result.  This package
adds the supervision a long-running service needs on top of isolation:

* **Deadlines** — :class:`~repro.supervise.budget.Budget` bounds a
  campaign and each experiment in wall time, enforced cooperatively at
  engine step/phase boundaries (:class:`SupervisionObserver`) and at
  pipeline task boundaries, and preemptively by the pool watchdog in
  :func:`repro.sim.parallel.parallel_map`.
* **Cancellation** — a :class:`~repro.supervise.cancel.CancelToken`
  that SIGINT/SIGTERM (and the run budget) trip; the pipeline drains
  in-flight work, persists partial state, and exits with a valid,
  resumable manifest.
* **Crash-safe journaling** — an fsync'd write-ahead journal writer
  and reader (:mod:`repro.supervise.journal`) for a server's
  ``jobs.wal.jsonl``, so even a SIGKILLed daemon is recoverable.  A
  campaign needs no journal: ``run-all`` rewrites its manifest as an
  atomic checkpoint after every experiment
  (:mod:`repro.experiments.pipeline`).
* **Backoff & circuit breakers** — bounded, deterministic retry for
  the transient failure classes, with structural degradation (memory-
  only cache, serial map) after repeated trips
  (:mod:`repro.supervise.backoff`).

Like the fault (:mod:`repro.testing.faults`) and verification
(:mod:`repro.verify`) switches, the budget and the running task's id,
deadline and own cancel token are read from the active
:class:`~repro.core.context.RunContext` (:meth:`~repro.core.context.
RunContext.for_task` sets the task fields), so a ``repro serve`` job,
a pipeline experiment and the pool workers either spawns each enforce
their own limits.  Only the signal-routed process token and the circuit
breakers are process-wide: they are shared resources, not per-job
switches.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.supervise.backoff import (  # noqa: F401  (re-exports)
    BackoffPolicy,
    CircuitBreaker,
    breaker,
    breaker_states,
    reset_breakers,
)
from repro.supervise.budget import (  # noqa: F401
    Budget,
    BudgetError,
    DeadlineExceeded,
)
from repro.supervise.cancel import (  # noqa: F401
    CancelToken,
    CancelledRun,
    install_signal_handlers,
)
from repro.supervise.journal import (  # noqa: F401
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalSchemaError,
)
from repro.supervise.observer import SupervisionObserver  # noqa: F401

__all__ = [
    "BackoffPolicy",
    "Budget",
    "BudgetError",
    "CancelToken",
    "CancelledRun",
    "CircuitBreaker",
    "DeadlineExceeded",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalSchemaError",
    "SupervisionObserver",
    "active",
    "breaker",
    "breaker_states",
    "check",
    "current_budget",
    "default_watchdog_s",
    "install_signals",
    "reset",
    "reset_breakers",
    "token",
]

# ----------------------------------------------------------------------
# Process-wide supervision state: the signal-routed token.

_token = CancelToken()
#: True while signal handlers route into the token (the CLI's run-all).
_signals_armed = False


def _current():
    from repro.core.context import current

    return current()


def current_budget() -> Optional[Budget]:
    """The active context's budget, if any."""
    ctx = _current()
    return None if ctx is None else ctx.budget


def token() -> CancelToken:
    """The process-wide cancellation token."""
    return _token


def install_signals():
    """Route SIGINT/SIGTERM into the process token; returns a restore
    callable that also disarms supervision's signal bookkeeping.

    Arming starts a fresh supervised run, so a token left tripped by a
    previous run in the same process (an embedder calling run-all twice,
    a cancelled run followed by ``--resume``) is cleared first.
    """
    global _signals_armed
    _token.reset()
    restore = install_signal_handlers(_token)
    _signals_armed = True

    def _restore() -> None:
        global _signals_armed
        _signals_armed = False
        restore()

    return _restore


def active() -> bool:
    """Should engines attach a :class:`SupervisionObserver`?

    True whenever a check could actually fire: a task deadline is in
    force, a bounded budget is installed, or signal handlers are armed
    (cancellation could arrive at any step).  Plain library and test
    use stays observer-free — and byte-identical — by default.
    """
    if _signals_armed or _token.cancelled:
        return True
    ctx = _current()
    return ctx is not None and (
        ctx.token is not None
        or ctx.deadline is not None
        or (ctx.budget is not None and ctx.budget.bounded)
    )


def check(where: str = "") -> None:
    """The cooperative checkpoint: raise if cancelled or overdue.

    :class:`CancelledRun` reports the token's reason;
    :class:`DeadlineExceeded` names what timed out (task or run) and by
    how much, so the pipeline's failure record is self-explanatory.
    """
    ctx = _current()
    if ctx is not None and ctx.token is not None:
        ctx.token.raise_if_cancelled()
    _token.raise_if_cancelled()
    if ctx is None or (ctx.deadline is None and ctx.budget is None):
        return
    now = time.monotonic()
    at = f", at {where}" if where else ""
    if ctx.deadline is not None and now > ctx.deadline:
        raise DeadlineExceeded(
            f"{ctx.task_id or 'task'} exceeded its wall-time budget "
            f"({ctx.task_timeout_s}s, {now - ctx.deadline:.2f}s over{at})"
        )
    if ctx.budget is not None and ctx.budget.run_overdrawn(now):
        raise DeadlineExceeded(
            f"run exceeded its wall-time budget "
            f"({ctx.budget.run_timeout_s}s{at})"
        )


def default_watchdog_s() -> Optional[float]:
    """The pool watchdog timeout implied by the armed budget.

    ``parallel_map`` consults this when no explicit ``task_timeout_s``
    is given, so ``--experiment-timeout`` automatically covers hung
    workers in *every* fan-out — pipeline waves and in-experiment
    sweeps alike.  Cooperative checks fire first on healthy workers;
    the watchdog only reaps ones that stopped making progress.
    """
    budget = current_budget()
    if budget is not None and budget.armed:
        return budget.experiment_timeout_s
    return None


def reset() -> None:
    """Clear the process-wide supervision state (tests, embedders): the
    process token, the signal bookkeeping and the circuit breakers."""
    global _signals_armed
    _token.reset()
    _signals_armed = False
    reset_breakers()
