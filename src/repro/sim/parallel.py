"""Process-pool sweep runner with deterministic ordering.

The sweep experiments (sensitivity perturbations, the Figure-5 pair
cross-product, problem-class scaling) are embarrassingly parallel: every
task builds its own :class:`~repro.core.study.Study` and returns plain
result values.  :func:`parallel_map` fans such tasks out over a process
pool while keeping the *exact* semantics of the serial loop:

* results come back in input order, regardless of completion order;
* exceptions raised *by the task function* propagate unchanged — on
  the pool path they are re-raised in the caller, never confused with
  pool-infrastructure failures (a task raising ``OSError`` used to
  trigger a silent full serial re-run);
* pool-infrastructure failures degrade instead of aborting: an
  unpicklable callable or an unspawnable pool falls back to the serial
  loop, and a worker dying mid-run (``BrokenProcessPool``) retries
  **only the not-yet-completed tasks**, serially, once — completed
  results are kept, nothing runs twice;
* a heartbeat **watchdog** (``task_timeout_s``, defaulting to the armed
  supervision budget's per-experiment timeout) reaps a pool that stops
  completing tasks: workers are killed and unfinished tasks re-run
  serially, recorded as a ``hung-worker`` fallback;
* repeated pool failures open the ``process-pool`` circuit breaker
  (:mod:`repro.supervise.backoff`) and later calls go straight to the
  serial loop (``circuit-open``);
* every degradation is pushed to the ``on_fallback`` callback as a
  :class:`FallbackReport`, so callers like the experiment pipeline can
  surface it in their manifest instead of hiding it;
* ``jobs=1`` (or a single task) short-circuits to the serial loop with
  zero pool overhead.

The default job count is the active
:class:`~repro.core.context.RunContext`'s ``jobs`` (falling back to
``REPRO_JOBS``), and every pool worker activates the caller's context
in its initializer, so verification, the fault plan and the budget
govern the workers exactly as they govern the caller.

Workers cooperate with the run cache of :mod:`repro.core.runcache`: each
worker process has its own memory tier (seeded by fork from the parent),
and when the disk tier is enabled the workers' results persist where the
parent — and later experiments — can read them back.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.testing import faults

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "FallbackReport",
    "get_default_jobs",
    "parallel_map",
    "resolve_jobs",
]


JOBS_ENV = "REPRO_JOBS"


def get_default_jobs() -> int:
    """Current default job count: the active context's ``jobs``, else
    ``REPRO_JOBS``, else 1 (serial — parallelism is opt-in)."""
    from repro.core.context import current

    ctx = current()
    if ctx is not None and ctx.jobs is not None:
        return ctx.jobs
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Clamp a requested job count to something sane for this host."""
    n = get_default_jobs() if jobs is None else jobs
    if n < 1:
        raise ValueError("jobs must be >= 1")
    return min(n, os.cpu_count() or 1)


@dataclass
class FallbackReport:
    """One pool-degradation event inside a :func:`parallel_map` call.

    ``completed + retried == len(items)`` whenever the map returned
    normally — the report accounts for every task exactly once.
    """

    #: ``unpicklable-callable`` | ``pool-unavailable`` | ``broken-pool``
    #: | ``hung-worker`` | ``circuit-open``
    reason: str
    #: Tasks whose pool results were kept.
    completed: int
    #: Tasks re-executed serially in the caller's process.
    retried: int
    #: The triggering exception, stringified (empty for pre-checks).
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "completed": self.completed,
            "retried": self.retried,
            "detail": self.detail,
        }


def _init_worker(ctx, initializer, initargs) -> None:
    """Pool-worker setup: the caller's context becomes the worker's
    active context for its lifetime, then the caller's own hook runs."""
    from repro.core.context import install

    install(ctx)
    if initializer is not None:
        initializer(*initargs)


@dataclass
class _FaultProbe:
    """Wraps the task function so the fault harness can observe the
    task index inside the worker (picklable iff ``fn`` is)."""

    fn: Callable[[Any], Any]

    def __call__(self, indexed: Any) -> Any:
        index, item = indexed
        faults.maybe_kill_worker(index)
        faults.maybe_hang_worker(index)
        return self.fn(item)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    on_fallback: Optional[Callable[[FallbackReport], None]] = None,
    task_timeout_s: Optional[float] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, possibly across worker processes.

    Args:
        fn: a picklable callable (module-level function); unpicklable
            callables are detected up front and run serially.
        items: tasks, each picklable for the parallel path.
        jobs: worker count; None uses :func:`get_default_jobs`; 1 means
            the plain serial loop.
        initializer: optional per-worker setup hook (e.g. reconfiguring
            the run cache), run after the caller's active context is
            activated in the worker.  Only invoked on the pool path —
            the serial loop and the fallback run in the caller's
            process, whose global state must stay untouched.
        initargs: arguments for ``initializer``.
        on_fallback: called with the :class:`FallbackReport` when the
            pool degrades.
        task_timeout_s: the pool watchdog — if no task *completes*
            within this many seconds, the pool is declared hung: its
            workers are killed and every unfinished task re-runs
            serially in the caller (where cooperative supervision
            checks still apply).  None consults the armed supervision
            budget (:func:`repro.supervise.default_watchdog_s`); the
            watchdog is off when that is unarmed too.
        on_result: called with ``(index, result)`` the moment each
            task's result is known — on every path, pool or serial —
            so callers can checkpoint incrementally; completion order on
            the pool path, input order serially.

    Returns:
        ``[fn(x) for x in items]`` — identical results and ordering on
        both paths.  Exceptions raised *by fn* propagate either way;
        pool-infrastructure failures never do.
    """
    from repro.core.context import current
    from repro.supervise import backoff as _backoff
    from repro.supervise import default_watchdog_s as _default_watchdog_s

    items = list(items)
    results: List[Any] = [None] * len(items)
    done = [False] * len(items)

    def run_serial(indices: Sequence[int]) -> None:
        for i in indices:
            results[i] = fn(items[i])
            done[i] = True
            if on_result is not None:
                on_result(i, results[i])

    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(items) <= 1:
        run_serial(range(len(items)))
        return results

    def degrade(report: FallbackReport) -> None:
        if on_fallback is not None:
            on_fallback(report)

    brk = _backoff.breaker("process-pool")
    if brk.open:
        # The pool broke or hung repeatedly this process: stop paying
        # spawn + retry cost per call and stay serial for good.
        degrade(FallbackReport(
            reason="circuit-open", completed=0, retried=len(items),
            detail=brk.opened_reason or "",
        ))
        run_serial(range(len(items)))
        return results

    try:
        pickle.dumps(fn)
    except Exception as exc:
        degrade(FallbackReport(
            reason="unpicklable-callable", completed=0,
            retried=len(items), detail=str(exc),
        ))
        run_serial(range(len(items)))
        return results

    try:
        executor = ProcessPoolExecutor(
            max_workers=min(n_jobs, len(items)),
            initializer=_init_worker,
            initargs=(current(), initializer, initargs),
        )
    except OSError as exc:
        degrade(FallbackReport(
            reason="pool-unavailable", completed=0,
            retried=len(items), detail=str(exc),
        ))
        run_serial(range(len(items)))
        return results

    if task_timeout_s is None:
        task_timeout_s = _default_watchdog_s()

    # The probe wrapper is only interposed when a fault plan targets
    # parallel_map — the production path ships `fn` to workers as-is.
    plan = faults.active_plan()
    pool_fn: Callable[[Any], Any] = fn
    pool_items: Sequence[Any] = items
    if plan is not None and plan.touches_parallel_map:
        pool_fn = _FaultProbe(fn)
        pool_items = list(enumerate(items))

    broken: Optional[BaseException] = None
    hung = False
    try:
        try:
            future_index = {
                executor.submit(pool_fn, x): i
                for i, x in enumerate(pool_items)
            }
        except (BrokenProcessPool, OSError) as exc:
            # Submission-time infrastructure failure (workers
            # unspawnable): nothing completed, everything retries.
            future_index, broken = {}, exc
        waiting = set(future_index)
        while waiting:
            # Heartbeat watchdog: the timeout window restarts at every
            # completion, so a healthy pool chewing through many tasks
            # never trips — only a pool making *no* progress for a
            # whole task-budget does.
            ready, waiting = wait(
                waiting, timeout=task_timeout_s,
                return_when=FIRST_COMPLETED,
            )
            if not ready:
                hung = True
                for proc in list(
                    getattr(executor, "_processes", {}).values()
                ):
                    proc.terminate()
                break
            for future in ready:
                i = future_index[future]
                try:
                    results[i] = future.result()
                    done[i] = True
                    if on_result is not None:
                        on_result(i, results[i])
                except (BrokenProcessPool, pickle.PicklingError) as exc:
                    # Infrastructure: the worker died, or this task's
                    # payload/result never crossed the process boundary
                    # — the task itself did not fail.  Keep harvesting
                    # so every result that *did* complete is preserved;
                    # the rest retry serially below.
                    if broken is None:
                        broken = exc
                # Anything else is the task's own exception — including
                # OSError — and propagates to the caller unchanged.
    finally:
        executor.shutdown(wait=True, cancel_futures=True)

    if hung:
        pending = [i for i in range(len(items)) if not done[i]]
        brk.record_failure("hung worker")
        degrade(FallbackReport(
            reason="hung-worker", completed=len(items) - len(pending),
            retried=len(pending),
            detail=(
                f"no task completed within {task_timeout_s}s; "
                f"killed workers, finishing serially"
            ),
        ))
        run_serial(pending)
        return results

    if broken is None:
        brk.record_success()
        return results

    pending = [i for i in range(len(items)) if not done[i]]
    brk.record_failure(str(broken))
    # Let transient pool trouble (a dying container, fork pressure)
    # settle before re-running in-process — bounded and deterministic.
    for delay in _backoff.BackoffPolicy(retries=1).delays("broken-pool"):
        time.sleep(delay)
    degrade(FallbackReport(
        reason="broken-pool", completed=len(items) - len(pending),
        retried=len(pending), detail=str(broken),
    ))
    run_serial(pending)
    return results
