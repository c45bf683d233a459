"""The async job scheduler: dedup, cache fast path, worker pool, drain.

Every submission is content-addressed (:func:`repro.serve.schema.
job_key`) and takes exactly one of three paths, checked in order:

1. **cache** — the result memo or the content-addressed run cache
   already holds the answer: the job is born ``done`` and never enters
   the worker pool;
2. **dedup** — an identical job is queued or running: the submission
   attaches to that execution as a waiter, and the one engine run fans
   its result out to every attached job when it completes;
3. **executed** — a fresh :class:`_Execution` is queued for the worker
   pool.

The scheduler captures the :mod:`contextvars` context it was built in
(so an embedder's active :class:`~repro.core.context.RunContext` —
verification, batch mode, fault plan — governs its jobs), and workers
run each execution in a copy of it under a task context
(:meth:`~repro.core.context.RunContext.for_task`) carrying the
execution's cooperative :class:`~repro.supervise.cancel.CancelToken`
and the optional per-job wall-time budget, enforced at engine step
boundaries by the same
:class:`~repro.supervise.observer.SupervisionObserver` the CLI uses.
Concurrent jobs never share runtime state.
``DELETE``-ing the last live waiter of an execution cancels the
underlying run; cancelling one of several waiters only detaches it.

Failures are contained per execution: the exception becomes a
structured payload (``error_type``/``message``/``traceback`` — the
pipeline's ``ExperimentFailure`` shape) fanned out to every waiter.

:meth:`Scheduler.drain` is the SIGTERM story: stop accepting, let
in-flight work finish inside a grace window, then trip every remaining
execution's token and wait for the cooperative cancellation to land —
always terminating with every job in a terminal state and (when
journaling) a loadable ``jobs.wal.jsonl`` behind it.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import supervise
from repro.core.context import RunContext, current
from repro.serve import store as jobstore
from repro.serve.schema import JobSpec, JobSpecError, job_key, parse_job
from repro.serve.store import Job, JobJournal, JobStore
from repro.supervise import JOURNAL_SCHEMA, CancelledRun, DeadlineExceeded

__all__ = ["DrainReport", "Scheduler", "SchedulerClosed"]

_STOP = object()

#: Latency histogram bucket upper bounds, milliseconds (+inf implied).
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


class SchedulerClosed(RuntimeError):
    """Submission refused: the scheduler is draining or shut down."""


class _Execution:
    """One underlying engine execution, shared by its waiter jobs."""

    __slots__ = ("key", "spec", "token", "jobs", "state")

    def __init__(self, key: str, spec: JobSpec):
        self.key = key
        self.spec = spec
        self.token = supervise.CancelToken()
        self.jobs: List[Job] = []
        self.state = jobstore.QUEUED

    @property
    def live_jobs(self) -> List[Job]:
        return [j for j in self.jobs if not j.terminal]


@dataclass
class DrainReport:
    """What a drain did: clean iff nothing was force-cancelled."""

    completed: int = 0
    cancelled: int = 0

    @property
    def clean(self) -> bool:
        return self.cancelled == 0


@dataclass
class _Counters:
    """Monotone counters; queue depth / in-flight come from the store."""

    submitted: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    engine_calls: int = 0
    results_fanned_out: int = 0
    rejected: int = 0
    histogram: Dict[str, int] = field(
        default_factory=lambda: {
            **{f"le_{b}ms": 0 for b in LATENCY_BUCKETS_MS}, "le_inf": 0,
        }
    )

    def observe_latency(self, seconds: float) -> None:
        ms = seconds * 1e3
        for bound in LATENCY_BUCKETS_MS:
            if ms <= bound:
                self.histogram[f"le_{bound}ms"] += 1
                return
        self.histogram["le_inf"] += 1


class Scheduler:
    """Dedup-aware asynchronous job scheduler over a thread pool.

    Args:
        workers: worker threads executing jobs.
        runner: ``callable(spec) -> result dict``; when it also exposes
            ``probe(spec)``, warm submissions are answered from it
            without queueing.  Defaults to the engine-backed
            :class:`~repro.serve.runner.JobRunner`.
        state_dir: when given, job events are journaled to
            ``<state_dir>/jobs.wal.jsonl`` (crash-safe, resumable).
        job_timeout_s: per-job wall-time budget, enforced cooperatively
            at engine step boundaries.
    """

    def __init__(
        self,
        workers: int = 2,
        runner: Optional[Callable[[JobSpec], Dict[str, Any]]] = None,
        state_dir: Optional[Path] = None,
        job_timeout_s: Optional[float] = None,
    ):
        if runner is None:
            from repro.serve.runner import JobRunner

            runner = JobRunner()
        self._runner = runner
        self._probe = getattr(runner, "probe", None)
        self.job_timeout_s = job_timeout_s
        self._context = contextvars.copy_context()
        journal = None
        if state_dir is not None:
            journal = JobJournal(
                Path(state_dir) / jobstore.JOBS_JOURNAL_NAME,
                {"event": "server-started", "schema": JOURNAL_SCHEMA,
                 "pid": os.getpid()},
            )
        self.store = JobStore(journal=journal)
        self.counters = _Counters()
        self._lock = threading.Lock()
        self._executions: Dict[str, _Execution] = {}
        #: Result memo: key -> the newest done job with that key.  Weak,
        #: so an entry lives exactly as long as the store retains its
        #: job.  Jobs answered from it share its key, spec record and
        #: result, so a retained job costs little beyond its id.
        self._done: "weakref.WeakValueDictionary[str, Job]" = (
            weakref.WeakValueDictionary()
        )
        self._latencies: deque = deque(maxlen=4096)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._accepting = True
        self.started_at = time.monotonic()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(max(1, workers))
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    @property
    def engine_calls(self) -> int:
        """How many times a runner actually executed (not cache/dedup)."""
        with self._lock:
            return self.counters.engine_calls

    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Job:
        """Submit a job (raw payload or pre-parsed spec); returns its
        :class:`Job`, possibly already terminal on the cache path."""
        spec = payload if isinstance(payload, JobSpec) else parse_job(payload)
        key = job_key(spec)
        # Probe the run cache outside the lock: disk-tier reads must not
        # serialize every submission behind one file system access.
        probed: Optional[Dict[str, Any]] = None
        with self._lock:
            known = key in self._done or key in self._executions
        if not known and self._probe is not None:
            probed = self._probe(spec)
        with self._lock:
            if not self._accepting:
                self.counters.rejected += 1
                raise SchedulerClosed("scheduler is draining")
            self.counters.submitted += 1
            done = self._done.get(key)
            if done is not None:
                key, described, result = done.key, done.spec, done.result
            else:
                described, result = spec.describe(), probed
            if result is not None:
                job = self.store.new_job(key, described, source="cache")
                job.result = result
                self._done[key] = job
                self.counters.cache_hits += 1
                self.store.transition(job, jobstore.DONE, source="cache")
                self._observe(job)
                return job
            execution = self._executions.get(key)
            if execution is not None:
                job = self.store.new_job(key, described, source="dedup")
                execution.jobs.append(job)
                self.counters.dedup_hits += 1
                if execution.state == jobstore.RUNNING:
                    self.store.transition(job, jobstore.RUNNING,
                                          source="dedup")
                return job
            job = self.store.new_job(key, described, source="executed")
            execution = _Execution(key, spec)
            execution.jobs.append(job)
            self._executions[key] = execution
            self._queue.put(execution)
            return job

    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[Job]:
        """Cooperatively cancel one job; returns the job, or None when
        unknown.  Raises ``ValueError`` when it is already terminal.

        Cancelling the *last* live waiter of an execution cancels the
        underlying run (cooperatively, at its next checkpoint);
        cancelling one of several merely detaches it.
        """
        with self._lock:
            job = self.store.get(job_id)
            if job is None:
                return None
            if job.terminal:
                raise ValueError(
                    f"job {job_id} already {job.state}; nothing to cancel"
                )
            self.store.transition(
                job, jobstore.CANCELLED, reason="client-cancel"
            )
            self._observe(job)
            execution = self._executions.get(job.key)
            if execution is not None and not execution.live_jobs:
                execution.token.cancel("all waiters cancelled")
            return job

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        return self.store.get(job_id)

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A done job's result payload (None when absent/not done)."""
        job = self.store.get(job_id)
        if job is None or job.state != jobstore.DONE:
            return None
        return job.result

    # ------------------------------------------------------------------
    def _observe(self, job: Job) -> None:
        """Record a terminal job's latency (caller holds the lock)."""
        latency = job.latency_s
        if latency is not None:
            self._latencies.append(latency)
            self.counters.observe_latency(latency)

    def _finalize(
        self,
        execution: _Execution,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, Any]] = None,
        reason: Optional[str] = None,
    ) -> None:
        with self._lock:
            execution.state = state
            for job in execution.live_jobs:
                job.result = result
                self.store.transition(
                    job, state,
                    source=job.source,
                    error=error, reason=reason,
                )
                self._observe(job)
                if state == jobstore.DONE:
                    self.counters.results_fanned_out += 1
                    self._done[job.key] = job
            self._executions.pop(execution.key, None)

    def _worker_loop(self) -> None:
        while True:
            execution = self._queue.get()
            if execution is _STOP:
                return
            with self._lock:
                if execution.token.cancelled or not execution.live_jobs:
                    # Every waiter cancelled while queued (or the drain
                    # tripped the token): never runs.
                    pass_through = True
                else:
                    pass_through = False
                    execution.state = jobstore.RUNNING
                    for job in execution.live_jobs:
                        self.store.transition(
                            job, jobstore.RUNNING, source=job.source
                        )
                    self.counters.engine_calls += 1
            if pass_through:
                self._finalize(
                    execution, jobstore.CANCELLED,
                    reason=execution.token.reason or "cancelled while queued",
                )
                continue
            try:
                result = self._context.copy().run(self._execute, execution)
            except CancelledRun as exc:
                self._finalize(
                    execution, jobstore.CANCELLED, reason=str(exc)
                )
            except Exception as exc:  # contained, ExperimentFailure-style
                self._finalize(
                    execution, jobstore.FAILED,
                    error={
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                    },
                    reason=(
                        str(exc)
                        if isinstance(exc, DeadlineExceeded) else None
                    ),
                )
            else:
                self._finalize(execution, jobstore.DONE, result=result)

    def _execute(self, execution: _Execution) -> Dict[str, Any]:
        """Run one execution under its own task context (called inside
        a copy of the scheduler's captured context)."""
        task = (current() or RunContext()).for_task(
            f"job {execution.key}", token=execution.token,
            timeout_s=self.job_timeout_s,
        )
        with task.active():
            return self._runner(execution.spec)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: counters, depths, latency summary.

        Invariant (asserted by the test suite): ``submitted == done +
        failed + cancelled + queued + running``.
        """
        counts = self.store.counts()
        with self._lock:
            latencies = sorted(self._latencies)
            queued_execs = sum(
                1 for e in self._executions.values()
                if e.state == jobstore.QUEUED
            )
            running_execs = sum(
                1 for e in self._executions.values()
                if e.state == jobstore.RUNNING
            )
            out = {
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "accepting": self._accepting,
                "workers": len(self._workers),
                "jobs": counts,
                "queue_depth": queued_execs,
                "in_flight": running_execs,
                "counters": {
                    "submitted": self.counters.submitted,
                    "cache_hits": self.counters.cache_hits,
                    "dedup_hits": self.counters.dedup_hits,
                    "engine_calls": self.counters.engine_calls,
                    "results_fanned_out": self.counters.results_fanned_out,
                    "rejected": self.counters.rejected,
                },
                "latency": {
                    "histogram": dict(self.counters.histogram),
                    "observed": len(latencies),
                },
            }
        if latencies:
            def pct(p: float) -> float:
                idx = min(len(latencies) - 1,
                          max(0, int(round(p * (len(latencies) - 1)))))
                return round(latencies[idx], 6)

            out["latency"].update({
                "p50_s": pct(0.50), "p95_s": pct(0.95), "p99_s": pct(0.99),
            })
        return out

    # ------------------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = 10.0) -> DrainReport:
        """Stop accepting, let in-flight work finish, cancel the rest.

        Within ``timeout_s`` (None = wait forever) executions complete
        naturally; past it, every remaining execution's token is
        tripped and the drain waits for the cooperative cancellations
        to land.  On return every job is terminal.
        """
        with self._lock:
            self._accepting = False
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        cancelled_before = self.store.counts()[jobstore.CANCELLED]
        tripped = False
        while True:
            with self._lock:
                pending = list(self._executions.values())
            if not pending:
                break
            if (
                not tripped
                and deadline is not None
                and time.monotonic() > deadline
            ):
                tripped = True
                for execution in pending:
                    execution.token.cancel("drain")
            time.sleep(0.01)
        counts = self.store.counts()
        return DrainReport(
            completed=counts[jobstore.DONE],
            cancelled=counts[jobstore.CANCELLED] - cancelled_before,
        )

    def shutdown(
        self, timeout_s: Optional[float] = 10.0
    ) -> DrainReport:
        """Drain, stop the workers, journal the shutdown record."""
        report = self.drain(timeout_s)
        for _ in self._workers:
            self._queue.put(_STOP)
        for thread in self._workers:
            thread.join(timeout=5.0)
        if self.store.journal is not None:
            self.store.journal.append({
                "event": "shutdown",
                "clean": report.clean,
                "cancelled": report.cancelled,
            })
            self.store.journal.close()
        return report

    # ------------------------------------------------------------------
    def recover(self, state: "jobstore.JobsJournalState") -> int:
        """Resubmit the resumable jobs of a previous server's journal.

        Returns how many were resubmitted (as fresh jobs — dedup and
        the run cache still apply, so recovering N identical pending
        jobs costs one execution).  Unresolvable specs (a machine or
        workload renamed since) are skipped, not fatal: recovery is
        best-effort by design.
        """
        resubmitted = 0
        for old in state.resumable:
            try:
                self.submit(_resubmit_payload(old.spec))
                resubmitted += 1
            except (JobSpecError, SchedulerClosed):
                continue
        if resubmitted and self.store.journal is not None:
            self.store.journal.append({
                "event": "recovered", "jobs": resubmitted,
            })
        return resubmitted


def _resubmit_payload(described: Dict[str, Any]) -> Dict[str, Any]:
    """A journaled job's ``describe()`` form, back into a submission."""
    def bare(token: str) -> str:
        return token.rpartition("@")[0] or token

    payload: Dict[str, Any] = {
        "kind": described.get("kind", "speedup"),
        "machine": described.get("machine"),
        "problem_class": described.get("problem_class", "B"),
        "scheduler": described.get("scheduler", "linux_default"),
    }
    if payload["kind"] in ("run", "speedup"):
        payload["workload"] = bare(described.get("workload") or "")
        payload["config"] = described.get("config")
    else:
        payload["experiment"] = described.get("experiment")
        workloads = [bare(t) for t in described.get("workloads", [])]
        if workloads:
            payload["workloads"] = workloads
    return payload
