"""Simulation-as-a-service: the ``repro serve`` daemon.

An HTTP/JSON front end (stdlib ``http.server``, no new dependencies)
over an asynchronous, dedup-aware job scheduler:

* submissions are content-addressed — identical jobs in flight coalesce
  onto one engine execution whose result fans out to every waiter;
* warm jobs are answered straight from the content-addressed run cache
  without ever entering the worker pool;
* every job runs under the supervision machinery (cooperative
  cancellation, per-job wall-time budgets) and every state transition
  can be journaled to a crash-safe ``jobs.wal.jsonl`` for resumable
  restarts, by the same write-ahead journal as ``run-all``
  (:mod:`repro.supervise.journal`).

See ``docs/SERVING.md`` for the API reference and operations notes.
"""

from repro.serve.app import ServeApp, serve_forever
from repro.serve.runner import JobRunner
from repro.serve.schema import (
    JOB_KINDS,
    JobSpec,
    JobSpecError,
    job_key,
    parse_job,
)
from repro.serve.scheduler import DrainReport, Scheduler, SchedulerClosed
from repro.serve.store import (
    JOBS_JOURNAL_NAME,
    Job,
    JobStore,
    JobsJournalState,
    TERMINAL_STATES,
    load_jobs_journal,
)

__all__ = [
    "JOB_KINDS",
    "JOBS_JOURNAL_NAME",
    "DrainReport",
    "Job",
    "JobRunner",
    "JobSpec",
    "JobSpecError",
    "JobStore",
    "JobsJournalState",
    "Scheduler",
    "SchedulerClosed",
    "ServeApp",
    "TERMINAL_STATES",
    "job_key",
    "load_jobs_journal",
    "parse_job",
    "serve_forever",
]
