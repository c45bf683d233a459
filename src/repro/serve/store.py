"""Job records, the thread-safe job store, and the serve journal's fold.

The store is the daemon's source of truth for job *state*; results live
on the executions (and in the content-addressed run cache underneath).
Every state transition can be journaled to ``jobs.wal.jsonl`` in the
server's state directory by the write-ahead journal's writer and reader
(:mod:`repro.supervise.journal`, which owns the file discipline): a
SIGKILLed server leaves a journal from which
:func:`load_jobs_journal` reconstructs every job's last known state,
and the scheduler resubmits the non-terminal ones on the next boot.

Memory stays bounded however long the daemon runs: the store keeps at
most :data:`MAX_TERMINAL_JOBS` terminal jobs (oldest evicted first; a
lookup of an evicted id is told it expired) and keeps per-state counts
as it goes, so the counts cover every job ever submitted, evicted ones
included.  The journal still records every event.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.supervise.journal import Field, Journal, read_journal

__all__ = [
    "JOBS_JOURNAL_NAME",
    "Job",
    "JobJournal",
    "JobStore",
    "JobsJournalState",
    "MAX_TERMINAL_JOBS",
    "TERMINAL_STATES",
    "load_jobs_journal",
]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, FAILED, CANCELLED)
STATES = (QUEUED, RUNNING) + TERMINAL_STATES

JOBS_JOURNAL_NAME = "jobs.wal.jsonl"

#: Terminal jobs the store retains for ``GET``; older ones are evicted
#: (their results with them) and answer 404 "expired".
MAX_TERMINAL_JOBS = 2048


@dataclass
class Job:
    """One client submission (several may share one execution)."""

    id: str
    key: str
    spec: Dict[str, Any]
    state: str = QUEUED
    #: How the job was (or will be) satisfied: ``executed`` (it owns
    #: the engine run), ``dedup`` (coalesced onto an in-flight
    #: execution), ``cache`` (answered from the run cache / result memo
    #: without entering the worker pool), ``recovered`` (resubmitted
    #: from a previous server's journal).
    source: str = "executed"
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Failure payload (``error_type``/``message``/``traceback``) —
    #: the same shape as the pipeline's ``ExperimentFailure``.
    error: Optional[Dict[str, Any]] = None
    #: Supervision provenance: why a cancelled job was cancelled.
    reason: Optional[str] = None
    #: A done job's result payload (shared with other jobs of its key).
    result: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def describe(self) -> Dict[str, Any]:
        """The wire form returned by ``GET /jobs/<id>``."""
        out: Dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "spec": dict(self.spec),
        }
        if self.latency_s is not None:
            out["latency_s"] = round(self.latency_s, 6)
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# Exists only as perfbench's own target for serve appends; it goes away
# with ROADMAP item 1.
class JobJournal(Journal):
    append = Journal.append


@dataclass
class JobsJournalState:
    """What a serve journal says happened, for recovery and tests."""

    #: Last known state per job id.
    jobs: Dict[str, Job]
    #: Was a ``shutdown`` record written (the drain completed)?
    clean_shutdown: bool = False
    #: Jobs force-cancelled by the shutdown drain.
    drain_cancelled: int = 0

    @property
    def resumable(self) -> List[Job]:
        """Jobs that never reached a terminal state (resubmit these),
        oldest first."""
        return [j for j in self.jobs.values() if not j.terminal]


_JOB_ID = Field("job", "job id", str)

#: Field rules of the serve journal's record kinds.
JOB_FIELDS: Dict[str, Sequence[Field]] = {
    "submitted": (_JOB_ID, Field("spec", "spec object", dict, False)),
    "state": (_JOB_ID, Field("state", "lifecycle state", STATES)),
}


def load_jobs_journal(path: Path) -> Optional[JobsJournalState]:
    """Reconstruct job states from a serve journal (None if absent);
    :func:`~repro.supervise.journal.read_journal` decides what is
    readable."""
    path = Path(path)
    if not path.exists():
        return None
    records, _ = read_journal(path, JOB_FIELDS)
    state = JobsJournalState(jobs={})
    for record in records:
        event = record.get("event")
        job_id = record.get("job")
        if event == "submitted":
            state.jobs[job_id] = Job(
                id=job_id, key=record.get("key", ""),
                spec=record.get("spec", {}),
                state=QUEUED, source=record.get("source", "executed"),
            )
        elif event == "state":
            job = state.jobs.get(job_id)
            if job is not None:
                job.state = record["state"]
                job.source = record.get("source", job.source)
                job.error = record.get("error", job.error)
                job.reason = record.get("reason", job.reason)
        elif event == "shutdown":
            state.clean_shutdown = True
            state.drain_cancelled = record.get("cancelled", 0)
    return state


class JobStore:
    """Thread-safe job registry with optional journaling.

    Holds every non-terminal job and the newest
    :data:`MAX_TERMINAL_JOBS` terminal ones.
    """

    def __init__(self, journal: Optional[JobJournal] = None):
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        #: Jobs ever submitted; the newest job's id is ``j<issued>``.
        self._issued = 0
        #: Retained terminal job ids, oldest first.
        self._terminal: deque = deque()
        self._counts: Dict[str, int] = {
            QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, CANCELLED: 0,
        }
        self.journal = journal

    # ------------------------------------------------------------------
    def new_job(
        self, key: str, spec: Dict[str, Any], source: str = "executed"
    ) -> Job:
        with self._lock:
            self._issued += 1
            job_id = f"j{self._issued:06d}"
            job = Job(id=job_id, key=key, spec=spec, source=source)
            self._jobs[job_id] = job
            self._counts[QUEUED] += 1
        if self.journal is not None:
            self.journal.append({
                "event": "submitted", "job": job.id, "key": key,
                "spec": spec, "source": source,
            })
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def expired(self, job_id: str) -> bool:
        """Was ``job_id`` issued here and since evicted?"""
        digits = job_id[1:]
        if not (job_id[:1] == "j" and digits.isdigit()):
            return False
        n = int(digits)
        with self._lock:
            return (
                job_id == f"j{n:06d}" and 0 < n <= self._issued
                and job_id not in self._jobs
            )

    def transition(
        self,
        job: Job,
        state: str,
        source: Optional[str] = None,
        error: Optional[Dict[str, Any]] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Move a job to ``state`` (journaled).  Caller must hold the
        scheduler lock for compound transitions; the store itself only
        guarantees each transition is internally consistent."""
        with self._lock:
            self._counts[job.state] -= 1
            self._counts[state] += 1
            if state in TERMINAL_STATES and not job.terminal:
                self._terminal.append(job.id)
                while len(self._terminal) > MAX_TERMINAL_JOBS:
                    del self._jobs[self._terminal.popleft()]
            job.state = state
        if source is not None:
            job.source = source
        if error is not None:
            job.error = error
        if reason is not None:
            job.reason = reason
        if state == RUNNING and job.started_at is None:
            job.started_at = time.monotonic()
        if state in TERMINAL_STATES and job.finished_at is None:
            job.finished_at = time.monotonic()
        if self.journal is not None:
            record: Dict[str, Any] = {
                "event": "state", "job": job.id, "state": state,
                "source": job.source,
            }
            if error is not None:
                record["error"] = error
            if reason is not None:
                record["reason"] = reason
            self.journal.append(record)

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Jobs per state over every job ever submitted, evicted ones
        included (one consistent snapshot)."""
        with self._lock:
            out = dict(self._counts)
            out["submitted"] = self._issued
            return out

    def jobs(self) -> List[Job]:
        """The retained jobs, oldest submission first."""
        with self._lock:
            return list(self._jobs.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
