"""Wall-time budgets: deadlines for a whole campaign and each experiment.

A :class:`Budget` is a declarative pair of timeouts — one for the whole
``run-all`` campaign, one per experiment — created from the CLI's
``--timeout`` / ``--experiment-timeout`` flags.  It stays inert (no
deadline) until :meth:`Budget.arm` stamps the campaign start time;
armed budgets travel to pool workers by pickling (``time.monotonic`` is
the system-wide ``CLOCK_MONOTONIC`` on Linux, so absolute deadlines
compare correctly across processes on one host).

Enforcement is split between two mechanisms, both reading the same
budget:

* **cooperatively** — the :class:`~repro.supervise.observer.
  SupervisionObserver` checks the current task/run deadline at every
  engine step and phase boundary, raising :class:`DeadlineExceeded`
  with provenance (what timed out, by how much);
* **preemptively** — :func:`repro.sim.parallel.parallel_map` uses the
  per-experiment timeout as its hung-worker watchdog, so a worker that
  never reaches a cooperative check point (stuck in a syscall, an
  injected ``hang`` fault) is killed and rescheduled from outside.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Optional

__all__ = [
    "Budget",
    "BudgetError",
    "DeadlineExceeded",
]


class BudgetError(ValueError):
    """A malformed timeout value."""


class DeadlineExceeded(RuntimeError):
    """A supervised run overran its wall-time budget.

    Raised cooperatively at engine step/phase boundaries and at
    pipeline task boundaries.  Inside the experiment pipeline it is
    contained like any other failure — the experiment is recorded as
    failed (``error_type: DeadlineExceeded``), its dependents are
    skipped, and the campaign stays resumable.
    """


@dataclasses.dataclass(frozen=True)
class Budget:
    """Wall-time limits for one campaign.

    ``run_timeout_s`` bounds the whole pipeline run; ``experiment_
    timeout_s`` bounds each experiment individually.  Either may be
    None (unbounded).  ``started_at`` is the campaign's start on the
    monotonic clock; until :meth:`arm` sets it, the budget carries
    intent but enforces nothing.
    """

    run_timeout_s: Optional[float] = None
    experiment_timeout_s: Optional[float] = None
    started_at: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("run_timeout_s", "experiment_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise BudgetError(f"{name} must be > 0, got {value}")

    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        return self.started_at is not None

    @property
    def bounded(self) -> bool:
        """Does this budget limit anything at all?"""
        return (
            self.run_timeout_s is not None
            or self.experiment_timeout_s is not None
        )

    def arm(self, now: Optional[float] = None) -> "Budget":
        """Stamp the campaign start time (idempotent once armed)."""
        if self.armed:
            return self
        return dataclasses.replace(
            self, started_at=time.monotonic() if now is None else now
        )

    # ------------------------------------------------------------------
    @property
    def run_deadline(self) -> Optional[float]:
        """Absolute monotonic deadline of the whole campaign."""
        if self.started_at is None or self.run_timeout_s is None:
            return None
        return self.started_at + self.run_timeout_s

    def experiment_deadline(
        self, started: Optional[float] = None
    ) -> Optional[float]:
        """Absolute deadline for an experiment starting at ``started``:
        the earlier of its own allowance and the campaign deadline."""
        started = time.monotonic() if started is None else started
        candidates = []
        if self.experiment_timeout_s is not None:
            candidates.append(started + self.experiment_timeout_s)
        if self.run_deadline is not None:
            candidates.append(self.run_deadline)
        return min(candidates) if candidates else None

    def run_overdrawn(self, now: Optional[float] = None) -> bool:
        deadline = self.run_deadline
        if deadline is None:
            return False
        return (time.monotonic() if now is None else now) > deadline

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The manifest form: configured timeouts only.

        Absolute deadlines are deliberately excluded — they differ
        between an interrupted run and its resume, and the manifest
        must stay byte-identical modulo timings.
        """
        return {
            "run_timeout_s": self.run_timeout_s,
            "experiment_timeout_s": self.experiment_timeout_s,
        }

