"""Crash-safe write-ahead journaling for ``run-all`` campaigns.

The pipeline's manifest is written once, at the end of a campaign — so
a run SIGKILLed mid-wave used to leave nothing machine-readable behind
and ``--resume`` refused to touch the directory.  The journal closes
that gap: an append-only, fsync'd record stream
(``manifest.wal.jsonl`` next to the manifest) written *as the campaign
progresses*:

* ``run-started`` — header: journal schema, package version, pid, the
  selected experiment ids;
* ``task-started`` / ``task-finished`` / ``task-failed`` /
  ``task-skipped`` / ``task-cancelled`` — one per experiment outcome;
  ``task-finished`` carries the experiment's full manifest row, and is
  appended only *after* its ``<id>.txt`` / ``<id>.json`` artifacts are
  durably on disk, so a finished record always has artifacts to match;
* ``wave-committed`` — a wave's outcomes are all journaled;
* ``run-finished`` — terminal status (after this the manifest exists
  and the journal is deleted).

Recovery (:func:`load_journal`) is tolerant exactly where a crash can
tear and loud exactly where guessing would be dangerous: a truncated
final record (the write the crash interrupted) is ignored; records
after the first torn line are never trusted; a journal written by a
*newer* schema raises :class:`JournalSchemaError` instead of being
misread.  ``load_resume_state`` uses this to resume a killed campaign
with no completed manifest at all — finished experiments are recovered
verbatim from their journaled rows + artifacts, in-flight ones re-run.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "JOURNAL_ENV",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalSchemaError",
    "JournalState",
    "load_journal",
]

#: Journal file name, next to ``manifest.json`` in the output directory.
JOURNAL_NAME = "manifest.wal.jsonl"

#: Set to ``0`` to disable write-ahead journaling in ``run-all`` (the
#: escape hatch for filesystems where per-record fsync is punitive, and
#: for A/B-measuring journal overhead).
JOURNAL_ENV = "REPRO_JOURNAL"

#: Bumped on incompatible record-layout changes.  A journal stamped
#: with a *higher* schema than the running package understands is
#: refused loudly (:class:`JournalSchemaError`) — silently misreading
#: someone else's WAL is how resumes corrupt campaigns.
JOURNAL_SCHEMA = 1


class JournalError(RuntimeError):
    """The journal is unreadable or structurally invalid."""


class JournalSchemaError(JournalError):
    """The journal was written by a newer schema than this package."""


class Journal:
    """Append-only writer; every record is flushed and fsync'd.

    One campaign, one writer: pool workers return their outcomes to
    the pipeline process, which is the only appender — no locking or
    interleaving to reason about.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh: Optional[Any] = None

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        out_dir: Path,
        selected: Optional[List[str]] = None,
        jobs: Optional[int] = None,
    ) -> "Journal":
        """Start a fresh journal for a campaign in ``out_dir``.

        Truncates any previous WAL — a new run supersedes whatever an
        earlier crash left behind (its useful content was already
        consumed by ``--resume`` or is being recomputed right now).
        """
        import repro

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        journal = cls(out_dir / JOURNAL_NAME)
        journal._fh = open(journal.path, "w", encoding="utf-8")
        journal.append({
            "type": "run-started",
            "schema": JOURNAL_SCHEMA,
            "package_version": repro.__version__,
            "pid": os.getpid(),
            "selected": list(selected or []),
            "jobs": jobs,
        })
        return journal

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (no-op after :meth:`close`)."""
        if self._fh is None:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def task_started(self, exp_id: str, wave: int) -> None:
        self.append({"type": "task-started", "id": exp_id, "wave": wave})

    def task_finished(
        self, exp_id: str, wave: int, meta: Dict[str, Any]
    ) -> None:
        """Record a completed experiment *after* its artifacts landed."""
        self.append({
            "type": "task-finished", "id": exp_id, "wave": wave,
            "meta": meta,
        })

    def task_failed(
        self, exp_id: str, wave: int, failure: Dict[str, Any]
    ) -> None:
        self.append({
            "type": "task-failed", "id": exp_id, "wave": wave,
            "failure": failure,
        })

    def task_skipped(self, exp_id: str, blocked_by: List[str]) -> None:
        self.append({
            "type": "task-skipped", "id": exp_id, "blocked_by": blocked_by,
        })

    def task_cancelled(self, exp_id: str, reason: str) -> None:
        self.append({
            "type": "task-cancelled", "id": exp_id, "reason": reason,
        })

    def wave_committed(self, wave: int) -> None:
        self.append({"type": "wave-committed", "wave": wave})

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def finalize(self, status: str) -> None:
        """Terminal success path: the manifest is durably written, so
        the WAL has nothing left to say — record the outcome, then
        remove the file.  (A crash between the manifest write and the
        unlink leaves both; the loader prefers the manifest.)"""
        self.append({"type": "run-finished", "status": status})
        self.close()
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - nothing useful to do
            pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
@dataclasses.dataclass
class JournalState:
    """Everything recoverable from a (possibly torn) journal."""

    path: Path
    header: Optional[Dict[str, Any]] = None
    #: experiment id -> journaled manifest row (``task-finished``).
    finished: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )
    failed: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )
    skipped: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    cancelled: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: ids with a ``task-started`` but no terminal record: in flight at
    #: the crash — exactly the work a resume must re-run.
    in_flight: List[str] = dataclasses.field(default_factory=list)
    committed_waves: List[int] = dataclasses.field(default_factory=list)
    run_finished: Optional[str] = None
    #: True when the final line was torn (the interrupted write).
    torn: bool = False

    @property
    def empty(self) -> bool:
        """No per-task records survived (e.g. killed right at startup)."""
        return not (
            self.finished or self.failed or self.skipped
            or self.cancelled or self.in_flight
        )


#: Record types that name a task and so must carry its ``id``.
_TASK_RECORDS = (
    "task-started", "task-finished", "task-failed", "task-skipped",
    "task-cancelled",
)


def load_journal(path: Path) -> JournalState:
    """Replay a journal into a :class:`JournalState`.

    Tolerates the tears a crash actually produces — a truncated final
    line, a file with only the header, an empty file — and refuses the
    cases where guessing is unsafe: unreadable file, non-JSONL content
    before the final line, or a newer journal schema.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None

    state = JournalState(path=path)
    lines = text.splitlines()
    started: List[str] = []
    done: set = set()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                # The write the crash interrupted: expected, ignorable.
                state.torn = True
                break
            raise JournalError(
                f"journal {path} is corrupt at line {index + 1} "
                f"(not valid JSON, and not the final record)"
            ) from None
        if not isinstance(record, dict):
            raise JournalError(
                f"journal {path} line {index + 1} is not a record object"
            )
        rtype = record.get("type")
        task_id = record.get("id")
        if rtype in _TASK_RECORDS and not isinstance(task_id, str):
            raise JournalError(
                f"journal {path} line {index + 1}: {rtype} record has no "
                f"task id"
            )
        if rtype == "run-started":
            schema = record.get("schema")
            if not isinstance(schema, int) or schema > JOURNAL_SCHEMA:
                raise JournalSchemaError(
                    f"journal {path} uses schema {schema!r}, newer than "
                    f"this package understands (<= {JOURNAL_SCHEMA}); "
                    f"refusing to resume from it — upgrade the package "
                    f"or start a fresh run"
                )
            state.header = record
        elif rtype == "task-started":
            started.append(task_id)
        elif rtype == "task-finished":
            state.finished[task_id] = record.get("meta", {})
            done.add(task_id)
        elif rtype == "task-failed":
            state.failed[task_id] = record.get("failure", {})
            done.add(task_id)
        elif rtype == "task-skipped":
            state.skipped[task_id] = list(record.get("blocked_by", []))
            done.add(task_id)
        elif rtype == "task-cancelled":
            state.cancelled[task_id] = record.get("reason", "")
            done.add(task_id)
        elif rtype == "wave-committed":
            state.committed_waves.append(record["wave"])
        elif rtype == "run-finished":
            state.run_finished = record.get("status")
        # Unknown record types from an *older-or-equal* schema are
        # skipped: additive records must not break old readers.
    state.in_flight = [i for i in started if i not in done]
    return state
