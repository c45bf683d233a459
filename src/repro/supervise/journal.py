"""Crash-safe write-ahead journaling for ``run-all`` and ``repro serve``.

One append-only, fsync'd JSONL writer (:class:`Journal`) and one reader
(:func:`read_journal`) serve both journal files, so a process SIGKILLed
mid-run leaves something machine-readable behind:

* ``manifest.wal.jsonl``, next to a campaign's manifest, replayed by
  :func:`load_journal` for ``run-all --resume``.  Records name their
  kind in ``type``: the ``run-started`` header (schema, package
  version, pid, selected ids); per experiment a ``task-started`` and
  one of ``task-finished`` / ``-failed`` / ``-skipped`` /
  ``-cancelled`` (``task-finished`` carries the full manifest row and
  is appended only *after* the artifacts are durably on disk);
  ``wave-committed``; and ``run-finished``, after which the manifest
  exists and the journal is deleted.
* ``jobs.wal.jsonl``, in a server's state directory, replayed by
  :func:`repro.serve.store.load_jobs_journal`.  Records name their
  kind in ``event``; ``server-started`` is the header.

The reader ignores a torn final record (the write a crash interrupted)
and refuses, rather than guesses at, anything else it cannot trust:
:class:`JournalError` names the bad line, and a journal written by a
newer schema raises :class:`JournalSchemaError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import (
    Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "JOURNAL_ENV",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "Field",
    "Journal",
    "JournalError",
    "JournalSchemaError",
    "JournalState",
    "load_journal",
    "read_journal",
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

#: Header record kinds; their ``schema`` is checked on every read.
HEADER_KINDS = ("run-started", "server-started")


class JournalError(ValueError):
    """The journal is unreadable or structurally invalid."""


class JournalSchemaError(JournalError):
    """The journal was written by a newer schema than this package."""


class Journal:
    """Append-only writer: truncates ``path``, writes ``header``, then
    flushes and fsyncs every record under a lock (server threads share
    one journal).  Appends after :meth:`close` are dropped."""

    def __init__(self, path: Path, header: Dict[str, Any]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh: Optional[Any] = open(self.path, "w", encoding="utf-8")
        self.append(header)

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

        return cls(Path(out_dir) / JOURNAL_NAME, {
            "type": "run-started",
            "schema": JOURNAL_SCHEMA,
            "package_version": repro.__version__,
            "pid": os.getpid(),
            "selected": list(selected or []),
            "jobs": jobs,
        })

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (no-op after :meth:`close`)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
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
        with self._lock:
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
class Field(NamedTuple):
    """A field that records of one kind carry: ``accepts`` is its type
    or its allowed values; an optional field may be absent."""

    name: str
    label: str
    accepts: Any
    required: bool = True

    def holds(self, record: Dict[str, Any]) -> bool:
        if self.name not in record:
            return not self.required
        value = record[self.name]
        if isinstance(self.accepts, type):
            return isinstance(value, self.accepts)
        return value in self.accepts


def read_journal(
    path: Path, fields: Mapping[str, Sequence[Field]]
) -> Tuple[List[Dict[str, Any]], bool]:
    """A journal's records, in order, and whether its final line was torn
    (the write a crash interrupted, which is dropped).  Refuses an
    unreadable file, a corrupt earlier line, a record that is not an
    object or breaks its kind's ``fields`` rules, and a newer schema."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"journal {path} line {index + 1}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                # The write the crash interrupted: expected, ignorable.
                return records, True
            raise JournalError(
                f"{where} is corrupt (not valid JSON, and not the final "
                f"record)"
            ) from None
        if not isinstance(record, dict):
            raise JournalError(f"{where} is not a record object")
        kind = record.get("type", record.get("event"))
        if kind in HEADER_KINDS:
            schema = record.get("schema")
            if not isinstance(schema, int) or schema > JOURNAL_SCHEMA:
                raise JournalSchemaError(
                    f"journal {path} uses schema {schema!r}, newer than "
                    f"this package understands (<= {JOURNAL_SCHEMA}); "
                    f"refusing to read it — upgrade the package"
                )
        for field in fields.get(kind, ()) if isinstance(kind, str) else ():
            if not field.holds(record):
                raise JournalError(
                    f"{where}: {kind} record has no {field.label}"
                )
        records.append(record)
    return records, False


_TASK_ID = Field("id", "task id", str)

#: Field rules of the campaign journal's record kinds.
TASK_FIELDS: Dict[str, Sequence[Field]] = {
    "task-started": (_TASK_ID,),
    "task-finished": (_TASK_ID, Field("meta", "meta object", dict, False)),
    "task-failed": (_TASK_ID,),
    "task-skipped": (_TASK_ID,),
    "task-cancelled": (_TASK_ID,),
    "wave-committed": (Field("wave", "wave number", int),),
}


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


def load_journal(path: Path) -> JournalState:
    """Replay a campaign journal into a :class:`JournalState`
    (:func:`read_journal` decides what is readable)."""
    records, torn = read_journal(path, TASK_FIELDS)
    state = JournalState(path=Path(path), torn=torn)
    started: List[str] = []
    for record in records:
        rtype = record.get("type")
        task_id = record.get("id")
        if rtype == "run-started":
            state.header = record
        elif rtype == "task-started":
            started.append(task_id)
        elif rtype == "task-finished":
            state.finished[task_id] = record.get("meta", {})
        elif rtype == "task-failed":
            state.failed[task_id] = record.get("failure", {})
        elif rtype == "task-skipped":
            state.skipped[task_id] = list(record.get("blocked_by", []))
        elif rtype == "task-cancelled":
            state.cancelled[task_id] = record.get("reason", "")
        elif rtype == "wave-committed":
            state.committed_waves.append(record["wave"])
        elif rtype == "run-finished":
            state.run_finished = record.get("status")
        # Unknown record types from an *older-or-equal* schema are
        # skipped: additive records must not break old readers.
    done = {**state.finished, **state.failed, **state.skipped,
            **state.cancelled}
    state.in_flight = [i for i in started if i not in done]
    return state
