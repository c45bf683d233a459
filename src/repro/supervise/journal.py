"""Crash-safe write-ahead journaling for ``repro serve``.

One append-only, fsync'd JSONL writer (:class:`Journal`) and one reader
(:func:`read_journal`) for a server's ``jobs.wal.jsonl``, so a daemon
SIGKILLed mid-run leaves something machine-readable behind; it is
replayed by :func:`repro.serve.store.load_jobs_journal`.  Records name
their kind in ``event``; ``server-started`` is the header.

The reader ignores a torn final record (the write a crash interrupted)
and refuses, rather than guesses at, anything else it cannot trust:
:class:`JournalError` names the bad line, and a journal written by a
newer schema raises :class:`JournalSchemaError`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import (
    Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "Field",
    "Journal",
    "JournalError",
    "JournalSchemaError",
    "read_journal",
]

#: Bumped on incompatible record-layout changes.  A journal stamped
#: with a *higher* schema than the running package understands is
#: refused loudly (:class:`JournalSchemaError`) — silently misreading
#: someone else's WAL is how recoveries corrupt state.
JOURNAL_SCHEMA = 1

#: Header record kinds; their ``schema`` is checked on every read.
HEADER_KINDS = ("server-started",)


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

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (no-op after :meth:`close`)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

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
        kind = record.get("event")
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

