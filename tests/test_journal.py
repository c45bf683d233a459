"""Tests for the write-ahead journal: the writer, and the reader's
handling of crash tears and malformed records (with serve's fields)."""

import json
import os

import pytest

from repro.serve.store import JOB_FIELDS, JOBS_JOURNAL_NAME
from repro.supervise.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalSchemaError,
    read_journal,
)

HEADER = {"event": "server-started", "schema": JOURNAL_SCHEMA}
SUBMITTED = {"event": "submitted", "job": "j000001", "key": "k",
             "spec": {}}


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def read(path):
    return read_journal(path, JOB_FIELDS)


class TestJournalWriter:
    def test_open_truncates_previous_journal(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        j1 = Journal(path, HEADER)
        j1.append(SUBMITTED)
        j1.close()
        Journal(path, HEADER).close()
        assert read(path) == ([HEADER], False)

    def test_append_after_close_is_noop(self, tmp_path):
        j = Journal(tmp_path / JOBS_JOURNAL_NAME, HEADER)
        j.close()
        j.append(SUBMITTED)  # must not raise or resurrect
        assert read(j.path) == ([HEADER], False)

    def test_context_manager_closes(self, tmp_path):
        with Journal(tmp_path / JOBS_JOURNAL_NAME, HEADER) as j:
            j.append(SUBMITTED)
        assert j._fh is None

    def test_file_bytes_are_pinned(self, tmp_path):
        j = Journal(tmp_path / JOBS_JOURNAL_NAME, {
            "event": "server-started", "schema": JOURNAL_SCHEMA,
            "pid": os.getpid(),
        })
        j.append(SUBMITTED)
        j.append({"event": "state", "job": "j000001", "state": "failed",
                  "error": {"error_type": "ValueError"}})
        j.append({"event": "shutdown", "clean": True, "cancelled": 0})
        j.close()
        assert j.path.read_text().splitlines() == [
            f'{{"event": "server-started", "pid": {os.getpid()}, '
            f'"schema": 1}}',
            '{"event": "submitted", "job": "j000001", "key": "k", '
            '"spec": {}}',
            '{"error": {"error_type": "ValueError"}, "event": "state", '
            '"job": "j000001", "state": "failed"}',
            '{"cancelled": 0, "clean": true, "event": "shutdown"}',
        ]


class TestLoadJournalEdgeCases:
    def test_empty_file(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        path.write_text("")
        assert read(path) == ([], False)

    def test_torn_final_record_is_tolerated(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        write_lines(path, [json.dumps(HEADER), json.dumps(SUBMITTED)])
        # Simulate the write a SIGKILL interrupted: half a JSON record.
        with open(path, "a") as fh:
            fh.write('{"event": "sta')
        assert read(path) == ([HEADER, SUBMITTED], True)

    def test_torn_middle_record_is_refused(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        write_lines(path, [
            json.dumps(HEADER), "not json at all", json.dumps(SUBMITTED),
        ])
        with pytest.raises(JournalError, match="line 2"):
            read(path)

    def test_non_object_record_is_refused(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        write_lines(path, ["[1, 2, 3]", json.dumps({"event": "x"})])
        with pytest.raises(JournalError, match="not a record"):
            read(path)

    @pytest.mark.parametrize("event", ["submitted", "state"])
    def test_record_without_job_id_is_refused(self, tmp_path, event):
        path = tmp_path / JOBS_JOURNAL_NAME
        write_lines(path, [
            json.dumps(HEADER),
            json.dumps({"event": event, "state": "done"}),
        ])
        with pytest.raises(JournalError, match="line 2: .* no job id"):
            read(path)

    @pytest.mark.parametrize("record, fragment", [
        ({"event": "submitted", "job": "j000001", "spec": "oops"},
         "submitted record has no spec object"),
        ({"event": "state", "job": "j000001", "state": "bogus"},
         "state record has no lifecycle state"),
    ], ids=["non-object-spec", "unknown-state"])
    def test_malformed_record_field_is_refused(
        self, tmp_path, record, fragment
    ):
        path = tmp_path / JOBS_JOURNAL_NAME
        write_lines(path, [json.dumps(HEADER), json.dumps(record)])
        with pytest.raises(JournalError, match=f"line 2: {fragment}"):
            read(path)

    def test_newer_schema_is_refused_loudly(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        write_lines(path, [
            json.dumps(dict(HEADER, schema=JOURNAL_SCHEMA + 1)),
        ])
        with pytest.raises(JournalSchemaError, match="newer"):
            read(path)

    def test_unknown_record_types_are_skipped(self, tmp_path):
        # Additive records from an older-or-equal schema must not break
        # this reader.
        path = tmp_path / JOBS_JOURNAL_NAME
        heartbeat = {"event": "heartbeat", "t": 12.5}
        write_lines(path, [
            json.dumps(HEADER), json.dumps(heartbeat),
            json.dumps(SUBMITTED),
        ])
        assert read(path) == ([HEADER, heartbeat, SUBMITTED], False)

    def test_missing_file_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            read(tmp_path / JOBS_JOURNAL_NAME)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / JOBS_JOURNAL_NAME
        shutdown = {"event": "shutdown", "clean": True}
        write_lines(path, [json.dumps(HEADER), "", json.dumps(shutdown)])
        assert read(path) == ([HEADER, shutdown], False)
