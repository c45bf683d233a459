"""Tests for the write-ahead journal: lifecycle, replay, crash tears."""

import json
import os

import pytest

import repro
from repro import cli
from repro.supervise.journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalSchemaError,
    load_journal,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


class TestJournalWriter:
    def test_open_writes_header(self, tmp_path):
        j = Journal.open(tmp_path, selected=["fig2", "fig3"], jobs=2)
        j.close()
        state = load_journal(j.path)
        assert state.header["schema"] == JOURNAL_SCHEMA
        assert state.header["selected"] == ["fig2", "fig3"]
        assert state.header["jobs"] == 2
        assert state.empty

    def test_open_truncates_previous_journal(self, tmp_path):
        j1 = Journal.open(tmp_path)
        j1.task_started("old", wave=0)
        j1.close()
        j2 = Journal.open(tmp_path)
        j2.close()
        assert load_journal(j2.path).in_flight == []

    def test_lifecycle_records_replay(self, tmp_path):
        j = Journal.open(tmp_path, selected=["a", "b", "c", "d"])
        j.task_started("a", wave=0)
        j.task_started("b", wave=0)
        j.task_finished("a", wave=0, meta={"status": "ok", "wave": 0})
        j.task_failed("b", wave=0, failure={"error_type": "ValueError"})
        j.task_skipped("c", blocked_by=["b"])
        j.task_cancelled("d", reason="signal:SIGINT")
        j.wave_committed(0)
        j.close()

        state = load_journal(j.path)
        assert state.finished == {"a": {"status": "ok", "wave": 0}}
        assert state.failed["b"]["error_type"] == "ValueError"
        assert state.skipped == {"c": ["b"]}
        assert state.cancelled == {"d": "signal:SIGINT"}
        assert state.in_flight == []
        assert state.committed_waves == [0]
        assert not state.torn
        assert not state.empty

    def test_in_flight_is_started_minus_terminal(self, tmp_path):
        j = Journal.open(tmp_path)
        j.task_started("a", wave=0)
        j.task_started("b", wave=0)
        j.task_finished("a", wave=0, meta={})
        j.close()
        assert load_journal(j.path).in_flight == ["b"]

    def test_finalize_removes_the_file(self, tmp_path):
        j = Journal.open(tmp_path)
        j.finalize("complete")
        assert not j.path.exists()

    def test_append_after_close_is_noop(self, tmp_path):
        j = Journal.open(tmp_path)
        j.close()
        j.task_started("late", wave=0)  # must not raise or resurrect
        assert load_journal(j.path).in_flight == []

    def test_context_manager_closes(self, tmp_path):
        with Journal.open(tmp_path) as j:
            j.task_started("a", wave=0)
        assert j._fh is None

    def test_file_bytes_are_pinned(self, tmp_path):
        j = Journal.open(tmp_path, selected=["fig2", "fig3"], jobs=2)
        j.task_started("fig2", wave=0)
        j.task_finished("fig2", wave=0, meta={"status": "ok", "wave": 0})
        j.task_failed("fig3", wave=0, failure={"error_type": "ValueError"})
        j.task_skipped("table2", blocked_by=["fig3"])
        j.task_cancelled("fig4", reason="signal:SIGINT")
        j.wave_committed(0)
        j.close()
        assert j.path.read_text().splitlines() == [
            f'{{"jobs": 2, "package_version": "{repro.__version__}", '
            f'"pid": {os.getpid()}, "schema": 1, '
            f'"selected": ["fig2", "fig3"], "type": "run-started"}}',
            '{"id": "fig2", "type": "task-started", "wave": 0}',
            '{"id": "fig2", "meta": {"status": "ok", "wave": 0}, '
            '"type": "task-finished", "wave": 0}',
            '{"failure": {"error_type": "ValueError"}, "id": "fig3", '
            '"type": "task-failed", "wave": 0}',
            '{"blocked_by": ["fig3"], "id": "table2", '
            '"type": "task-skipped"}',
            '{"id": "fig4", "reason": "signal:SIGINT", '
            '"type": "task-cancelled"}',
            '{"type": "wave-committed", "wave": 0}',
        ]


class TestLoadJournalEdgeCases:
    def test_empty_file(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text("")
        state = load_journal(path)
        assert state.empty
        assert state.header is None
        assert not state.torn

    def test_torn_final_record_is_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            json.dumps({"type": "task-started", "id": "a", "wave": 0}),
            json.dumps({"type": "task-finished", "id": "a", "wave": 0,
                        "meta": {"status": "ok"}}),
        ])
        # Simulate the write a SIGKILL interrupted: half a JSON record.
        with open(path, "a") as fh:
            fh.write('{"type": "task-fini')
        state = load_journal(path)
        assert state.torn
        assert state.finished == {"a": {"status": "ok"}}

    def test_torn_middle_record_is_refused(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            "not json at all",
            json.dumps({"type": "task-started", "id": "a", "wave": 0}),
        ])
        with pytest.raises(JournalError, match="line 2"):
            load_journal(path)

    def test_non_object_record_is_refused(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, ["[1, 2, 3]", json.dumps({"type": "x"})])
        with pytest.raises(JournalError, match="not a record"):
            load_journal(path)

    @pytest.mark.parametrize("rtype", [
        "task-started", "task-finished", "task-failed", "task-skipped",
        "task-cancelled",
    ])
    def test_task_record_without_id_is_refused(self, tmp_path, rtype):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            json.dumps({"type": rtype, "wave": 0}),
        ])
        with pytest.raises(JournalError, match="line 2: .* no task id"):
            load_journal(path)

    @pytest.mark.parametrize("record, fragment", [
        ({"type": "task-finished", "id": "a", "wave": 0, "meta": "oops"},
         "task-finished record has no meta object"),
        ({"type": "wave-committed"}, "wave-committed record has no wave"),
    ], ids=["non-object-meta", "wave-without-number"])
    def test_malformed_record_field_is_refused(
        self, tmp_path, capsys, record, fragment
    ):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            json.dumps(record),
        ])
        with pytest.raises(JournalError, match=f"line 2: {fragment}"):
            load_journal(path)
        # `run-all --resume` reports it as a usage error, not a traceback.
        code = cli.main(["run-all", "--out", str(tmp_path), "--resume"])
        assert code == 2
        assert fragment in capsys.readouterr().err

    def test_newer_schema_is_refused_loudly(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({
                "type": "run-started", "schema": JOURNAL_SCHEMA + 1,
            }),
        ])
        with pytest.raises(JournalSchemaError, match="newer"):
            load_journal(path)

    def test_unknown_record_types_are_skipped(self, tmp_path):
        # Additive records from an older-or-equal schema must not break
        # this reader.
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            json.dumps({"type": "heartbeat", "t": 12.5}),
            json.dumps({"type": "task-finished", "id": "a", "wave": 0,
                        "meta": {"status": "ok"}}),
        ])
        state = load_journal(path)
        assert state.finished == {"a": {"status": "ok"}}

    def test_missing_file_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            load_journal(tmp_path / JOURNAL_NAME)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            "",
            json.dumps({"type": "run-finished", "status": "complete"}),
        ])
        state = load_journal(path)
        assert state.run_finished == "complete"
