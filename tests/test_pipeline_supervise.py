"""Pipeline-level supervision: deadlines, cancellation, journal resume.

``test_pipeline_faults.py`` covers failure isolation and manifest-based
resume; this module covers the supervision layer on top — budgets and
cancellation flowing through ``run_pipeline``, the write-ahead journal,
and resuming a run that never wrote a manifest.
"""

import json

import pytest

from repro import supervise
from repro.core.context import RunContext
from repro.experiments.pipeline import (
    EXIT_CANCELLED,
    ExperimentCancellation,
    MANIFEST_SCHEMA,
    ResumeError,
    load_resume_state,
    run_pipeline,
    write_artifacts,
)
from repro.supervise import Budget, Journal
from repro.supervise.journal import JOURNAL_NAME, JOURNAL_SCHEMA, load_journal

CHEAP = ["sec3-lmbench", "omp-overheads"]
DEP_CHAIN = ["fig3", "table2"]


class TestCancellation:
    def test_pretripped_token_cancels_everything(self):
        supervise.token().cancel("drill")
        out = run_pipeline(RunContext(), only=CHEAP)
        assert not out.records and not out.failures
        assert sorted(out.cancelled) == sorted(CHEAP)
        assert out.cancelled["sec3-lmbench"].reason == "drill"
        assert not out.ok
        assert out.exit_code == EXIT_CANCELLED

    def test_cancellation_mid_wave_stops_later_tasks(self, monkeypatch):
        # The first experiment cancels the campaign from inside; the
        # next serial task must not start.
        from repro.experiments import sec3_lmbench

        real = sec3_lmbench.run

        def cancel_then_run(ctx):
            supervise.token().cancel("operator stop")
            return real(ctx)

        monkeypatch.setattr(sec3_lmbench, "run", cancel_then_run)
        out = run_pipeline(RunContext(), only=CHEAP)
        # The cancelling experiment itself completed (cooperative drain
        # honours finished work); its successor was cancelled.
        assert "sec3-lmbench" in out.records
        assert "omp-overheads" in out.cancelled
        assert out.cancelled["omp-overheads"].reason == "operator stop"

    def test_keyboard_interrupt_becomes_cancellation(self, monkeypatch):
        from repro.experiments import sec3_lmbench

        def interrupted(ctx):
            raise KeyboardInterrupt

        monkeypatch.setattr(sec3_lmbench, "run", interrupted)
        out = run_pipeline(RunContext(), only=CHEAP)
        assert out.cancelled["sec3-lmbench"].reason == "keyboard interrupt"
        # The token is set, so everything after it cancels too.
        assert "omp-overheads" in out.cancelled
        assert supervise.token().cancelled
        assert out.exit_code == EXIT_CANCELLED

    def test_cancelled_manifest_shape(self):
        supervise.token().cancel("drill")
        out = run_pipeline(RunContext(), only=CHEAP)
        m = out.manifest
        assert m["schema"] == MANIFEST_SCHEMA
        assert m["status"] == "cancelled"
        entry = m["cancelled"]["sec3-lmbench"]
        assert entry["reason"] == "drill"
        assert entry["wave"] == 0
        assert m["experiments"] == {}

    def test_cancelled_run_is_resumable(self, tmp_path, monkeypatch):
        from repro.experiments import omp_overheads

        real = omp_overheads.run

        def cancel_after(ctx):
            result = real(ctx)
            supervise.token().cancel("late stop")
            return result

        monkeypatch.setattr(omp_overheads, "run", cancel_after)
        first = run_pipeline(
            RunContext(), only=["omp-overheads"] + DEP_CHAIN
        )
        write_artifacts(first, tmp_path)
        assert first.exit_code == EXIT_CANCELLED
        assert "omp-overheads" in first.records
        # table2 (wave 1) was cancelled; everything wave 0 finished.
        assert "table2" in first.cancelled

        supervise.reset()
        monkeypatch.setattr(omp_overheads, "run", real)
        resumed = run_pipeline(
            RunContext(),
            only=["omp-overheads"] + DEP_CHAIN,
            resume=load_resume_state(tmp_path),
        )
        assert resumed.ok
        assert sorted(resumed.resumed) == ["fig3", "omp-overheads"]
        assert resumed.executed == ["table2"]


class TestDeadlines:
    def test_experiment_deadline_is_contained_failure(self):
        # An already-expired per-experiment allowance: the cooperative
        # check fires at the first engine step, and the overrun is a
        # normal contained failure with provenance.  (Engine-backed
        # experiments only — purely analytic ones have no step loop for
        # the check to interrupt.)
        budget = Budget(experiment_timeout_s=1e-9).arm()
        out = run_pipeline(
            RunContext(budget=budget, cache_enabled=False), only=["fig3"]
        )
        failure = out.failures["fig3"]
        assert failure.error_type == "DeadlineExceeded"
        assert "wall-time budget" in failure.message
        assert "fig3" in failure.message

    def test_run_budget_cancels_remaining_waves(self):
        # A run budget armed in the distant past: the first stop check
        # cancels everything before any experiment starts.
        budget = Budget(run_timeout_s=1e-9).arm(now=0.0)
        out = run_pipeline(RunContext(budget=budget), only=CHEAP)
        assert sorted(out.cancelled) == sorted(CHEAP)
        assert "run budget exhausted" in (
            out.cancelled["sec3-lmbench"].reason
        )
        assert out.exit_code == EXIT_CANCELLED

    def test_budget_recorded_in_manifest(self):
        budget = Budget(run_timeout_s=3600, experiment_timeout_s=600).arm()
        out = run_pipeline(RunContext(budget=budget), only=["sec3-lmbench"])
        assert out.ok
        assert out.manifest["supervision"]["budget"] == {
            "run_timeout_s": 3600, "experiment_timeout_s": 600,
        }

    def test_unbudgeted_manifest_supervision_block(self):
        out = run_pipeline(RunContext(), only=["sec3-lmbench"])
        assert out.manifest["supervision"] == {
            "budget": None, "breakers": {},
        }


class TestJournaledRuns:
    def test_clean_run_journals_every_outcome(self, tmp_path):
        journal = Journal.open(tmp_path, selected=CHEAP, jobs=1)
        out = run_pipeline(RunContext(), only=CHEAP, journal=journal)
        journal.close()
        assert out.ok
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert sorted(state.finished) == sorted(CHEAP)
        assert state.in_flight == []
        assert state.committed_waves == [0]
        # Journaled rows are the exact manifest rows.
        assert state.finished["sec3-lmbench"] == (
            out.manifest["experiments"]["sec3-lmbench"]
        )

    def test_journaled_run_writes_artifacts_incrementally(self, tmp_path):
        journal = Journal.open(tmp_path, selected=CHEAP, jobs=1)
        seen = {}

        def probe(msg):
            if msg.startswith("ran "):
                exp_id = msg.split()[1]
                seen[exp_id] = (
                    (tmp_path / f"{exp_id}.txt").exists(),
                    (tmp_path / f"{exp_id}.json").exists(),
                )

        out = run_pipeline(
            RunContext(), only=CHEAP, journal=journal, progress=probe
        )
        journal.close()
        # At the moment each completion was announced, its artifact
        # pair was already on disk.
        assert seen == {exp_id: (True, True) for exp_id in CHEAP}
        # And they are byte-identical to the final write_artifacts pass.
        before = (tmp_path / "sec3-lmbench.json").read_bytes()
        write_artifacts(out, tmp_path)
        assert (tmp_path / "sec3-lmbench.json").read_bytes() == before

    def test_failures_and_cancellations_journaled(self, tmp_path, fail_plan):
        journal = Journal.open(tmp_path)
        run_pipeline(
            RunContext(faults=fail_plan("fig3")),
            only=DEP_CHAIN,
            journal=journal,
        )
        journal.close()
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert state.failed["fig3"]["error_type"] == "InjectedFault"
        assert state.skipped == {"table2": ["fig3"]}


class TestJournalResume:
    @staticmethod
    def _killed_run(tmp_path, only=CHEAP):
        """A journaled run whose manifest never landed (as after
        SIGKILL between the last task and the final write)."""
        journal = Journal.open(tmp_path, selected=list(only), jobs=1)
        out = run_pipeline(RunContext(), only=only, journal=journal)
        journal.close()  # no finalize: the WAL survives
        assert not (tmp_path / "manifest.json").exists()
        return out

    @staticmethod
    def _with_batch_meta(journal_path):
        """Rewrite a journal the way manifest schema 4 wrote it: every
        ``task-finished`` meta carries the removed ``batch`` block."""
        lines = []
        for line in journal_path.read_text().splitlines():
            record = json.loads(line)
            if record.get("type") == "task-finished":
                record["meta"]["batch"] = {
                    "batched_machines": 3, "scalar_fallbacks": 1,
                    "deduplicated_machines": 0,
                }
            lines.append(json.dumps(record))
        journal_path.write_text("\n".join(lines) + "\n")

    def test_resume_without_manifest_uses_journal(self, tmp_path):
        first = self._killed_run(tmp_path)
        # The journal as written, then as an older package wrote it.
        for rewrite in (None, self._with_batch_meta):
            if rewrite is not None:
                rewrite(tmp_path / JOURNAL_NAME)
            state = load_resume_state(tmp_path)
            assert sorted(state.completed) == sorted(CHEAP)
            assert state.manifest["source"] == "journal"
            assert state.manifest["status"] == "interrupted"

            resumed = run_pipeline(RunContext(), only=CHEAP, resume=state)
            assert resumed.ok
            assert sorted(resumed.resumed) == sorted(CHEAP)
            assert resumed.executed == []
            # Adopted rows are identical to the uninterrupted run's rows.
            assert resumed.manifest["experiments"] == (
                first.manifest["experiments"]
            )

    def test_journal_resume_reruns_in_flight(self, tmp_path):
        self._killed_run(tmp_path)
        # Hand-append a started-but-unfinished record: in flight at the
        # "crash", so the resume must re-run it.
        with open(tmp_path / JOURNAL_NAME, "a") as fh:
            fh.write(json.dumps(
                {"type": "task-started", "id": "fig3", "wave": 1}
            ) + "\n")
        state = load_resume_state(tmp_path)
        assert state.manifest["journal"]["in_flight"] == ["fig3"]
        assert "fig3" not in state.completed
        resumed = run_pipeline(
            RunContext(), only=CHEAP + ["fig3"], resume=state
        )
        assert resumed.ok
        assert resumed.executed == ["fig3"]

    def test_torn_journal_resumes_from_prefix(self, tmp_path):
        self._killed_run(tmp_path)
        with open(tmp_path / JOURNAL_NAME, "a") as fh:
            fh.write('{"type": "task-finished", "id": "fi')  # the tear
        state = load_resume_state(tmp_path)
        assert state.manifest["journal"]["torn"] is True
        assert sorted(state.completed) == sorted(CHEAP)

    def test_journal_missing_artifacts_rerun(self, tmp_path):
        self._killed_run(tmp_path)
        (tmp_path / "sec3-lmbench.json").unlink()
        state = load_resume_state(tmp_path)
        # A journaled completion without its artifact pair is not
        # trusted — that experiment re-runs.
        assert sorted(state.completed) == ["omp-overheads"]

    def test_manifest_wins_over_leftover_journal(self, tmp_path):
        # A crash between the manifest write and the journal unlink
        # leaves both; the manifest is authoritative.
        out = run_pipeline(RunContext(), only=CHEAP)
        write_artifacts(out, tmp_path)
        Journal.open(tmp_path, selected=["decoy"]).close()
        state = load_resume_state(tmp_path)
        assert state.manifest["status"] == "complete"
        assert "source" not in state.manifest
        assert sorted(state.completed) == sorted(CHEAP)

    def test_newer_schema_journal_refused_loudly(self, tmp_path):
        from repro.supervise.journal import JournalSchemaError

        (tmp_path / JOURNAL_NAME).write_text(json.dumps({
            "type": "run-started", "schema": JOURNAL_SCHEMA + 1,
        }) + "\n")
        with pytest.raises(JournalSchemaError, match="newer"):
            load_resume_state(tmp_path)

    def test_structurally_corrupt_journal_is_resume_error(self, tmp_path):
        (tmp_path / JOURNAL_NAME).write_text(
            "garbage\n" + json.dumps({"type": "wave-committed", "wave": 0})
            + "\n"
        )
        with pytest.raises(ResumeError, match="corrupt journal"):
            load_resume_state(tmp_path)

    def test_nothing_at_all_is_resume_error(self, tmp_path):
        with pytest.raises(ResumeError, match="no manifest"):
            load_resume_state(tmp_path)


class TestJournaledPoolPath:
    def test_pool_wave_journals_results(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        journal = Journal.open(tmp_path, selected=CHEAP, jobs=2)
        out = run_pipeline(
            RunContext(jobs=2), only=CHEAP, journal=journal
        )
        journal.close()
        assert out.ok
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert sorted(state.finished) == sorted(CHEAP)
        assert state.in_flight == []
        # Incremental artifacts landed on the pool path too.
        for exp_id in CHEAP:
            assert (tmp_path / f"{exp_id}.json").exists()
