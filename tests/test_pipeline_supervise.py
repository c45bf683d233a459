"""Pipeline-level supervision: deadlines, cancellation, checkpoints.

``test_pipeline_faults.py`` covers failure isolation and resuming a
finished partial run; this module covers the supervision layer on top —
budgets and cancellation flowing through ``run_pipeline``, the manifest
checkpoint rewritten after every outcome, and resuming a run killed
before its final write.
"""

import json

import pytest

from repro import supervise
from repro.core.context import RunContext
from repro.experiments import pipeline
from repro.experiments.pipeline import (
    EXIT_CANCELLED,
    MANIFEST_SCHEMA,
    ResumeError,
    campaign_identity,
    load_resume_state,
    run_pipeline,
    write_artifacts,
)
from repro.supervise import Budget

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


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class Killed(BaseException):
    """Stands in for SIGKILL: nothing after it runs, no final write."""


def kill_after(n_ran):
    """A progress hook that "kills" the run once ``n_ran`` experiments
    have been announced as ran — after their checkpoint landed."""
    ran = []

    def hook(message):
        if message.startswith("ran "):
            ran.append(message.split()[1])
            if len(ran) == n_ran:
                raise Killed(ran[-1])

    return hook


class TestCheckpointedRuns:
    def test_clean_run_checkpoints_every_outcome(self, tmp_path):
        seen = {}

        def probe(msg):
            if msg.startswith("ran "):
                manifest = read_manifest(tmp_path)
                seen[msg.split()[1]] = (
                    manifest["status"], sorted(manifest["experiments"]),
                )

        out = run_pipeline(
            RunContext(), only=CHEAP, out_dir=tmp_path, progress=probe
        )
        assert out.ok
        # Each announced completion was already listed by a running
        # checkpoint, along with everything completed before it.
        assert seen == {
            "sec3-lmbench": ("running", ["sec3-lmbench"]),
            "omp-overheads": ("running", sorted(CHEAP)),
        }
        assert read_manifest(tmp_path) == out.manifest
        assert out.manifest["status"] == "complete"
        assert out.manifest["identity"] == campaign_identity(RunContext())
        # The checkpoint's temp file never outlives a write.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"{e}.{ext}" for e in CHEAP for ext in ("txt", "json")]
            + ["manifest.json"]
        )

    def test_checkpointed_run_writes_artifacts_incrementally(self, tmp_path):
        seen = {}

        def probe(msg):
            if msg.startswith("ran "):
                exp_id = msg.split()[1]
                seen[exp_id] = (
                    (tmp_path / f"{exp_id}.txt").exists(),
                    (tmp_path / f"{exp_id}.json").exists(),
                )

        out = run_pipeline(
            RunContext(), only=CHEAP, out_dir=tmp_path, progress=probe
        )
        # At the moment each completion was announced, its artifact
        # pair was already on disk.
        assert seen == {exp_id: (True, True) for exp_id in CHEAP}
        # And they are byte-identical to a write_artifacts pass.
        before = (tmp_path / "sec3-lmbench.json").read_bytes()
        write_artifacts(out, tmp_path)
        assert (tmp_path / "sec3-lmbench.json").read_bytes() == before

    def test_each_artifact_written_once(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(
            pipeline.Path, "write_text",
            lambda path, text: writes.append(path.name),
        )
        run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path)
        assert sorted(writes) == sorted(
            f"{e}.{ext}" for e in CHEAP for ext in ("txt", "json")
        )

    def test_failures_checkpointed(self, tmp_path, fail_plan):
        seen = []

        def probe(msg):
            if msg.startswith("FAILED "):
                seen.append(read_manifest(tmp_path)["failures"])

        run_pipeline(
            RunContext(faults=fail_plan("fig3")),
            only=DEP_CHAIN, out_dir=tmp_path, progress=probe,
        )
        assert seen[0]["fig3"]["error_type"] == "InjectedFault"
        manifest = read_manifest(tmp_path)
        assert manifest["status"] == "partial"
        assert manifest["skipped"] == {"table2": {"blocked_by": ["fig3"]}}

    def test_checkpoints_off_writes_first_and_final_only(
        self, tmp_path, monkeypatch
    ):
        statuses = []
        real = pipeline.write_artifacts

        def spy(out, out_dir, *args, **kwargs):
            statuses.append(out.manifest["status"])
            return real(out, out_dir, *args, **kwargs)

        monkeypatch.setattr(pipeline, "write_artifacts", spy)
        run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                     checkpoints=False)
        assert statuses == ["running", "complete"]
        statuses.clear()
        run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path)
        assert statuses == ["running", "running", "running", "complete"]

    def test_first_checkpoint_replaces_an_earlier_manifest(self, tmp_path):
        write_artifacts(run_pipeline(RunContext(), only=DEP_CHAIN), tmp_path)
        with pytest.raises(Killed):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         progress=kill_after(1))
        manifest = read_manifest(tmp_path)
        assert manifest["status"] == "running"
        assert sorted(manifest["experiments"]) == ["sec3-lmbench"]


class TestCheckpointResume:
    def test_resume_from_a_killed_runs_checkpoint(
        self, tmp_path, strip_timings
    ):
        with pytest.raises(Killed):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         progress=kill_after(1))
        state = load_resume_state(tmp_path)
        assert state.manifest["status"] == "running"
        assert sorted(state.completed) == ["sec3-lmbench"]

        resumed = run_pipeline(
            RunContext(), only=CHEAP, resume=state, out_dir=tmp_path
        )
        assert resumed.ok
        assert resumed.resumed == ["sec3-lmbench"]
        assert resumed.executed == ["omp-overheads"]
        clean = run_pipeline(RunContext(), only=CHEAP)
        assert strip_timings(resumed.manifest) == strip_timings(
            clean.manifest
        )

    def test_kill_resume_kill_resume_reexecutes_nothing_finished(
        self, tmp_path
    ):
        only = CHEAP + DEP_CHAIN
        executed = []

        def attempt(hook, resume):
            ran = []

            def progress(msg):
                if msg.startswith("ran "):
                    ran.append(msg.split()[1])
                hook(msg)

            try:
                run_pipeline(
                    RunContext(), only=only, out_dir=tmp_path,
                    resume=load_resume_state(tmp_path) if resume else None,
                    progress=progress,
                )
            finally:
                executed.append(ran)

        with pytest.raises(Killed):
            attempt(kill_after(1), resume=False)
        with pytest.raises(Killed):
            attempt(kill_after(1), resume=True)
        attempt(lambda msg: None, resume=True)
        # Three attempts, every experiment executed exactly once.
        assert [len(ran) for ran in executed[:2]] == [1, 1]
        assert sorted(sum(executed, [])) == sorted(only)
        assert read_manifest(tmp_path)["status"] == "complete"

    def test_resume_checkpoint_carries_reused_rows_from_the_start(
        self, tmp_path
    ):
        with pytest.raises(Killed):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         progress=kill_after(1))
        first = []

        def probe(msg):
            if not first:
                first.append(read_manifest(tmp_path))

        run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                     resume=load_resume_state(tmp_path), progress=probe)
        assert first[0]["status"] == "running"
        assert sorted(first[0]["experiments"]) == ["sec3-lmbench"]

    def test_checkpoint_missing_artifacts_rerun(self, tmp_path):
        with pytest.raises(Killed):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         progress=kill_after(2))
        (tmp_path / "sec3-lmbench.json").unlink()
        state = load_resume_state(tmp_path)
        # A checkpointed completion without its artifact pair is not
        # trusted — that experiment re-runs.
        assert sorted(state.completed) == ["omp-overheads"]

    def test_torn_checkpoint_temp_file_is_ignored(self, tmp_path):
        with pytest.raises(Killed):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         progress=kill_after(1))
        # A kill in the middle of the next checkpoint's write: the temp
        # file is torn, the manifest it would have replaced is whole.
        (tmp_path / "manifest.json.tmp").write_text('{"schema": 6, "sta')
        state = load_resume_state(tmp_path)
        assert sorted(state.completed) == ["sec3-lmbench"]
        run_pipeline(RunContext(), only=CHEAP, resume=state,
                     out_dir=tmp_path)
        assert not (tmp_path / "manifest.json.tmp").exists()
        assert read_manifest(tmp_path)["status"] == "complete"

    def test_run_budget_cancellation_resumes_from_its_checkpoint(
        self, tmp_path
    ):
        budget = Budget(run_timeout_s=1e-9).arm(now=0.0)
        first = run_pipeline(RunContext(budget=budget), only=CHEAP,
                             out_dir=tmp_path)
        assert first.exit_code == EXIT_CANCELLED
        manifest = read_manifest(tmp_path)
        assert manifest["status"] == "cancelled"
        assert sorted(manifest["cancelled"]) == sorted(CHEAP)
        resumed = run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                               resume=load_resume_state(tmp_path))
        assert resumed.ok and sorted(resumed.executed) == sorted(CHEAP)

    def test_cancelled_resume_keeps_its_reused_rows(self, tmp_path):
        with pytest.raises(Killed):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         progress=kill_after(1))
        supervise.token().cancel("drill")
        out = run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                           resume=load_resume_state(tmp_path))
        # Reusing costs nothing, so a stop cancels only the rest.
        assert out.resumed == ["sec3-lmbench"]
        assert sorted(out.cancelled) == ["omp-overheads"]
        manifest = read_manifest(tmp_path)
        assert sorted(manifest["experiments"]) == ["sec3-lmbench"]

    def test_manifest_without_identity_is_refused(self, tmp_path):
        write_artifacts(run_pipeline(RunContext(), only=CHEAP), tmp_path)
        manifest = read_manifest(tmp_path)
        del manifest["identity"]  # as manifest schema 5 wrote it
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        state = load_resume_state(tmp_path)
        with pytest.raises(ResumeError, match="recorded identity null"):
            run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path,
                         resume=state)
        assert read_manifest(tmp_path) == manifest

    def test_resume_on_another_machine_is_refused_before_writing(
        self, tmp_path
    ):
        run_pipeline(RunContext(), only=CHEAP, out_dir=tmp_path)
        before = read_manifest(tmp_path)
        state = load_resume_state(tmp_path)
        with pytest.raises(ResumeError, match="another campaign"):
            run_pipeline(RunContext(machine="paxville-fast-bus"),
                         only=CHEAP, out_dir=tmp_path, resume=state)
        # Refused before the first checkpoint: nothing was replaced.
        assert read_manifest(tmp_path) == before

    def test_edited_workload_spec_is_another_campaign(self, tmp_path):
        spec = tmp_path / "custom.json"

        def write_spec(scale):
            spec.write_text(json.dumps({
                "schema": 1, "name": "custom", "base": "CG",
                "workload": {"scale": scale},
            }))

        write_spec(0.5)
        out_dir = tmp_path / "out"
        run_pipeline(RunContext(workloads=[spec]), only=CHEAP,
                     out_dir=out_dir)
        # Same token, new contents: the identity changes with them.
        write_spec(2.0)
        with pytest.raises(ResumeError, match="custom@"):
            run_pipeline(RunContext(workloads=[spec]), only=CHEAP,
                         out_dir=out_dir,
                         resume=load_resume_state(out_dir))

    def test_leftover_journal_is_not_read(self, tmp_path):
        # Older versions kept a write-ahead journal next to the
        # manifest; it is no longer a resume source.
        (tmp_path / "manifest.wal.jsonl").write_text(json.dumps({
            "type": "run-started", "schema": 1,
        }) + "\n")
        with pytest.raises(ResumeError, match="nothing to resume"):
            load_resume_state(tmp_path)

    def test_nothing_at_all_is_resume_error(self, tmp_path):
        with pytest.raises(ResumeError, match="no manifest"):
            load_resume_state(tmp_path)


class TestResumeAdoptsReusedRowsFirst:
    def test_reused_dependent_stays_ok_when_rerun_upstream_fails(
        self, tmp_path, fail_plan
    ):
        """table2's artifacts were computed from an earlier, successful
        fig3 of the same campaign, so they stay valid even when fig3
        (its artifacts lost) re-runs and fails this time."""
        write_artifacts(run_pipeline(RunContext(), only=DEP_CHAIN), tmp_path)
        (tmp_path / "fig3.json").unlink()
        out = run_pipeline(
            RunContext(faults=fail_plan("fig3")), only=DEP_CHAIN,
            out_dir=tmp_path, resume=load_resume_state(tmp_path),
        )
        assert out.resumed == ["table2"]
        assert sorted(out.failures) == ["fig3"] and not out.skipped
        manifest = read_manifest(tmp_path)
        assert manifest["status"] == "partial"
        assert manifest["experiments"]["table2"]["status"] == "ok"
        assert manifest["skipped"] == {}


class TestCheckpointedPoolPath:
    def test_pool_wave_checkpoints_results(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        out = run_pipeline(
            RunContext(jobs=2), only=CHEAP, out_dir=tmp_path
        )
        assert out.ok
        assert sorted(read_manifest(tmp_path)["experiments"]) == sorted(CHEAP)
        # Incremental artifacts landed on the pool path too.
        for exp_id in CHEAP:
            assert (tmp_path / f"{exp_id}.json").exists()
