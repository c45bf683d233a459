"""Tests for pipeline failure isolation, skip propagation, and resume.

These drive the full ``run_pipeline``/``write_artifacts``/
``load_resume_state`` cycle with injected faults, using the cheap
experiments (sec3-lmbench, omp-overheads) plus the one real dependency
edge in the registry (table2 requires fig3).

The ``fail_plan``/``strip_timings`` helpers and the autouse fault-plan
isolation live in ``tests/conftest.py`` (shared with the CLI tests).
"""

import json

import pytest

from repro.core.context import RunContext, override
from repro.experiments.pipeline import (
    EXIT_PARTIAL_FAILURE,
    ExperimentFailure,
    ResumeError,
    load_resume_state,
    run_pipeline,
    write_artifacts,
)
from repro.testing import faults
from repro.testing.faults import InjectedFault


CHEAP = ["sec3-lmbench", "omp-overheads"]
DEP_CHAIN = ["fig3", "table2"]


class TestFailureIsolation:
    def test_one_failure_does_not_stop_the_wave(self, fail_plan):
        ctx = RunContext(faults=fail_plan("omp-overheads"))
        out = run_pipeline(ctx, only=CHEAP)
        assert "sec3-lmbench" in out.records
        assert "omp-overheads" not in out.records
        failure = out.failures["omp-overheads"]
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.traceback
        assert failure.wall_time_s >= 0
        assert not out.ok
        assert out.exit_code == EXIT_PARTIAL_FAILURE

    def test_dependent_skipped_with_blockers(self, fail_plan):
        ctx = RunContext(faults=fail_plan("fig3"))
        out = run_pipeline(ctx, only=DEP_CHAIN)
        assert out.skipped == {"table2": ["fig3"]}
        assert "table2" not in out.records
        assert out.manifest["skipped"]["table2"]["blocked_by"] == ["fig3"]

    def test_unselected_dependency_does_not_block(self):
        # table2's dependency is soft: without fig3 in the selection it
        # computes the table itself.
        out = run_pipeline(RunContext(), only=["table2"])
        assert out.ok and "table2" in out.records

    def test_failure_recorded_in_manifest(self, fail_plan):
        ctx = RunContext(faults=fail_plan("omp-overheads"))
        out = run_pipeline(ctx, only=CHEAP)
        m = out.manifest
        assert m["schema"] == 4
        assert m["status"] == "partial"
        entry = m["failures"]["omp-overheads"]
        assert entry["error_type"] == "InjectedFault"
        assert "traceback" in entry and "wave" in entry
        # Completed experiments are untouched and marked ok.
        assert m["experiments"]["sec3-lmbench"]["status"] == "ok"

    def test_surviving_artifacts_byte_identical_to_clean_run(
        self, tmp_path, fail_plan
    ):
        clean = run_pipeline(RunContext(), only=CHEAP)
        write_artifacts(clean, tmp_path / "clean")
        faulty = run_pipeline(
            RunContext(faults=fail_plan("omp-overheads")), only=CHEAP
        )
        write_artifacts(faulty, tmp_path / "faulty")
        for suffix in (".txt", ".json"):
            a = (tmp_path / "clean" / f"sec3-lmbench{suffix}").read_bytes()
            b = (tmp_path / "faulty" / f"sec3-lmbench{suffix}").read_bytes()
            assert a == b
        # The failed experiment wrote no artifact files.
        assert not (tmp_path / "faulty" / "omp-overheads.txt").exists()
        assert not (tmp_path / "faulty" / "omp-overheads.json").exists()

    def test_parallel_wave_isolates_failures_too(self, monkeypatch, fail_plan):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        ctx = RunContext(jobs=2, faults=fail_plan("omp-overheads"))
        out = run_pipeline(ctx, only=CHEAP)
        assert "sec3-lmbench" in out.records
        assert out.failures["omp-overheads"].error_type == "InjectedFault"

    def test_real_exception_is_contained(self, monkeypatch):
        # Not just InjectedFault: an arbitrary driver crash is isolated.
        from repro.experiments import sec3_lmbench

        def boom(ctx):
            raise ZeroDivisionError("driver bug")

        monkeypatch.setattr(sec3_lmbench, "run", boom)
        out = run_pipeline(RunContext(), only=CHEAP)
        assert out.failures["sec3-lmbench"].error_type == "ZeroDivisionError"
        assert "omp-overheads" in out.records


class TestResume:
    @staticmethod
    def _partial_run(tmp_path, plan, only=None):
        ctx = RunContext(faults=plan)
        out = run_pipeline(ctx, only=only or DEP_CHAIN)
        write_artifacts(out, tmp_path)
        return out

    def test_resume_reruns_only_failed_and_blocked(self, tmp_path, fail_plan):
        self._partial_run(tmp_path, fail_plan("fig3"), only=DEP_CHAIN + CHEAP)
        state = load_resume_state(tmp_path)
        assert set(state.completed) == set(CHEAP)
        out = run_pipeline(RunContext(), only=DEP_CHAIN + CHEAP,
                           resume=state)
        assert sorted(out.executed) == sorted(DEP_CHAIN)
        assert sorted(out.resumed) == sorted(CHEAP)
        assert out.ok and out.exit_code == 0
        assert set(out.records) == set(DEP_CHAIN + CHEAP)

    def test_resumed_manifest_matches_clean_run_modulo_timings(
        self, tmp_path, fail_plan, strip_timings
    ):
        self._partial_run(tmp_path / "r", fail_plan("fig3"))
        out = run_pipeline(
            RunContext(), only=DEP_CHAIN,
            resume=load_resume_state(tmp_path / "r"),
        )
        write_artifacts(out, tmp_path / "r")
        clean = run_pipeline(RunContext(), only=DEP_CHAIN)
        write_artifacts(clean, tmp_path / "c")
        resumed_manifest = json.loads(
            (tmp_path / "r" / "manifest.json").read_text()
        )
        clean_manifest = json.loads(
            (tmp_path / "c" / "manifest.json").read_text()
        )
        assert strip_timings(resumed_manifest) == strip_timings(
            clean_manifest
        )

    def test_resumed_artifacts_rewritten_byte_identical(
        self, tmp_path, fail_plan
    ):
        self._partial_run(tmp_path, fail_plan("fig3"), only=DEP_CHAIN + CHEAP)
        before = {
            name: (tmp_path / name).read_bytes()
            for name in ("sec3-lmbench.txt", "sec3-lmbench.json",
                         "omp-overheads.txt", "omp-overheads.json")
        }
        out = run_pipeline(RunContext(), only=DEP_CHAIN + CHEAP,
                           resume=load_resume_state(tmp_path))
        write_artifacts(out, tmp_path)
        for name, raw in before.items():
            assert (tmp_path / name).read_bytes() == raw

    def test_completed_dependency_injected_into_rerunning_dependent(
        self, tmp_path, fail_plan
    ):
        # fig3 completed; table2 failed.  On resume, table2 must consume
        # fig3's rehydrated result (zero cache lookups of its own).
        self._partial_run(tmp_path, fail_plan("table2"))
        state = load_resume_state(tmp_path)
        assert "fig3" in state.completed
        out = run_pipeline(RunContext(), only=DEP_CHAIN, resume=state)
        assert out.executed == ["table2"]
        assert out.records["table2"].cache["lookups"] == 0
        assert out.records["fig3"].result is not None  # rehydrated

    def test_missing_artifact_file_forces_rerun(self, tmp_path, fail_plan):
        self._partial_run(tmp_path, fail_plan("fig3"), only=CHEAP)
        (tmp_path / "omp-overheads.json").unlink()
        state = load_resume_state(tmp_path)
        assert "omp-overheads" not in state.completed
        assert "sec3-lmbench" in state.completed

    def test_no_manifest_raises_resume_error(self, tmp_path):
        with pytest.raises(ResumeError, match="nothing to resume"):
            load_resume_state(tmp_path / "never-ran")

    def test_corrupt_manifest_raises_resume_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ResumeError, match="unreadable manifest"):
            load_resume_state(tmp_path)

    def test_non_manifest_json_raises_resume_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"other": "schema"}')
        with pytest.raises(ResumeError, match="not a run manifest"):
            load_resume_state(tmp_path)


class TestInjectionPlumbing:
    def test_context_plan_activates_in_process(self, fail_plan):
        ctx = RunContext(faults=fail_plan("omp-overheads"))
        out = run_pipeline(ctx, only=["omp-overheads"])
        assert out.failures["omp-overheads"].error_type == "InjectedFault"

    def test_injected_fault_raises_like_any_exception(self, fail_plan):
        with override(faults=fail_plan("x")):
            with pytest.raises(InjectedFault):
                faults.maybe_fail_experiment("x")
