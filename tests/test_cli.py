"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for needle in ("fig2", "fig3", "table2", "fig4", "fig5",
                       "sec3-lmbench", "tuning", "efficiency"):
            assert needle in out
        # Tags are part of the listing now.
        assert "[paper" in out

    def test_speedup_query(self, capsys):
        assert main(["speedup", "ep", "ht_off_4_2"]) == 0
        out = capsys.readouterr().out
        assert "EP on ht_off_4_2" in out
        assert "x over serial" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "CMP-based SMP" in out

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "fig99" in err and "valid choices" in err
        assert "fig3" in err  # lists what *is* available

    def test_speedup_unknown_benchmark_exits_2(self, capsys):
        assert main(["speedup", "zz", "ht_off_4_2"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "CG" in err

    def test_speedup_unknown_config_exits_2(self, capsys):
        assert main(["speedup", "CG", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration" in err and "ht_off_4_2" in err

    def test_speedup_unknown_class_exits_2(self, capsys):
        assert main(["speedup", "CG", "ht_off_4_2",
                     "--problem-class", "Z"]) == 2
        err = capsys.readouterr().err
        assert "unknown problem class" in err

    def test_run_all_unknown_only_token_exits_2(self, capsys, tmp_path):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonsense" in err

    def test_run_format_json(self, capsys):
        assert main(["run", "omp-overheads", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "omp-overheads"
        assert payload["paper_artifact"] == "(extensions)"
        assert payload["result"]["rows"]

    def test_run_all_only_writes_artifacts_and_manifest(
        self, tmp_path, capsys
    ):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", "omp-overheads,sec3-lmbench"]) == 0
        capsys.readouterr()
        for name in ("omp-overheads", "sec3-lmbench"):
            assert (tmp_path / f"{name}.txt").read_text().strip()
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            assert payload["experiment"] == name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["experiments"]) == {
            "omp-overheads", "sec3-lmbench"
        }
        # Nothing outside the selection ran.
        assert not (tmp_path / "fig3.txt").exists()

    def test_run_all_still_accepts_batch_flag(self, capsys):
        """``--batch`` selects nothing any more, but the repo benchmark
        (perfbench/runall.py) passes ``--batch auto``: it must parse,
        and stay out of ``--help``."""
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["run-all", "--out", "x", "--batch", "auto"]
        )
        assert args.command == "run-all" and args.batch == "auto"
        with pytest.raises(SystemExit):
            main(["run-all", "--help"])
        assert "--batch" not in capsys.readouterr().out

    def test_run_all_skip(self, tmp_path, capsys):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", "platform",
                     "--skip", "sec3-lmbench"]) == 0
        capsys.readouterr()
        assert (tmp_path / "omp-overheads.txt").exists()
        assert not (tmp_path / "sec3-lmbench.txt").exists()

    def test_run_all_text_matches_run(self, tmp_path, capsys):
        """The pipeline's text artifact is the driver's report verbatim."""
        assert main(["run", "omp-overheads"]) == 0
        direct = capsys.readouterr().out
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", "omp-overheads"]) == 0
        capsys.readouterr()
        assert (tmp_path / "omp-overheads.txt").read_text() == \
            direct.rstrip("\n")

    def test_csv_export_consumes_pipeline_results(self, tmp_path):
        from repro.cli import _export_csv
        from repro.core.context import RunContext
        from repro.experiments.pipeline import run_pipeline

        pipeline = run_pipeline(RunContext(), only=["fig2", "fig3"])
        _export_csv(tmp_path, pipeline)
        fig3 = (tmp_path / "fig3_speedup.csv").read_text()
        assert fig3.startswith("benchmark,")
        assert (tmp_path / "fig2_cpi.csv").exists()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliFailurePaths:
    """run-all under injected failure: exit codes, manifest, --resume.

    Fault-plan isolation is handled by the autouse
    ``clean_runtime_switches`` fixture in tests/conftest.py.
    """

    ONLY = "sec3-lmbench,omp-overheads"

    def _failing_run(self, tmp_path, monkeypatch, spec, only=ONLY):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        code = main(["run-all", "--out", str(tmp_path), "--only", only])
        monkeypatch.delenv("REPRO_FAULTS")
        return code

    def test_partial_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        code = self._failing_run(
            tmp_path, monkeypatch, "experiment:omp-overheads"
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "completed partially" in err
        assert "1 failed (omp-overheads)" in err
        assert "--resume" in err

    def test_partial_manifest_contents(self, tmp_path, monkeypatch, capsys):
        self._failing_run(
            tmp_path, monkeypatch, "experiment:fig3",
            only="fig3,table2,sec3-lmbench",
        )
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        failure = manifest["failures"]["fig3"]
        assert failure["error_type"] == "InjectedFault"
        assert "Traceback" in failure["traceback"]
        assert manifest["skipped"]["table2"]["blocked_by"] == ["fig3"]
        # The independent experiment still completed and shipped.
        assert manifest["experiments"]["sec3-lmbench"]["status"] == "ok"
        assert (tmp_path / "sec3-lmbench.txt").exists()
        assert not (tmp_path / "fig3.txt").exists()

    def test_resume_happy_path(self, tmp_path, monkeypatch, capsys):
        assert self._failing_run(
            tmp_path, monkeypatch, "experiment:omp-overheads"
        ) == 3
        capsys.readouterr()
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "1 completed experiment(s) reused" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["failures"] == {} and manifest["skipped"] == {}
        assert (tmp_path / "omp-overheads.txt").read_text().strip()

    def test_resume_nothing_to_do(self, tmp_path, capsys):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY]) == 0
        capsys.readouterr()
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "nothing to resume" in out

    @pytest.mark.parametrize("command", ["run-all", "list"])
    def test_malformed_faults_env_is_a_usage_error(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # A typo in REPRO_FAULTS must exit 2 before anything runs, not
        # surface inside an experiment as a partial failure (exit 3);
        # query commands check it the same way.
        monkeypatch.setenv("REPRO_FAULTS", "bogus-token")
        argv = [command]
        if command == "run-all":
            argv += ["--out", str(tmp_path), "--only", self.ONLY]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "unknown fault token" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "manifest.json").exists()

    def test_resume_without_previous_run_exits_2(self, tmp_path, capsys):
        assert main(["run-all", "--out", str(tmp_path / "fresh"),
                     "--resume", "--only", self.ONLY]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nothing to resume" in err

    def test_csv_export_skipped_when_inputs_failed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULTS", "experiment:fig3")
        code = main(["run-all", "--out", str(tmp_path), "--csv",
                     "--only", "fig2,fig3,table2"])
        monkeypatch.delenv("REPRO_FAULTS")
        assert code == 3
        captured = capsys.readouterr()
        assert "skipping CSV export" in captured.err
        assert not (tmp_path / "fig3_speedup.csv").exists()


class TestSupervisionCli:
    """run-all under supervision: budgets, checkpoints, cancellation."""

    ONLY = "sec3-lmbench,omp-overheads"

    def test_timeout_flags_recorded_in_manifest(self, tmp_path, capsys):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY,
                     "--timeout", "300", "--experiment-timeout", "60"]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["supervision"]["budget"] == {
            "run_timeout_s": 300.0, "experiment_timeout_s": 60.0,
        }

    def test_unsupervised_run_records_null_budget(self, tmp_path, capsys):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["supervision"] == {"budget": None, "breakers": {}}

    def test_nonpositive_timeout_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-all", "--out", str(tmp_path),
                  "--only", self.ONLY, "--timeout", "0"])
        assert exc.value.code == 2
        assert "must be > 0 seconds" in capsys.readouterr().err

    def test_only_artifacts_and_manifest_left_on_success(
        self, tmp_path, capsys
    ):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY, "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # stdout narrates each outcome and every file written: the
        # manifest at the start, after each experiment, and at the end.
        assert sum(line.startswith("ran ") for line in lines) == 2
        assert sum(line.endswith("manifest.json") for line in lines) == 4
        # No write-ahead journal and no checkpoint temp file.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "omp-overheads.json", "omp-overheads.txt",
            "sec3-lmbench.json", "sec3-lmbench.txt",
        ]

    def test_checkpoints_disabled_by_env(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import pipeline

        statuses = []
        real = pipeline.write_artifacts

        def spy(out, out_dir, *args, **kwargs):
            statuses.append(out.manifest["status"])
            return real(out, out_dir, *args, **kwargs)

        monkeypatch.setattr(pipeline, "write_artifacts", spy)
        monkeypatch.setenv(pipeline.CHECKPOINT_ENV, "0")
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY]) == 0
        assert statuses == ["running", "complete"]
        statuses.clear()
        monkeypatch.delenv(pipeline.CHECKPOINT_ENV)
        assert main(["run-all", "--out", str(tmp_path / "checkpointed"),
                     "--only", self.ONLY]) == 0
        capsys.readouterr()
        assert statuses == ["running"] * 3 + ["complete"]

    @pytest.mark.parametrize("first, second", [
        (["--machine", "paxville-fast-bus"], []),
        ([], ["--workload", "CG"]),
    ], ids=["machine", "workloads"])
    def test_resume_refuses_another_campaigns_manifest(
        self, tmp_path, capsys, first, second
    ):
        only = ["--only", "sec3-lmbench"]
        assert main(["run-all", "--out", str(tmp_path), *only, *first]) == 0
        before = (tmp_path / "sec3-lmbench.txt").read_bytes()
        capsys.readouterr()
        assert main(["run-all", "--out", str(tmp_path), *only, *second,
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "another campaign" in err
        # Both identities are named: the recorded one and this run's.
        assert err.count('"study_fingerprint"') == 2
        assert (tmp_path / "sec3-lmbench.txt").read_bytes() == before

    def test_killed_rerun_on_another_machine_resumes_its_own_matrix(
        self, tmp_path, capsys
    ):
        """A finished stock run, then a fast-bus run into the same --out
        SIGKILLed after fig3: the resume must finish the fast-bus matrix,
        not keep the stock run's table2."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        out = tmp_path / "out"
        only = ["--only", "fig3,table2"]
        fast = ["--machine", "paxville-fast-bus"]
        assert main(["run-all", "--out", str(out), *only]) == 0
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run-all", "--out", str(out),
             *only, *fast],
            env={**os.environ, "PYTHONPATH": str(src),
                 "REPRO_FAULTS": "sigkill-self:1"},
            capture_output=True, timeout=300,
        )
        assert proc.returncode == -9
        assert main(["run-all", "--out", str(out), *only, *fast,
                     "--resume"]) == 0
        assert "1 completed experiment(s) reused" in capsys.readouterr().out
        fresh = tmp_path / "fresh"
        assert main(["run-all", "--out", str(fresh), *only, *fast]) == 0
        for name in ("fig3.txt", "table2.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_interrupt_exits_4_and_resume_completes(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import omp_overheads

        real = omp_overheads.run

        def interrupted(ctx):
            raise KeyboardInterrupt

        monkeypatch.setattr(omp_overheads, "run", interrupted)
        code = main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY, "--jobs", "1"])
        assert code == 4
        err = capsys.readouterr().err
        assert "run-all cancelled" in err
        assert "keyboard interrupt" in err
        assert "--resume" in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "cancelled"
        assert "omp-overheads" in manifest["cancelled"]
        # The cancelled run is resumable once the interruption passes.
        monkeypatch.setattr(omp_overheads, "run", real)
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", self.ONLY, "--jobs", "1",
                     "--resume"]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete"


class TestMachinesCli:
    def test_machines_lists_registry(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "paxville" in out
        # Fingerprint, key parameters and provenance per line.
        pax = next(
            line for line in out.splitlines()
            if line.startswith("paxville ")
        )
        assert "clock=2.8GHz" in pax and "l2=1MB private/core" in pax
        assert "built-in" in pax or "machines/" in pax

    def test_machines_marks_file_provenance(self, capsys):
        from repro.machine.registry import machines_dir

        if machines_dir() is None:  # pragma: no cover
            pytest.skip("no machines/ directory in this deployment")
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "nextgen-shared-l2" in out
        assert "nextgen-shared-l2.json" in out

    def test_unknown_machine_exits_2(self, capsys):
        assert main(["run", "fig3", "--machine", "vaporware"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "vaporware" in err and "valid choices" in err
        assert "paxville" in err

    def test_unreadable_spec_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["speedup", "CG", "ht_off_4_2",
                     "--machine", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.json" in err

    def test_speedup_with_named_machine(self, capsys):
        assert main(["speedup", "EP", "ht_off_4_2",
                     "--machine", "paxville"]) == 0
        out = capsys.readouterr().out
        assert "EP on ht_off_4_2" in out

    def test_run_all_with_machine(self, tmp_path, capsys):
        assert main(["run-all", "--out", str(tmp_path),
                     "--only", "omp-overheads",
                     "--machine", "paxville"]) == 0
        capsys.readouterr()
        assert (tmp_path / "omp-overheads.txt").read_text().strip()


class TestMachinesDetailCli:
    def test_detail_renders_topology_tree_and_hierarchy(self, capsys):
        from repro.machine.registry import machines_dir

        if machines_dir() is None:  # pragma: no cover
            pytest.skip("no machines/ directory in this deployment")
        assert main(["machines", "broadwell-shared-l3"]) == 0
        out = capsys.readouterr().out
        assert "socket 0" in out and "socket 1" in out
        assert "chip 0" in out and "core 0: A0 A1" in out
        # Hierarchy table with all three levels and their scopes.
        assert "l1d" in out and "l2" in out and "l3" in out
        assert "chip" in out
        assert "8MB" in out

    def test_detail_shows_numa_tiers(self, capsys):
        from repro.machine.registry import machines_dir

        if machines_dir() is None:  # pragma: no cover
            pytest.skip("no machines/ directory in this deployment")
        assert main(["machines", "cascadelake-2s-numa"]) == 0
        out = capsys.readouterr().out
        assert "numa tiers" in out
        assert "1.74" in out and "0.62" in out

    def test_detail_shows_core_classes(self, capsys):
        from repro.machine.registry import machines_dir

        if machines_dir() is None:  # pragma: no cover
            pytest.skip("no machines/ directory in this deployment")
        assert main(["machines", "biglittle-demo"]) == 0
        out = capsys.readouterr().out
        assert "core classes:" in out and "little" in out
        assert "1.68GHz" in out  # 0.6 x 2.8 GHz on the little chip

    def test_unknown_name_exits_2_with_choices_and_suggestion(
        self, capsys
    ):
        assert main(["machines", "paxvile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "valid choices" in err and "paxville" in err
        assert "did you mean 'paxville'?" in err

    def test_unknown_name_without_close_match_lists_choices(self, capsys):
        assert main(["machines", "zzz-no-such-machine"]) == 2
        err = capsys.readouterr().err
        assert "valid choices" in err
        assert "did you mean" not in err
