"""Tests for the runtime invariant auditor (``repro.verify``).

Covers the enablement switch (explicit > environment > pytest
autodetect), the ``RunContext`` wiring, the auditor's observer purity
(verification must never change results), the fault drill (a skewed
resolver is caught with step/phase provenance), and the ``repro
verify`` CLI subcommand.

The NPB mini-kernel verification suite lives in
``tests/test_verification.py`` and is unrelated.
"""

import dataclasses

import pytest

from repro import verify
from repro.cli import main
from repro.core.context import RunContext, override
from repro.counters.events import Event
from repro.machine.configurations import get_config
from repro.npb.suite import build_workload
from repro.sim.engine import Engine
from repro.testing import faults
from repro.testing.faults import FaultPlan


def _run(config="ht_off_2_1", bench="CG"):
    return Engine(get_config(config)).run_single(build_workload(bench, "B"))


class TestEnablement:
    def test_pytest_autodetect_is_on_by_default(self):
        # No context is active and conftest clears the env, so what
        # remains is the PYTEST_CURRENT_TEST autodetect.
        assert verify.enabled()

    def test_explicit_beats_autodetect(self):
        with override(verify=False):
            assert not verify.enabled()
        with override(verify=True):
            assert verify.enabled()

    def test_env_beats_autodetect(self, monkeypatch):
        monkeypatch.setenv(verify.VERIFY_ENV, "0")
        assert not verify.enabled()
        monkeypatch.setenv(verify.VERIFY_ENV, "1")
        assert verify.enabled()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(verify.VERIFY_ENV, "0")
        with override(verify=True):
            assert verify.enabled()

    def test_context_manager_restores(self):
        with override(verify=False):
            assert not verify.enabled()
        assert verify.enabled()

    def test_run_context_wires_the_switch(self):
        with RunContext(verify=False).active():
            assert not verify.enabled()
        with RunContext(verify=True).active():
            assert verify.enabled()

    def test_run_context_default_leaves_autodetect(self):
        with RunContext().active():
            assert verify.enabled()

    def test_spawn_propagates_verify_flag(self):
        child = RunContext(verify=False).spawn(jobs=1)
        assert child.verify is False


class TestAuditorOnCleanRuns:
    def test_clean_run_audits_without_violations(self):
        verify.reset_stats()
        _run()
        s = verify.stats()
        assert s.runs == 1
        assert s.steps >= 1
        assert s.phases >= 1
        assert s.checks > 0
        assert s.violations == 0

    def test_multiprogram_run_audits_cleanly(self):
        verify.reset_stats()
        w = build_workload("CG", "B")
        Engine(get_config("ht_off_4_2")).run_pair(w, w)
        assert verify.stats().violations == 0

    def test_verification_does_not_change_results(self):
        with override(verify=True):
            audited = _run()
        with override(verify=False):
            plain = _run()
        assert audited.runtime_seconds == plain.runtime_seconds
        audited_total = audited.collector.total()
        plain_total = plain.collector.total()
        for event in Event:
            assert audited_total[event] == plain_total[event], event

    def test_disabled_switch_attaches_no_auditor(self):
        verify.reset_stats()
        with override(verify=False):
            _run()
        assert verify.stats().runs == 0


class TestFaultDrill:
    PLAN = FaultPlan(resolver_skew=0.5)

    def test_skewed_resolver_is_caught_with_provenance(self):
        with override(faults=self.PLAN):
            with pytest.raises(verify.InvariantViolation) as exc_info:
                _run()
        violation = exc_info.value
        assert violation.check == "l2-closure"
        assert violation.step >= 1
        assert violation.phase
        assert violation.program_id is not None
        assert "l2_misses_per_instr" in str(violation)

    def test_violations_counted_in_stats(self):
        verify.reset_stats()
        with override(faults=self.PLAN):
            with pytest.raises(verify.InvariantViolation):
                _run()
        assert verify.stats().violations >= 1

    def test_skew_plan_round_trips_through_spec(self):
        spec = self.PLAN.spec()
        assert "resolver-skew:0.5" in spec
        assert faults.parse_plan(spec).resolver_skew == 0.5

    def test_skew_token_requires_positive_float(self):
        with pytest.raises(ValueError):
            faults.parse_plan("resolver-skew:0")
        with pytest.raises(ValueError):
            faults.parse_plan("resolver-skew:nope")

    def test_skew_disabled_without_plan(self):
        # No plan active: the resolver hook must be a no-op.
        verify.reset_stats()
        _run()
        assert verify.stats().violations == 0


class TestAuditorUnits:
    def test_violation_is_an_assertion_error(self):
        assert issubclass(verify.InvariantViolation, AssertionError)

    def test_stats_snapshot_and_since(self):
        verify.reset_stats()
        before = verify.stats().snapshot()
        _run()
        delta = verify.stats().since(before)
        assert delta.runs == 1 and delta.violations == 0
        assert set(delta.as_dict()) == {
            "runs", "steps", "phases", "checks", "violations",
        }

    def test_auditor_rejects_bad_resolver_residual(self):
        # A custom residual bound catches an otherwise-clean run.
        auditor = verify.InvariantAuditor(max_residual=0.0)

        class FakeResolver:
            last_residual = 1.0

        auditor.resolver = FakeResolver()
        event = dataclasses.make_dataclass(
            "E", [("step", int), ("resolved", dict)]
        )(step=1, resolved={})
        with pytest.raises(verify.InvariantViolation) as exc_info:
            auditor.on_resolve(event)
        assert exc_info.value.check == "resolver-residual"


class TestVerifyCli:
    def test_verify_subcommand_happy_path(self, capsys):
        code = main(["verify", "--only", "sec3-lmbench,fig2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "audited 2 experiment(s)" in out
        assert "0 violation(s)" in out

    def test_verify_subcommand_catches_fault(self, monkeypatch, capsys):
        monkeypatch.setenv(faults.FAULTS_ENV, "resolver-skew:0.5")
        code = main(["verify", "--only", "fig2"])
        assert code == 3
        captured = capsys.readouterr()
        assert "violation" in captured.out
        assert "InvariantViolation" in captured.err

    def test_verify_subcommand_unknown_token(self, capsys):
        code = main(["verify", "--only", "not-a-thing"])
        assert code == 2
        assert "not-a-thing" in capsys.readouterr().err
