"""Tests for the runtime invariant auditor (``repro.verify``).

Covers the enablement switch (explicit > environment > pytest
autodetect), the ``RunContext`` wiring, the auditor's observer purity
(verification must never change results), the fault drill (a skewed
resolver is caught with step/phase provenance), the ``repro verify``
CLI subcommand, and law coverage: every check id the auditor can raise,
provoked by corrupting one field of a real run's events.

The NPB mini-kernel verification suite lives in
``tests/test_verification.py`` and is unrelated.
"""

import dataclasses
import functools

import pytest

from repro import verify
from repro.cli import main
from repro.core.context import RunContext, override
from repro.counters.collector import Collector, CounterSet
from repro.counters.events import Event
from repro.machine.configurations import get_config
from repro.machine.registry import resolve_machine
from repro.npb.suite import build_workload
from repro.sim.engine import Engine
from repro.sim.observer import SimObserver
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


# ----------------------------------------------------------------------
# Law coverage: every check id the auditor can raise, provoked by
# corrupting one field of a real run's event stream and replayed into a
# fresh auditor.


class _Recorder(SimObserver):
    """Records every hook call of one engine run, in order."""

    def __init__(self):
        self.calls = []

    def on_run_start(self, specs):
        self.calls.append(("on_run_start", specs))

    def on_resolve(self, event):
        self.calls.append(("on_resolve", event))

    def on_step(self, event):
        self.calls.append(("on_step", event))

    def on_phase_complete(self, event):
        self.calls.append(("on_phase_complete", event))

    def on_run_complete(self, total_time):
        self.calls.append(("on_run_complete", total_time))

    def on_result(self, result):
        self.calls.append(("on_result", result))


@functools.lru_cache(maxsize=None)
def _trace(machine=None, config="ht_on_8_2", benches=("CG", "MG")):
    """The hook calls of one clean run.

    The default CG+MG pair on ht_on_8_2 puts contexts A5 and A7 in one
    contention class, so the corruptions of the last context (A7) hit a
    class member rather than its representative."""
    params = None
    if machine is not None:
        params = resolve_machine(machine).to_params()
    recorder = _Recorder()
    engine = Engine(get_config(config), params=params, observers=[recorder])
    workloads = [build_workload(b, "S") for b in benches]
    if len(workloads) == 2:
        engine.run_pair(*workloads)
    else:
        engine.run_single(*workloads)
    return tuple(recorder.calls)


def _replay(calls, index, corrupt, resolver=None):
    """Feed *calls* to a fresh auditor with call *index* corrupted.

    Returns the violation and ``(hook, argument, step)`` of the call that
    raised it (``step`` is the engine step in force at that call)."""
    auditor = verify.InvariantAuditor(resolver=resolver)
    step = None
    for i, (hook, arg) in enumerate(calls):
        if i == index:
            arg = corrupt(arg)
        if hook == "on_resolve":
            step = arg.step
        try:
            getattr(auditor, hook)(arg)
        except verify.InvariantViolation as exc:
            return exc, (hook, arg, step)
    raise AssertionError("the corrupted stream audited cleanly")


# --- picking the call to corrupt ---------------------------------------

def _nth(hook, n=0):
    def pick(calls):
        return [i for i, (h, _) in enumerate(calls) if h == hook][n]
    return pick


def _step_before_first_phase(calls):
    """The step call that completes the first phase."""
    first_phase = _nth("on_phase_complete")(calls)
    assert calls[first_phase - 1][0] == "on_step"
    return first_phase - 1


# --- corruptions ----------------------------------------------------------

def _context(change, label=None):
    """Corrupt one context of a ResolveEvent (the last one by default)
    via ``change(resolved_context) -> resolved_context``."""
    def corrupt(event):
        target = label or list(event.resolved)[-1]
        resolved = dict(event.resolved)
        resolved[target] = change(resolved[target])
        return dataclasses.replace(event, resolved=resolved)
    corrupt.context = label
    return corrupt


def _rates(**changes):
    return _context(lambda r: dataclasses.replace(
        r, rates=dataclasses.replace(r.rates, **{
            k: f(getattr(r.rates, k)) for k, f in changes.items()
        })))


def _cpi(**values):
    return _context(lambda r: dataclasses.replace(
        r, cpi=dataclasses.replace(r.cpi, **values)))


def _bus(**values):
    return _context(lambda r: dataclasses.replace(
        r, bus=dataclasses.replace(r.bus, **values)))


def _level(change):
    """Corrupt the first hierarchy level beyond the L2."""
    def rates(r):
        first, *rest = r.rates.extra_levels
        levels = (change(first), *rest)
        return dataclasses.replace(
            r, rates=dataclasses.replace(r.rates, extra_levels=levels))
    return _context(rates)


def _field(**changes):
    """Corrupt fields of a frozen event dataclass."""
    def corrupt(event):
        return dataclasses.replace(event, **{
            k: f(getattr(event, k)) for k, f in changes.items()
        })
    return corrupt


def _total(event, new_total, program_id=0):
    """Corrupt a RunResult so ``event``'s run total becomes
    ``new_total(run_totals)``, by changing one of *program_id*'s
    counter sets; the per-program counters stay the collector's merge,
    as the engine builds them."""
    def corrupt(result):
        totals = result.collector.total()
        sets = {k: CounterSet(cs.as_dict())
                for k, cs in result.collector._sets.items()}
        key = next(k for k in sets if k[0] == program_id)
        counts = sets[key]._mutable()
        counts[event] = (
            counts.get(event, 0.0) + new_total(totals) - totals[event]
        )
        collector = Collector(_sets=sets)
        programs = [
            dataclasses.replace(
                p, counters=collector.for_program(p.spec.program_id))
            for p in result.programs
        ]
        return dataclasses.replace(
            result, collector=collector, programs=programs)
    return corrupt


def _program_runtime(program_id, seconds):
    def corrupt(result):
        programs = [
            dataclasses.replace(p, runtime_seconds=seconds)
            if p.spec.program_id == program_id else p
            for p in result.programs
        ]
        return dataclasses.replace(result, programs=programs)
    return corrupt


L3 = "broadwell-shared-l3"

#: (check, machine, pick, corruption, token the message must name,
#:  expected program_id for run-level checks)
LAW_CASES = [
    # per-context resolver laws
    ("rate-bounds", None, _nth("on_resolve"),
     _rates(l1_miss_rate=lambda v: 1.5), "l1_miss_rate", None),
    ("rate-bounds", None, _nth("on_resolve"),
     _context(lambda r: dataclasses.replace(r, mispredict_rate=-0.5)),
     "mispredict_rate", None),
    ("rate-bounds", None, _nth("on_resolve"),
     _rates(dtlb_accesses_per_instr=lambda v: -1.0),
     "dtlb_accesses_per_instr", None),
    ("rate-bounds", None, _nth("on_resolve"),
     _context(lambda r: dataclasses.replace(r, coherence_per_instr=-0.1)),
     "coherence_per_instr", None),
    ("l2-closure", None, _nth("on_resolve"),
     _rates(l2_misses_per_instr=lambda v: v + 0.01),
     "l2_misses_per_instr", None),
    ("cpi-exec", None, _nth("on_resolve"), _cpi(smt_slowdown=0.5),
     "smt_slowdown", None),
    ("stall-sign", None, _nth("on_resolve"), _cpi(stall_branch=-1.0),
     "stall", None),
    ("cpi-eff", None, _nth("on_resolve"),
     _context(lambda r: dataclasses.replace(r, cpi_eff=r.cpi.cpi * 0.5)),
     "cpi_eff", None),
    ("bus-occupancy", None, _nth("on_resolve"), _bus(utilization=2.0),
     "utilization", None),
    ("bus-outcome", None, _nth("on_resolve"),
     _bus(latency_multiplier=0.5), "latency_multiplier", None),
    ("bus-outcome", None, _nth("on_resolve"),
     _bus(prefetch_coverage=1.5), "prefetch_coverage", None),
    # per-level laws beyond the L2
    ("rate-bounds", L3, _nth("on_resolve"),
     _level(lambda lvl: dataclasses.replace(lvl, miss_rate=1.5)),
     "l3_miss_rate", None),
    ("rate-bounds", L3, _nth("on_resolve"),
     _level(lambda lvl: dataclasses.replace(
         lvl, accesses_per_instr=-1.0, misses_per_instr=-lvl.miss_rate)),
     "l3_accesses_per_instr", None),
    ("l3-closure", L3, _nth("on_resolve"),
     _level(lambda lvl: dataclasses.replace(
         lvl, misses_per_instr=lvl.misses_per_instr + 0.01)),
     "l3_misses_per_instr", None),
    ("l3-chain", L3, _nth("on_resolve"),
     _level(lambda lvl: dataclasses.replace(
         lvl, accesses_per_instr=lvl.accesses_per_instr + 0.01,
         misses_per_instr=(lvl.accesses_per_instr + 0.01) * lvl.miss_rate)),
     "l3_accesses_per_instr", None),
    # step laws
    ("time-monotonic", None, _nth("on_step", 1),
     _field(t_start=lambda v: -1.0), "frontier", None),
    ("time-monotonic", None, _nth("on_step", 1),
     _field(t_end=lambda v: -1.0), "t_end", None),
    ("fraction-bounds", None, _nth("on_step", 1),
     _field(fraction=lambda v: 1.5), "fraction", None),
    ("step-work", None, _nth("on_step", 1),
     _field(instructions=lambda v: -1.0), "instructions", None),
    # phase laws
    ("phase-summary", None, _nth("on_phase_complete"),
     _field(mean_cpi=lambda v: 0.0), "mean_cpi", None),
    ("fraction-conservation", None, _step_before_first_phase,
     _field(fraction=lambda v: v * 0.5), "fraction_sum", None),
    # run-level laws
    ("time-total", None, _nth("on_run_complete"), lambda t: t * 0.5,
     "total_time", None),
    ("counter-sign", None, _nth("on_result"),
     _total(Event.MACHINE_CLEAR, lambda t: -1.0), "MACHINE_CLEAR", None),
    ("hit-miss-closure", None, _nth("on_result"),
     _total(Event.DTLB_MISS, lambda t: 2 * t[Event.DTLB_ACCESS] + 1),
     "DTLB_MISS", None),
    ("l1-l2-chain", None, _nth("on_result"),
     _total(Event.L2_ACCESS, lambda t: 2 * t[Event.L2_ACCESS] + 1),
     "L2_ACCESS", None),
    ("l2-l3-chain", L3, _nth("on_result"),
     _total(Event.L3_ACCESS, lambda t: 2 * t[Event.L3_ACCESS] + 1),
     "L3_ACCESS", None),
    ("l3-l4-chain", L3, _nth("on_result"),
     _total(Event.L4_ACCESS, lambda t: 2 * t[Event.L3_MISS] + 1),
     "L4_ACCESS", None),
    ("cycle-accounting", None, _nth("on_result"),
     _total(Event.STALL_CYCLES, lambda t: 2 * t[Event.CYCLES] + 1,
            program_id=1),
     "STALL_CYCLES", None),
    ("bus-conservation", None, _nth("on_result"),
     _total(Event.BUS_TRANS_DEMAND, lambda t: 2 * t[Event.L2_MISS] + 1),
     "BUS_TRANS_DEMAND", None),
    ("bus-conservation", None, _nth("on_result"),
     _total(Event.BUS_TRANS_PREFETCH, lambda t: 10 * t[Event.L2_MISS] + 1),
     "BUS_TRANS_PREFETCH", None),
    ("instruction-conservation", None, _nth("on_result"),
     _total(Event.INSTR_RETIRED, lambda t: 2 * t[Event.INSTR_RETIRED],
            program_id=1),
     "retired", 1),
    ("runtime-positive", None, _nth("on_result"), _program_runtime(1, 0.0),
     "runtime_seconds", 1),
]


def _expected_where(hook, arg, step, corrupt, run_program):
    """(step, phase, program_id, context) the violation must carry."""
    if hook == "on_resolve":
        label = corrupt.context or list(arg.resolved)[-1]
        r = arg.resolved[label]
        return step, r.active.phase.name, r.active.spec.program_id, label
    if hook in ("on_step", "on_phase_complete"):
        return step, arg.phase_name, arg.program_id, None
    return None, None, run_program, None


@pytest.mark.parametrize(
    "check, machine, pick, corrupt, token, run_program",
    LAW_CASES,
    ids=[f"{c[0]}:{c[4]}" for c in LAW_CASES],
)
def test_every_law_is_caught_with_provenance(
    check, machine, pick, corrupt, token, run_program
):
    calls = _trace(machine)
    verify.reset_stats()
    violation, (hook, arg, step) = _replay(calls, pick(calls), corrupt)
    assert violation.check == check, str(violation)
    assert (
        violation.step, violation.phase, violation.program_id,
        violation.context,
    ) == _expected_where(hook, arg, step, corrupt, run_program)
    assert token in str(violation)
    assert verify.stats().violations == 1
    if violation.context is not None:
        # A class member, not its representative, was corrupted.
        classes = [r.class_index for r in arg.resolved.values()]
        assert classes.count(arg.resolved[violation.context].class_index) > 1


class _StuckResolver:
    last_residual = 1.0


def test_resolver_residual_is_caught_on_a_real_step():
    calls = _trace()
    violation, (hook, arg, step) = _replay(
        calls, _nth("on_resolve")(calls), lambda event: event,
        resolver=_StuckResolver(),
    )
    assert violation.check == "resolver-residual"
    assert hook == "on_resolve" and violation.step == arg.step == 1
    assert violation.context is None and violation.program_id is None
    assert "residual=1" in str(violation)

