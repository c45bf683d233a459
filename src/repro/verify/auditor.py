"""The :class:`InvariantAuditor`: conservation laws checked per step.

The auditor is a :class:`~repro.sim.observer.SimObserver` that rides
along with the engine's step loop and checks, as the simulation runs:

* **time** — simulated time is non-negative, monotonically advancing,
  and the run's total equals the last step boundary;
* **progress** — step fractions lie in ``[0, 1]`` and sum to exactly
  one phase per phase-complete event;
* **resolver coherence** — per-context rates are physical (all rates
  non-negative, miss rates and mispredict rates in ``[0, 1]``, the
  L1→L2 access chain closes), CPI terms are non-negative with
  ``cpi_eff`` at least the breakdown CPI, and the contention fixed
  point actually converged (residual bound);
* **bus** — per-context occupancy of the binding bottleneck stays
  within capacity (plus the fixed point's convergence slack);
* **counters** — at run completion, the accumulated PMU counters close:
  hits + misses equal accesses at every level, stall cycles never
  exceed total cycles, retired instructions equal the workloads'
  instruction volumes, and bus transactions never exceed L2 misses.

Each law is declared once, as a :class:`_Law` in one of the tables
below: its check id, its message, the names of the values it reports,
how it reads them and the predicate over them.  One evaluator
(:func:`_first_broken`) runs the predicates; a violation's provenance
(message, values, location) is built only once a predicate has failed.
Members of a contention class carry their representative's resolved
objects (:class:`~repro.sim.resolver.FixedPointResolver` fans one
class's state out), so the representative's audit covers them; any
context that differs is audited in full.

Checks are O(contexts) per step and O(1) per counter.  On a 2-CPU host
the hooks take about 7 % of an uncached single-process ``run-all``
(in-process hook timing); the CI overhead gate allows 5 % of wall
time.  A failed check raises :class:`InvariantViolation` carrying full
provenance: the check name, step index, phase, program, hardware
context, and the offending values.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (
    Any, Callable, Dict, Mapping, NamedTuple, NoReturn, Optional, Sequence,
    Tuple,
)

from repro.counters.events import Event
from repro.mem.bus import PREFETCH_WASTE
from repro.sim.observer import (
    PhaseEvent,
    ResolveEvent,
    SimObserver,
    StepEvent,
)

__all__ = [
    "AuditStats",
    "InvariantAuditor",
    "InvariantViolation",
    "stats",
    "reset_stats",
]

#: Relative slack on conservation sums (float accumulation order).
_REL_TOL = 1e-6
#: Absolute slack for comparisons of near-zero quantities.
_ABS_TOL = 1e-9
#: Upper bound on the resolver's converged fixed-point residual.  The
#: damped loop targets 1e-4; saturated-bus runs legitimately exit at the
#: iteration cap with residuals up to ~2e-2 (the bandwidth-sharing knee
#: converges slowly), so the auditor flags only genuine non-convergence.
_MAX_RESIDUAL = 5e-2
#: Bus occupancy bound: converged utilization may overshoot 1.0 by the
#: fixed point's slack while the bandwidth-sharing term dilates time.
_MAX_BUS_OCCUPANCY = 1.0 + 5e-2


class InvariantViolation(AssertionError):
    """A simulation invariant failed, with step/phase provenance.

    Attributes:
        check: short identifier of the violated law (``"l2-closure"``).
        step: engine step index at the point of failure (``None`` for
            run-level checks).
        phase: phase name being executed, when known.
        program_id: program whose state failed the check, when known.
        context: hardware-context label, when known.
        values: the numbers that failed, keyed by name.
    """

    def __init__(
        self,
        check: str,
        message: str,
        step: Optional[int] = None,
        phase: Optional[str] = None,
        program_id: Optional[int] = None,
        context: Optional[str] = None,
        values: Optional[Mapping[str, Any]] = None,
    ):
        self.check = check
        self.step = step
        self.phase = phase
        self.program_id = program_id
        self.context = context
        self.values = dict(values or {})
        where = []
        if step is not None:
            where.append(f"step {step}")
        if phase is not None:
            where.append(f"phase {phase!r}")
        if program_id is not None:
            where.append(f"program {program_id}")
        if context is not None:
            where.append(f"context {context!r}")
        shown = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.values.items()
        )
        parts = [f"invariant {check!r} violated"]
        if where:
            parts.append(f"at {', '.join(where)}")
        text = " ".join(parts) + f": {message}"
        if shown:
            text += f" [{shown}]"
        super().__init__(text)


# ----------------------------------------------------------------------
# Audit accounting (lives here so the auditor increments without a
# circular import; re-exported by the package).

@dataclass
class AuditStats:
    """Counters of audited work (process-wide, monotonically increasing)."""

    runs: int = 0
    steps: int = 0
    phases: int = 0
    checks: int = 0
    violations: int = 0

    def snapshot(self) -> "AuditStats":
        return AuditStats(**self.as_dict())

    def since(self, before: "AuditStats") -> "AuditStats":
        return AuditStats(**{
            k: v - getattr(before, k) for k, v in self.as_dict().items()
        })

    def as_dict(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "steps": self.steps,
            "phases": self.phases,
            "checks": self.checks,
            "violations": self.violations,
        }


#: Process-wide audit counters (per pool worker when fanned out).
_STATS = AuditStats()


def stats() -> AuditStats:
    """The process-wide audit counters."""
    return _STATS


def reset_stats() -> None:
    """Zero the process-wide audit counters (test/CLI bookkeeping)."""
    global _STATS
    _STATS = AuditStats()


# ----------------------------------------------------------------------
# The laws.  Each is declared once; ``_first_broken`` evaluates them and
# ``_fail`` builds a violation's provenance, only once one is broken.


class _Law(NamedTuple):
    """One invariant: ``holds(*read(subject, auditor))`` must be true.

    ``names`` label the values ``read`` returns in a violation.  An
    ``each`` law's predicate must hold for every value on its own; it
    counts one check per value and reports the first value that fails
    (``{name}`` in its message).  ``{level}`` in a check id, message or
    name stands for the cache level audited.
    """

    check: str
    message: str
    names: Tuple[str, ...]
    read: Callable[[Any, Any], Tuple[Any, ...]]
    holds: Callable[..., bool]
    each: bool = False


class _Laws(tuple):
    """A table of laws and the number of checks it counts."""

    def __new__(cls, *laws: _Law) -> "_Laws":
        table = super().__new__(cls, laws)
        table.checks = sum(len(law.names) if law.each else 1 for law in laws)
        return table


def _first_broken(
    laws: _Laws, subject: Any, auditor: Any
) -> Optional[Tuple[_Law, Tuple[Any, ...]]]:
    """The first of *laws* that *subject* breaks, with the values it
    read; ``None`` when every law holds."""
    for law in laws:
        values = law.read(subject, auditor)
        if not law.holds(*values):
            return law, values
    return None


def _fail(
    law: _Law, values: Tuple[Any, ...], level: str = "", **where: Any
) -> NoReturn:
    """Raise *law*'s violation, located by *where*."""
    names = law.names
    if law.each:
        i = next(i for i, v in enumerate(values) if not law.holds(v))
        names, values = names[i:i + 1], values[i:i + 1]

    def fill(text: str) -> str:
        return text.format(level=level, name=names[0])

    _STATS.violations += 1
    raise InvariantViolation(
        fill(law.check), fill(law.message),
        values={fill(n): v for n, v in zip(names, values)}, **where,
    )


def _in_unit(*values: float) -> bool:
    for value in values:
        if not 0.0 <= value <= 1.0:
            return False
    return True


def _non_negative(*values: float) -> bool:
    for value in values:
        if not value >= 0.0:
            return False
    return True


def _close(value: float, ref: float, floor: float = 1e-12) -> bool:
    """Equal up to float accumulation order (relative to ``ref``, or
    to ``floor`` when ``ref`` is smaller)."""
    return abs(value - ref) <= _ABS_TOL + _REL_TOL * max(ref, floor)


def _at_most(value: float, bound: float) -> bool:
    return value <= bound * (1.0 + _REL_TOL) + _ABS_TOL


_MISS_RATES = ("tc_miss_rate", "l1_miss_rate", "l2_miss_rate",
               "itlb_miss_rate", "dtlb_miss_rate")
_ACCESSES = ("tc_accesses_per_instr", "l1_accesses_per_instr",
             "l2_accesses_per_instr", "itlb_accesses_per_instr",
             "dtlb_accesses_per_instr")
_STALLS = ("stall_l2_hit", "stall_memory", "stall_trace_cache",
           "stall_itlb", "stall_dtlb", "stall_branch", "stall_moclear",
           "stall_coherence")
_miss_rates = attrgetter(*_MISS_RATES)
_accesses = attrgetter(*_ACCESSES)
_stalls = attrgetter(*_STALLS)

#: Laws of one resolved context (``r``, a ``ResolvedContext``).
_CONTEXT_LAWS = _Laws(
    _Law("rate-bounds", "{name} outside [0, 1]",
         (*_MISS_RATES, "mispredict_rate"),
         lambda r, a: (*_miss_rates(r.rates), r.mispredict_rate),
         _in_unit, each=True),
    _Law("rate-bounds", "{name} negative",
         (*_ACCESSES, "coherence_per_instr"),
         lambda r, a: (*_accesses(r.rates), r.coherence_per_instr),
         _non_negative, each=True),
    # The L1 -> L2 access chain closes: global L2 misses per uop equal
    # L2 accesses (= L1 misses) times the local miss rate.
    _Law("l2-closure", "l2_misses_per_instr != l2_accesses * l2_miss_rate",
         ("l2_misses_per_instr", "implied"),
         lambda r, a: (r.rates.l2_misses_per_instr,
                       r.rates.l2_accesses_per_instr * r.rates.l2_miss_rate),
         _close),
    _Law("cpi-exec", "execution CPI must be positive with SMT slowdown >= 1",
         ("cpi_exec", "smt_slowdown"),
         lambda r, a: (r.cpi.cpi_exec, r.cpi.smt_slowdown),
         lambda cpi_exec, slowdown: cpi_exec > 0.0 and slowdown >= 1.0),
    _Law("stall-sign", "negative stall component in CPI breakdown", _STALLS,
         lambda r, a: _stalls(r.cpi), _non_negative),
    # The effective CPI (with bandwidth sharing) can only add time on
    # top of the converged breakdown.
    _Law("cpi-eff", "effective CPI below the breakdown CPI",
         ("cpi_eff", "cpi"), lambda r, a: (r.cpi_eff, r.cpi.cpi),
         lambda cpi_eff, cpi: cpi_eff >= cpi * (1.0 - _REL_TOL)),
)

#: Per-level closure beyond the L2 (``s``, a ``(LevelRate, misses per
#: uop of the inner level)`` pair): bounded local rates, accesses equal
#: to the inner level's misses, and misses = accesses * local rate.
_LEVEL_LAWS = _Laws(
    _Law("rate-bounds", "{level}_miss_rate outside [0, 1]",
         ("{level}_miss_rate",), lambda s, a: (s[0].miss_rate,), _in_unit),
    _Law("rate-bounds", "{level}_accesses_per_instr negative",
         ("{level}_accesses_per_instr",),
         lambda s, a: (s[0].accesses_per_instr,), _non_negative),
    _Law("{level}-closure", "{level}_misses_per_instr != accesses * miss_rate",
         ("{level}_misses_per_instr", "implied"),
         lambda s, a: (s[0].misses_per_instr,
                       s[0].accesses_per_instr * s[0].miss_rate),
         _close),
    _Law("{level}-chain",
         "{level} accesses differ from the inner level's misses",
         ("{level}_accesses_per_instr", "inner_misses_per_instr"),
         lambda s, a: (s[0].accesses_per_instr, s[1]), _close),
)

#: Laws of a context's bus outcome (``b``, a ``BusOutcome``).
_BUS_LAWS = _Laws(
    _Law("bus-occupancy", "bus occupancy exceeds capacity",
         ("utilization", "bound"),
         lambda b, a: (b.utilization, a.max_bus_occupancy),
         lambda utilization, bound: 0.0 <= utilization <= bound),
    _Law("bus-outcome",
         "prefetch coverage outside [0, 1] or latency multiplier below 1",
         ("prefetch_coverage", "latency_multiplier"),
         lambda b, a: (b.prefetch_coverage, b.latency_multiplier),
         lambda coverage, multiplier: (
             0.0 <= coverage <= 1.0 and multiplier >= 1.0)),
)

_RESIDUAL_LAWS = _Laws(
    _Law("resolver-residual", "contention fixed point did not converge",
         ("residual", "bound"), lambda res, a: (res, a.max_residual),
         lambda residual, bound: residual <= bound),
)

#: Laws of one program's step (``e``, a ``StepEvent``).
_STEP_LAWS = _Laws(
    _Law("time-monotonic", "step starts before the frontier of simulated time",
         ("t_start", "frontier"), lambda e, a: (e.t_start, a._frontier),
         lambda t_start, frontier: t_start >= frontier - _ABS_TOL),
    _Law("time-monotonic", "step ends before it starts",
         ("t_start", "t_end"), lambda e, a: (e.t_start, e.t_end),
         lambda t_start, t_end: t_end >= t_start),
    _Law("fraction-bounds", "phase fraction outside [0, 1]",
         ("fraction",), lambda e, a: (e.fraction,),
         lambda fraction: -_ABS_TOL <= fraction <= 1.0 + _REL_TOL),
    _Law("step-work", "negative instruction count or non-positive CPI",
         ("instructions", "cpi"), lambda e, a: (e.instructions, e.cpi),
         lambda instructions, cpi: instructions >= 0.0 and cpi > 0.0),
)

#: Laws of a completed phase (``e``, a ``PhaseEvent``).
_PHASE_LAWS = _Laws(
    _Law("phase-summary", "negative phase wall time or non-positive mean CPI",
         ("wall_seconds", "mean_cpi"),
         lambda e, a: (e.wall_seconds, e.mean_cpi),
         lambda wall_seconds, cpi: wall_seconds >= 0.0 and cpi > 0.0),
    _Law("fraction-conservation",
         "step fractions do not sum to one full phase", ("fraction_sum",),
         lambda e, a: (a._fractions[e.program_id],),
         lambda fraction_sum: abs(fraction_sum - 1.0) <= 1e-6),
)

_RUN_LAWS = _Laws(
    _Law("time-total", "total simulated time below the last step boundary",
         ("total_time", "frontier"),
         lambda t, a: (t, max(a._frontier, a._step_end)),
         lambda t, frontier: t >= frontier - _ABS_TOL - _REL_TOL * frontier),
)


def _counts(*events: Event) -> Callable[[Any, Any], Tuple[float, ...]]:
    """A reader of *events* (two or more) from a run's counter totals."""
    get = itemgetter(*events)
    return lambda totals, a: get(totals)


def _counter_laws(l3: bool, l4: bool) -> _Laws:
    """Laws of a run's accumulated counters, for a hierarchy whose L3
    and L4 saw traffic or not (the hand-off into a level is vacuous when
    its access counter was never emitted)."""
    demand, prefetch = Event.BUS_TRANS_DEMAND, Event.BUS_TRANS_PREFETCH
    # The bus carries the deepest level's misses.
    llc_miss = Event.L4_MISS if l4 else Event.L3_MISS if l3 else Event.L2_MISS
    closures = (
        ("tc", Event.TC_MISS, Event.TC_DELIVER),
        ("l1d", Event.L1D_MISS, Event.L1D_ACCESS),
        ("l2", Event.L2_MISS, Event.L2_ACCESS),
        ("l3", Event.L3_MISS, Event.L3_ACCESS),
        ("l4", Event.L4_MISS, Event.L4_ACCESS),
        ("itlb", Event.ITLB_MISS, Event.ITLB_ACCESS),
        ("dtlb", Event.DTLB_MISS, Event.DTLB_ACCESS),
        ("branch", Event.BRANCH_MISPRED, Event.BRANCH_RETIRED),
    )
    # Every L1 data miss is an L2 access, and so on outward: each
    # hand-off closes exactly.
    chains = (
        ("l1-l2-chain", Event.L1D_MISS, Event.L2_ACCESS, True),
        ("l2-l3-chain", Event.L2_MISS, Event.L3_ACCESS, l3),
        ("l3-l4-chain", Event.L3_MISS, Event.L4_ACCESS, l4),
    )
    return _Laws(
        _Law("counter-sign", "negative accumulated counter {name}",
             tuple(event.name for event in Event), _counts(*Event),
             _non_negative, each=True),
        *(_Law("hit-miss-closure", f"{level} misses exceed accesses",
               (miss.name, access.name), _counts(miss, access), _at_most)
          for level, miss, access in closures),
        *(_Law(check, f"{outer.name} differs from {inner.name}",
               (inner.name, outer.name), _counts(inner, outer),
               lambda inner, outer: _close(outer, inner, 1.0))
          for check, inner, outer, present in chains if present),
        _Law("cycle-accounting", "stall cycles exceed total cycles",
             ("STALL_CYCLES", "CYCLES"),
             _counts(Event.STALL_CYCLES, Event.CYCLES), _at_most),
        # Demand bus transactions are the uncovered last-level miss
        # stream; prefetch transactions cover the rest plus bounded
        # waste.
        _Law("bus-conservation",
             "demand bus transactions exceed last-level misses",
             ("BUS_TRANS_DEMAND", "LLC_MISS"), _counts(demand, llc_miss),
             _at_most),
        _Law("bus-conservation",
             "useful bus transactions exceed last-level misses",
             ("BUS_TRANS_DEMAND", "BUS_TRANS_PREFETCH", "LLC_MISS"),
             _counts(demand, prefetch, llc_miss),
             lambda demand, prefetch, llc: _at_most(
                 demand + prefetch / (1.0 + PREFETCH_WASTE), llc)),
    )


#: ``_counter_laws`` by whether the L3 and the L4 saw traffic.
_COUNTER_LAWS = {
    (l3, l4): _counter_laws(l3, l4)
    for l3 in (False, True) for l4 in (False, True)
}

#: Laws of one program's result (``p``, a ``ProgramResult``).
_PROGRAM_LAWS = _Laws(
    _Law("instruction-conservation",
         "retired instructions differ from the workload's instruction volume",
         ("retired", "expected"),
         lambda p, a: (p.counters.get(Event.INSTR_RETIRED),
                       a._programs[p.spec.program_id]),
         lambda retired, expected: _close(retired, expected, 1.0)),
    _Law("runtime-positive", "program finished in non-positive time",
         ("runtime_seconds",), lambda p, a: (p.runtime_seconds,),
         lambda runtime_seconds: runtime_seconds > 0.0),
)


def _covers(audited: Any, r: Any) -> bool:
    """Whether the full audit of context *audited* covers *r* too: *r*
    carries the very ``rates`` and ``cpi`` objects and equal values in
    every other field the context and bus laws read, as the members of
    one contention class do."""
    if not (r.rates is audited.rates and r.cpi is audited.cpi
            and r.mispredict_rate == audited.mispredict_rate
            and r.coherence_per_instr == audited.coherence_per_instr
            and r.cpi_eff == audited.cpi_eff):
        return False
    bus, seen = r.bus, audited.bus
    if bus is None or seen is None:
        return bus is seen
    return (bus.utilization == seen.utilization
            and bus.prefetch_coverage == seen.prefetch_coverage
            and bus.latency_multiplier == seen.latency_multiplier)


# ----------------------------------------------------------------------

class InvariantAuditor(SimObserver):
    """Checks the engine's conservation laws as the simulation runs.

    Args:
        resolver: the engine's contention resolver; when it exposes a
            ``last_residual`` (the default
            :class:`~repro.sim.resolver.FixedPointResolver` does), the
            auditor bounds the fixed point's convergence residual.
        max_residual: largest acceptable fixed-point residual.
        max_bus_occupancy: largest acceptable bus utilization at the
            converged execution rates.
    """

    def __init__(
        self,
        resolver: Any = None,
        max_residual: float = _MAX_RESIDUAL,
        max_bus_occupancy: float = _MAX_BUS_OCCUPANCY,
    ):
        self.resolver = resolver
        self.max_residual = max_residual
        self.max_bus_occupancy = max_bus_occupancy
        #: Program id -> its workload's instruction volume, and -> the
        #: step fractions accumulated toward its current phase.
        self._programs: Dict[int, float] = {}
        self._fractions: Dict[int, float] = {}
        self._step = 0
        #: Frontier: simulated time at the start of the current engine
        #: step.  Concurrent programs share the step's interval, so the
        #: frontier only commits at step boundaries (``on_resolve``).
        self._frontier = 0.0
        self._step_end = 0.0

    def _audit(self, laws: _Laws, subject: Any, **where: Any) -> None:
        """Count *laws* and check them on *subject*; a broken one
        raises, located by *where*."""
        _STATS.checks += laws.checks
        broken = _first_broken(laws, subject, self)
        if broken is not None:
            _fail(*broken, **where)

    # ------------------------------------------------------------------
    def on_run_start(self, specs: Sequence) -> None:
        _STATS.runs += 1
        self._programs = {
            s.program_id: s.workload.total_instructions for s in specs
        }
        self._fractions = dict.fromkeys(self._programs, 0.0)
        self._step = 0
        self._frontier = 0.0
        self._step_end = 0.0

    def on_resolve(self, event: ResolveEvent) -> None:
        self._step = step = event.step
        if self._step_end > self._frontier:
            self._frontier = self._step_end
        residual = getattr(self.resolver, "last_residual", None)
        if residual is not None:
            self._audit(_RESIDUAL_LAWS, residual, step=step)
        # id(rates) -> (the context audited in full with those rates,
        # its check count); the class members it covers count as many.
        audited: Dict[int, Tuple[Any, int]] = {}
        for label, r in event.resolved.items():
            prior = audited.get(id(r.rates))
            if prior is not None and _covers(prior[0], r):
                _STATS.checks += prior[1]
            else:
                audited[id(r.rates)] = (r, self._audit_context(step, label, r))

    def _audit_context(self, step: int, label: str, r: Any) -> int:
        """Audit one resolved context in full; returns its check count."""
        checks = _CONTEXT_LAWS.checks
        broken = _first_broken(_CONTEXT_LAWS, r, self)
        level, inner = "", r.rates.l2_misses_per_instr
        for rate in r.rates.extra_levels:
            if broken is not None:
                break
            checks += _LEVEL_LAWS.checks
            level = rate.name
            broken = _first_broken(_LEVEL_LAWS, (rate, inner), self)
            inner = rate.misses_per_instr
        if broken is None and r.bus is not None:
            checks += _BUS_LAWS.checks
            broken = _first_broken(_BUS_LAWS, r.bus, self)
        _STATS.checks += checks
        if broken is not None:
            _fail(*broken, level=level, step=step, phase=r.active.phase.name,
                  program_id=r.active.spec.program_id, context=label)
        return checks

    def on_step(self, event: StepEvent) -> None:
        _STATS.steps += 1
        self._audit(_STEP_LAWS, event, step=self._step,
                    phase=event.phase_name, program_id=event.program_id)
        if event.t_end > self._step_end:
            self._step_end = event.t_end
        self._fractions[event.program_id] += event.fraction

    def on_phase_complete(self, event: PhaseEvent) -> None:
        _STATS.phases += 1
        self._audit(_PHASE_LAWS, event, step=self._step,
                    phase=event.phase_name, program_id=event.program_id)
        self._fractions[event.program_id] = 0.0

    def on_run_complete(self, total_time: float) -> None:
        self._audit(_RUN_LAWS, total_time)

    def on_result(self, result: Any) -> None:
        # The run's totals: its programs' counters, which the engine has
        # already merged over each program's contexts.
        totals = defaultdict(float)
        for prog in result.programs:
            for event, value in prog.counters.as_dict().items():
                totals[event] += value
        laws = _COUNTER_LAWS[
            totals[Event.L3_ACCESS] > 0.0, totals[Event.L4_ACCESS] > 0.0
        ]
        self._audit(laws, totals)
        for prog in result.programs:
            self._audit(_PROGRAM_LAWS, prog, program_id=prog.spec.program_id)
