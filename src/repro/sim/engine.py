"""The phase-level simulation engine: a thin step loop.

Execution model
---------------

Programs are lists of phases.  At every *step* the engine looks at the
phase each live program is currently in, asks its
:class:`~repro.sim.resolver.ContentionResolver` for the coupled
contention state of every active hardware context (hierarchy sharing,
branch-predictor pollution, SMT issue contention, and the front-side-bus
fixed point — see :class:`~repro.sim.resolver.FixedPointResolver`), then
advances simulated time to the nearest phase boundary of any program.
The :class:`~repro.sim.advance.TimeAccountant` projects phase wall times
and accumulates PMU counters pro rata; progress is broadcast to
:class:`~repro.sim.observer.SimObserver` hooks (the timeline and phase
log are ordinary observers, as are any tracing/metrics consumers passed
in).  Single-program runs are the one-program special case.
Synchronization (fork/join, barriers, load imbalance) enters each
phase's wall time through the OpenMP cost models.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.counters.collector import Collector
from repro.machine.configurations import MachineConfig
from repro.machine.params import MachineParams
from repro.openmp.env import OMPEnvironment
from repro.osmodel.process import Placement, ProgramSpec
from repro.osmodel.scheduler import Scheduler, make_scheduler
from repro.sim.advance import Progress, TimeAccountant
from repro.sim.observer import (
    PhaseEvent,
    PhaseLogObserver,
    ResolveEvent,
    SimObserver,
    StepEvent,
    TimelineObserver,
    broadcast,
)
from repro.sim.resolver import (
    ActiveContext,
    ContentionResolver,
    FixedPointResolver,
)
from repro.sim.results import ProgramResult, RunResult
from repro.trace.phase import Workload

# Runtime verification (the invariant auditor attaches per run when
# enabled).  Safe against the import cycle: only attribute access at run
# time, and ``repro.verify`` resolves through ``sys.modules`` even while
# partially initialized.
from repro import verify as _verify

# Supervision (deadline/cancellation checkpoints attach per run when a
# budget is armed or signals are routed).  Same cycle-safety argument.
from repro import supervise as _supervise

_MAX_STEPS = 100_000


class Engine:
    """Simulates one machine configuration executing programs.

    Args:
        config: Table-1 processor configuration (HT state, contexts).
        params: machine parameters (default: the configuration's).
        scheduler: placement policy (default ``linux_default``).
        omp: OpenMP runtime environment.
        resolver: contention resolver; the default
            :class:`~repro.sim.resolver.FixedPointResolver` reproduces
            the paper's coupled-contention model exactly.
        observers: extra :class:`~repro.sim.observer.SimObserver` hooks
            notified of every step and phase boundary, after the
            built-in timeline/phase-log observers.
    """

    def __init__(
        self,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        scheduler: Optional[Scheduler] = None,
        omp: Optional[OMPEnvironment] = None,
        resolver: Optional[ContentionResolver] = None,
        observers: Optional[Sequence[SimObserver]] = None,
    ):
        self.config = config
        self.params = params if params is not None else config.machine_params()
        self.topology = config.topology(self.params)
        self.scheduler = scheduler if scheduler is not None else make_scheduler(
            "linux_default"
        )
        self.omp = omp if omp is not None else OMPEnvironment()
        self.resolver = resolver if resolver is not None else FixedPointResolver(
            config=self.config,
            params=self.params,
            topology=self.topology,
            scheduler=self.scheduler,
            omp=self.omp,
        )
        self.accountant = TimeAccountant(self.params, self.omp)
        self.observers: List[SimObserver] = list(observers or [])
        self._oversub_shares = 1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run_single(
        self, workload: Workload, n_threads: Optional[int] = None
    ) -> RunResult:
        """Run one program with the configuration's thread count."""
        threads = self.omp.resolve_threads(
            n_threads if n_threads is not None else self.config.n_threads
        )
        spec = ProgramSpec(workload=workload, n_threads=threads, program_id=0)
        return self.run([spec])

    def run_pair(
        self, workload_a: Workload, workload_b: Workload
    ) -> RunResult:
        """Run two programs concurrently, threads split evenly (the
        paper's multiprogram methodology: all contexts loaded)."""
        per_prog = max(self.config.n_contexts // 2, 1)
        specs = [
            ProgramSpec(workload=workload_a, n_threads=per_prog, program_id=0),
            ProgramSpec(workload=workload_b, n_threads=per_prog, program_id=1),
        ]
        return self.run(specs)

    def run(self, specs: Sequence[ProgramSpec]) -> RunResult:
        """Co-simulate a set of programs to completion.

        A single program may request more threads than the configuration
        has hardware contexts; the excess threads time-share contexts
        (round-robin timeslices) with yield costs at every barrier and a
        small timeslice-rotation throughput tax — the OpenMP
        oversubscription regime.  Multiprogram runs must fit.
        """
        if not specs:
            raise ValueError("need at least one program")
        total_threads = sum(s.n_threads for s in specs)
        if total_threads > self.topology.n_contexts:
            if len(specs) > 1:
                raise ValueError(
                    "oversubscription is only modeled for single-program "
                    "runs"
                )
            return self._run_oversubscribed(specs[0])
        placement = self.scheduler.place(specs, self.topology)
        placement.validate(self.topology)

        progress = [Progress(spec=s) for s in specs]
        collector = Collector()
        timeline_obs = TimelineObserver()
        phase_log_obs = PhaseLogObserver()
        observers: List[SimObserver] = [
            timeline_obs, phase_log_obs, *self.observers
        ]
        if _verify.enabled():
            observers.append(_verify.InvariantAuditor(resolver=self.resolver))
        if _supervise.active():
            observers.append(_supervise.SupervisionObserver())
        broadcast(observers, "on_run_start", specs)
        global_t = 0.0
        step_idx = 0

        for _ in range(_MAX_STEPS):
            live = [p for p in progress if not p.done]
            if not live:
                break

            active = self._active_contexts(live, placement)
            resolved = self.resolver.resolve(active)
            step_idx += 1
            broadcast(observers, "on_resolve",
                      ResolveEvent(step=step_idx, resolved=resolved))

            # Projected remaining wall time of each live program's phase.
            projected: Dict[int, Tuple[float, float]] = {}
            for prog in live:
                full = self.accountant.phase_wall_time(
                    prog, resolved, self._oversub_shares
                )
                projected[prog.spec.program_id] = (
                    full,
                    full * prog.frac_remaining,
                )
            dt = min(rem for _, rem in projected.values())
            if dt <= 0:
                dt = max(rem for _, rem in projected.values())
                if dt <= 0:
                    for prog in live:
                        prog.advance_phase()
                    continue

            for prog in live:
                full, _rem = projected[prog.spec.program_id]
                f = dt / full if full > 0 else prog.frac_remaining
                f = min(f, prog.frac_remaining)
                self.accountant.accumulate(prog, f, resolved, collector)
                mean_cpi, util = self.accountant.phase_summary(prog, resolved)
                ctxs = self.accountant.program_contexts(prog, resolved)
                broadcast(observers, "on_step", StepEvent(
                    program_id=prog.spec.program_id,
                    t_start=global_t,
                    t_end=global_t + dt,
                    phase_name=prog.phase.name,
                    instructions=prog.phase.instructions * f,
                    cpi=mean_cpi,
                    bus_utilization=util,
                    fraction=f,
                    context_labels=tuple(
                        r.active.placement.context.label for r in ctxs
                    ),
                ))
                prog.frac_remaining -= f
                prog.elapsed += dt
                if prog.frac_remaining <= 1e-9:
                    broadcast(observers, "on_phase_complete", PhaseEvent(
                        program_id=prog.spec.program_id,
                        phase_name=prog.phase.name,
                        wall_seconds=full,
                        mean_cpi=mean_cpi,
                        bus_utilization=util,
                    ))
                    prog.advance_phase()
            global_t += dt
        else:  # pragma: no cover - safety net
            raise RuntimeError("simulation failed to converge (step limit)")

        broadcast(observers, "on_run_complete", global_t)
        results = [
            ProgramResult(
                spec=p.spec,
                runtime_seconds=p.elapsed,
                counters=collector.for_program(p.spec.program_id),
            )
            for p in progress
        ]
        result = RunResult(
            config=self.config,
            programs=results,
            collector=collector,
            phase_log=phase_log_obs.phase_log,
            timeline=timeline_obs.timeline,
        )
        broadcast(observers, "on_result", result)
        return result

    def _run_oversubscribed(self, spec: ProgramSpec) -> RunResult:
        """Time-share ``spec.n_threads`` threads over the contexts.

        Each context executes ``shares = ceil(T / C)`` thread timeslices
        per pass.  Per-thread footprints still divide by the *logical*
        team size T (pre-scaled into the access mixes); the run itself
        uses C workers, pays a rotation throughput tax, a yield latency
        per barrier per excess share, and the remainder imbalance when C
        does not divide T."""
        import dataclasses

        from repro.sim.structural import _scale_mix_for_threads

        C = self.topology.n_contexts
        T = spec.n_threads
        shares = math.ceil(T / C)
        extra_ratio = T / C
        contention = self.params.contention

        phases = []
        for phase in spec.workload.phases:
            if not phase.parallel:
                phases.append(phase)
                continue
            mix = _scale_mix_for_threads(phase.access_mix, extra_ratio)
            imb_extra = shares * C / T - 1.0  # remainder convoy
            tax = 1.0 + contention.oversub_throughput_tax * (extra_ratio - 1.0)
            phases.append(dataclasses.replace(
                phase,
                access_mix=mix,
                instructions=phase.instructions * tax,
                imbalance=min(phase.imbalance + imb_extra, 2.0),
            ))
        workload = dataclasses.replace(
            spec.workload, phases=tuple(phases)
        )
        virtual = ProgramSpec(
            workload=workload, n_threads=C, program_id=spec.program_id
        )
        self._oversub_shares = shares
        try:
            result = self.run([virtual])
        finally:
            self._oversub_shares = 1
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def active_contexts(
        self, live: List[Progress], placement: Placement
    ) -> List[ActiveContext]:
        """The busy hardware contexts of one step (public so the
        lockstep batched driver in :mod:`repro.sim.batch` can mirror the
        step loop without duplicating team/phase bookkeeping)."""
        return self._active_contexts(live, placement)

    def _active_contexts(
        self, live: List[Progress], placement: Placement
    ) -> List[ActiveContext]:
        active: List[ActiveContext] = []
        for prog in live:
            phase = prog.phase
            team = placement.program_threads(prog.spec.program_id)
            n_work = prog.spec.n_threads if phase.parallel else 1
            for t in team[:n_work]:
                active.append(
                    ActiveContext(
                        placement=t, spec=prog.spec, phase=phase, n_work=n_work
                    )
                )
        return active

    # Backwards-compatible views of the resolver's models (the old
    # monolithic engine exposed these as attributes).
    @property
    def hierarchy(self):
        return self.resolver.hierarchy

    @property
    def pipeline(self):
        return self.resolver.pipeline

    @property
    def bus(self):
        return self.resolver.bus
