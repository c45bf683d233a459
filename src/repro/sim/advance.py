"""Time advance and counter accounting for the step loop.

Given the resolver's per-context execution rates, this module answers
the loop's remaining questions: how long does the current phase of each
program still need (:meth:`TimeAccountant.phase_wall_time`), what PMU
events does executing a fraction of it generate
(:meth:`TimeAccountant.accumulate`), and what summary metrics describe
the step (:meth:`TimeAccountant.phase_summary`).  All arithmetic is
lifted verbatim from the pre-decomposition engine, so results are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.counters.collector import Collector, check_counts
from repro.counters.events import Event
from repro.machine.params import MachineParams
from repro.mem.bus import PREFETCH_WASTE
from repro.openmp.env import OMPEnvironment
from repro.openmp.loops import partition_imbalance
from repro.openmp.sync import barrier_cycles, fork_join_cycles
from repro.osmodel.process import ProgramSpec
from repro.sim.resolver import ResolvedContext
from repro.trace.phase import Phase

__all__ = [
    "EXTRA_LEVEL_EVENTS",
    "Progress",
    "TimeAccountant",
]

#: (access, miss) event pair for each hierarchy level beyond the L2, in
#: level order.  Only machines declaring extra levels emit these.
EXTRA_LEVEL_EVENTS: Tuple[Tuple[Event, Event], ...] = (
    (Event.L3_ACCESS, Event.L3_MISS),
    (Event.L4_ACCESS, Event.L4_MISS),
)


@dataclass
class Progress:
    """Per-program progress cursor."""

    spec: ProgramSpec
    phase_idx: int = 0
    frac_remaining: float = 1.0
    elapsed: float = 0.0
    done: bool = False

    @property
    def phase(self) -> Phase:
        return self.spec.workload.phases[self.phase_idx]

    def advance_phase(self) -> None:
        self.phase_idx += 1
        self.frac_remaining = 1.0
        if self.phase_idx >= len(self.spec.workload.phases):
            self.done = True


class TimeAccountant:
    """Wall-time projection and PMU-counter accounting for one machine."""

    def __init__(self, params: MachineParams, omp: OMPEnvironment):
        self.params = params
        self.omp = omp

    # ------------------------------------------------------------------
    def phase_wall_time(
        self,
        prog: Progress,
        ctxs: Sequence[ResolvedContext],
        oversub_shares: int = 1,
    ) -> float:
        """Full wall time of the program's current phase at the present
        contention level (compute + imbalance + synchronization);
        ``ctxs`` are the program's resolved contexts this step."""
        phase = prog.phase
        clock = self.params.core.clock_hz
        if not ctxs:
            raise RuntimeError(
                f"no active contexts for program {prog.spec.program_id}"
            )
        n_work = ctxs[0].active.n_work
        instr_per_thread = phase.instructions / n_work
        # clock_hz_of returns the base clock (the same float) on
        # homogeneous machines, so the division is bit-identical there.
        times = [
            instr_per_thread
            * r.cpi_eff
            / self.params.clock_hz_of(r.active.placement.context.chip)
            for r in ctxs
        ]
        slowest = max(times)
        imb = partition_imbalance(self.omp.schedule, phase.imbalance, n_work)
        slowest *= 1.0 + imb

        span_cores = len({r.active.placement.context.core_key for r in ctxs})
        span_chips = len({r.active.placement.context.chip for r in ctxs})
        sync_cycles = 0.0
        if phase.parallel and n_work > 1:
            sync_cycles = (
                phase.iterations
                * phase.barriers
                * barrier_cycles(n_work, span_cores, span_chips)
                + fork_join_cycles(n_work, span_cores, span_chips)
                * max(phase.iterations // 4, 1)
            )
            if oversub_shares > 1:
                # Every barrier forces a full timeslice rotation: each
                # excess share yields through the scheduler once.
                sync_cycles += (
                    phase.iterations
                    * phase.barriers
                    * (oversub_shares - 1)
                    * self.params.contention.oversub_switch_cycles
                )
        return slowest + sync_cycles / clock

    # ------------------------------------------------------------------
    @staticmethod
    def phase_summary(ctxs: Sequence[ResolvedContext]) -> Tuple[float, float]:
        """(mean effective CPI, peak bus utilization) over the team."""
        mean_cpi = sum(r.cpi_eff for r in ctxs) / len(ctxs)
        util = max((r.bus.utilization if r.bus else 0.0) for r in ctxs)
        return mean_cpi, util

    # ------------------------------------------------------------------
    def accumulate(
        self,
        prog: Progress,
        fraction: float,
        ctxs: Sequence[ResolvedContext],
        collector: Collector,
    ) -> None:
        """Record counters for executing ``fraction`` of the phase on the
        program's resolved contexts ``ctxs``.

        Members of one contention-equivalence class (``class_index``)
        share every input, so each class's event dict is built and
        checked once and added to every member's counter set.
        """
        if fraction <= 0:
            return
        phase = prog.phase
        program_id = prog.spec.program_id
        by_class: Dict[int, Dict[Event, float]] = {}
        for r in ctxs:
            label = r.active.placement.context.label
            k = r.class_index
            events = by_class.get(k)
            if events is None:
                events = self._events(phase, fraction, r)
                check_counts(events)
                if k is not None:
                    by_class[k] = events
            collector.add_checked(program_id, label, events)

    @staticmethod
    def _events(
        phase: Phase, fraction: float, r: ResolvedContext
    ) -> Dict[Event, float]:
        """One context's PMU events for ``fraction`` of ``phase``, in a
        fixed order, then any extra-level pairs."""
        instr = phase.instructions / r.active.n_work * fraction
        rates = r.rates
        cov = r.bus.prefetch_coverage if r.bus else 0.0
        l2_misses = instr * rates.l2_misses_per_instr
        # Bus transactions are the *last-level* miss stream; on
        # two-level machines llc_misses_per_instr is the same field,
        # so this value is bit-identical to l2_misses.
        llc_misses = instr * rates.llc_misses_per_instr
        events = {
            Event.INSTR_RETIRED: instr,
            Event.CYCLES: instr * r.cpi_eff,
            Event.STALL_CYCLES: instr * r.stall_per_instr_eff,
            Event.TC_DELIVER: instr * rates.tc_accesses_per_instr,
            Event.TC_MISS: instr * rates.tc_misses_per_instr,
            Event.L1D_ACCESS: instr * rates.l1_accesses_per_instr,
            Event.L1D_MISS: instr * rates.l1_misses_per_instr,
            Event.L2_ACCESS: instr * rates.l2_accesses_per_instr,
            Event.L2_MISS: l2_misses,
            Event.ITLB_ACCESS: instr * rates.itlb_accesses_per_instr,
            Event.ITLB_MISS: instr * rates.itlb_misses_per_instr,
            Event.DTLB_ACCESS: instr * rates.dtlb_accesses_per_instr,
            Event.DTLB_MISS: instr * rates.dtlb_misses_per_instr,
            Event.BRANCH_RETIRED: instr * phase.branches_per_instr,
            Event.BRANCH_MISPRED: instr
            * phase.branches_per_instr
            * r.mispredict_rate,
            Event.BUS_TRANS_DEMAND: llc_misses * (1.0 - cov),
            Event.BUS_TRANS_PREFETCH: llc_misses * cov * (1.0 + PREFETCH_WASTE),
            Event.MACHINE_CLEAR: instr * phase.moclears_per_kinstr / 1000.0,
            Event.COHERENCE_TRANSFER: instr * r.coherence_per_instr,
        }
        for i, lvl in enumerate(rates.extra_levels):
            acc_ev, miss_ev = EXTRA_LEVEL_EVENTS[i]
            events[acc_ev] = instr * lvl.accesses_per_instr
            events[miss_ev] = instr * lvl.misses_per_instr
        return events
