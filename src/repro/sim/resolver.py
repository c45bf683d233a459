"""Contention resolution: the coupled fixed point behind every step.

The engine's step loop asks a :class:`ContentionResolver` one question:
*given these active hardware contexts, how fast does each one execute?*
The default :class:`FixedPointResolver` answers it the way the monolithic
engine used to, as a damped fixed point over four coupled effects:

1. hierarchy rates (HT capacity sharing, constructive code/data sharing),
2. branch-predictor pollution,
3. SMT issue-slot contention,
4. front-side-bus queueing + prefetch coverage (execution rate determines
   bus load determines memory stalls determines execution rate).

It solves each step once per *contention-equivalence class* of active
contexts (:func:`_classify`; the threads of a homogeneous team are one
class) and fans the class's state out to its members, bit-identically
to solving every context on its own.

Alternative resolvers (an uncontended oracle, a learned model, a
different interconnect) plug into the engine through the same protocol
without touching the step loop.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.cpu.branch import analytic_mispredict_rate
from repro.cpu.pipeline import (
    _COVERED_EXPOSURE,
    CPIBreakdown,
    PipelineModel,
)
from repro.machine.configurations import MachineConfig
from repro.machine.params import MachineParams, TopologyParams
from repro.machine.topology import SystemTopology
from repro.mem.bus import BusModel, BusOutcome, CpiClasses
from repro.mem.coherence import coherence_stall_cycles_per_instr
from repro.mem.hierarchy import HierarchyModel, LevelRates
from repro.openmp.env import OMPEnvironment, ScheduleKind
from repro.osmodel.process import ProgramSpec, ThreadPlacement
from repro.osmodel.scheduler import Scheduler
from repro.trace.phase import Phase

__all__ = [
    "ActiveContext",
    "ContentionResolver",
    "FixedPointResolver",
    "Prework",
    "ResolvedContext",
]

@dataclass
class ActiveContext:
    """One busy hardware context during a step."""

    placement: ThreadPlacement
    spec: ProgramSpec
    phase: Phase
    n_work: int  # active team size (1 for serial phases)


@dataclass
class ResolvedContext:
    """Contention-resolved execution state for one active context."""

    active: ActiveContext
    rates: LevelRates
    mispredict_rate: float
    cpi: CPIBreakdown
    bus: Optional[BusOutcome]
    coherence_per_instr: float = 0.0
    #: Effective CPI including bandwidth-sharing time (>= cpi.cpi): when
    #: the FSB saturates, threads wait for their share of the bus beyond
    #: the per-miss latency the breakdown accounts for.
    cpi_eff: float = 0.0
    #: Contention-equivalence class of this context within its step
    #: (members of one class share every value above); ``None`` when the
    #: resolver does not classify.  Not part of equality.
    class_index: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.cpi_eff <= 0:
            self.cpi_eff = self.cpi.cpi

    @property
    def stall_per_instr_eff(self) -> float:
        """All non-execution cycles per uop, including bus waiting."""
        exec_cycles = self.cpi.cpi_exec * self.cpi.smt_slowdown
        return max(self.cpi_eff - exec_cycles, 0.0)


#: Distinct active-set shapes remembered per machine structure.
_STRUCTURE_CACHE_SIZE = 512


class _ClassShape(NamedTuple):
    """Shape-only prework inputs of one class representative: its
    active-list index and label; its HT sibling's index and class; the
    busy contexts on its core; whether the sibling runs the same program
    instance (data) and binary (code); the ``(sharers, same program)``
    of an L2 shared beyond the core (else ``None``) and of each level
    beyond the L2; its chip; the NUMA latency and bandwidth multipliers
    toward its program's home socket (1.0 on UMA machines); and the
    chips its program's busy team spans, with the NUMA latency scale of
    the team's cross-chip coherence transfers."""

    index: int
    label: str
    sibling: Optional[int]
    sibling_class: Optional[int]
    sharers: int
    same_data: bool
    same_code: bool
    l2_sharers: Optional[int]
    l2_same_data: Optional[bool]
    extra_sharing: Optional[Tuple[Tuple[int, bool], ...]]
    chip: int
    mem_scale: float
    bw_scale: float
    program_chips: int
    coherence_scale: float


@dataclass(frozen=True)
class _StepStructure:
    """The shape of one step's active set on one machine structure.

    Contexts whose full contention inputs are symmetric collapse into
    one *class*, and :class:`FixedPointResolver` solves a step once per
    class instead of once per context.  For the paper's single-program
    runs every parallel phase collapses to one class (all team members
    are interchangeable) and serial phases have a single active context.
    Everything here follows from placements, program identities, team
    sizes and the machine's topology and cache scopes, never from a
    phase, so one structure serves every step (and run) of that shape.
    """

    labels: Tuple[str, ...]
    class_of: Tuple[int, ...]
    #: Per class: its representative's (first member's) shape-only
    #: prework inputs.
    classes: Tuple[_ClassShape, ...]
    #: Per chip, in sorted-chip order: the class of each context on that
    #: chip, in context order (the bus kernel's chip-port fold order).
    chip_members: Tuple[Tuple[int, ...], ...]
    #: Sorted-chip index of each class's representative.
    class_chip: Tuple[int, ...]
    #: More than one program is busy (OS migration noise applies).
    multiprogram: bool


def _classify(
    active: Sequence[ActiveContext], params: MachineParams, merge: bool = True
) -> _StepStructure:
    """Partition ``active`` into contention-equivalence classes.

    Two contexts are equivalent when (a) their own and their HT
    sibling's phase/team/core/L2-sharing signatures match and (b) their
    chips carry identical ordered signature sequences — which makes
    their demand, chip-port utilization and hence their entire
    fixed-point trajectories identical.  On uniform machines the
    classifier looks only at placement structure and workload identity,
    never at machine parameters, so one partition serves every
    machine.  Non-uniform machines add each context's socket (the NUMA
    latency and bandwidth tiers are relative to the program's home
    socket) and core class (clock and issue width differ per class).
    With ``merge=False`` every context is its own class.
    """
    labels = tuple(a.placement.context.label for a in active)
    by_core: Dict[Tuple[int, int], List[int]] = {}
    by_chip: Dict[int, List[int]] = {}
    by_socket: Dict[int, List[int]] = {}
    by_program: Dict[int, List[int]] = {}
    for i, a in enumerate(active):
        by_core.setdefault(a.placement.context.core_key, []).append(i)
        by_chip.setdefault(a.placement.context.chip, []).append(i)
        by_socket.setdefault(a.placement.context.socket, []).append(i)
        by_program.setdefault(a.spec.program_id, []).append(i)
    chips = sorted(by_chip)
    chip_index = {c: j for j, c in enumerate(chips)}
    uniform = params.uniform

    base: List[Tuple] = []
    sib_of: List[Optional[int]] = []
    # Per context: the sibling runs the same program / the same binary.
    same: List[Tuple[bool, bool]] = []
    for i, a in enumerate(active):
        ctx = a.placement.context
        mates = by_core[ctx.core_key]
        sib = next((j for j in mates if labels[j] != labels[i]), None)
        sib_of.append(sib)
        same.append((
            sib is not None
            and active[sib].spec.program_id == a.spec.program_id,
            sib is not None
            and active[sib].spec.workload.name == a.spec.workload.name,
        ))
        chipmates = by_chip[ctx.chip]
        socketmates = by_socket[ctx.socket]
        sig: Tuple = (
            a.spec.program_id,
            a.spec.workload.name,
            a.n_work,
            len(mates),
            sib is not None,
            *same[i],
            len(chipmates),
            all(
                active[j].spec.program_id == a.spec.program_id
                for j in chipmates
            ),
            # Socket-scope sharing signature: on single-chip sockets
            # (every legacy machine) this duplicates the chip entries,
            # so legacy class partitions are unchanged.
            len(socketmates),
            all(
                active[j].spec.program_id == a.spec.program_id
                for j in socketmates
            ),
        )
        if not uniform:
            core_class = params.topo.class_of_chip(ctx.chip)
            sig += (
                ctx.socket,
                None if core_class is None else core_class.name,
            )
        base.append(sig)
    # Pair signature: own + sibling base (sibling terms read both sides);
    # chip signature: the ordered pair signatures sharing my FSB port.
    pair = [
        (base[i], base[sib_of[i]] if sib_of[i] is not None else None)
        for i in range(len(active))
    ]
    chip_sig = {c: tuple(pair[i] for i in by_chip[c]) for c in chips}

    classes: Dict[Tuple, int] = {}
    class_of: List[int] = []
    reps: List[int] = []
    for i, a in enumerate(active):
        sig = (pair[i], chip_sig[a.placement.context.chip]) if merge else i
        k = classes.get(sig)
        if k is None:
            k = len(reps)
            classes[sig] = k
            reps.append(i)
        class_of.append(k)

    def sharing(i: int, scope: str) -> Tuple[int, bool]:
        """How many busy contexts share a cache of ``scope`` with ``i``,
        and whether they all run its program."""
        ctx = active[i].placement.context
        group = {
            "thread": [i],
            "core": by_core[ctx.core_key],
            "chip": by_chip[ctx.chip],
            "socket": by_socket[ctx.socket],
        }.get(scope, range(len(active)))
        pid = active[i].spec.program_id
        return len(group), all(active[j].spec.program_id == pid for j in group)

    numa = params.topo.numa if params.numa_tiered else None
    program_shape: Dict[int, Tuple[int, float, int]] = {}
    for pid, team in by_program.items():
        # Physical span of the team (coherence transfer distances);
        # teams spanning NUMA sockets pay the remote tier on their
        # cross-chip cache-to-cache transfers.  A program's pages are
        # first-touched by its lowest-numbered context, so every
        # teammate's memory accesses are charged the tier from its own
        # socket to that home socket.
        ctxs = [active[j].placement.context for j in team]
        span = len({c.chip for c in ctxs})
        scale, home = 1.0, 0
        if numa is not None:
            home = min(ctxs, key=lambda c: c.cpu_id).socket
            socks = sorted({c.socket for c in ctxs})
            if len(socks) > 1:
                scale = max(
                    numa.latency(s1, s2)
                    for s1 in socks
                    for s2 in socks
                    if s1 != s2
                )
        program_shape[pid] = (span, scale, home)

    l2_scope = params.l2_scope
    l2_shared_beyond_core = l2_scope in ("chip", "socket", "system")
    extra_scopes = tuple(lvl.scope for lvl in params.extra_levels)
    shapes = []
    for i in reps:
        a = active[i]
        ctx = a.placement.context
        sib = sib_of[i]
        l2_sharers, l2_same = (
            sharing(i, l2_scope) if l2_shared_beyond_core else (None, None)
        )
        span, coh_scale, home = program_shape[a.spec.program_id]
        shapes.append(_ClassShape(
            index=i,
            label=labels[i],
            sibling=sib,
            sibling_class=None if sib is None else class_of[sib],
            sharers=len(by_core[ctx.core_key]),
            same_data=same[i][0],
            same_code=same[i][1],
            l2_sharers=l2_sharers,
            l2_same_data=l2_same,
            extra_sharing=tuple(sharing(i, scope) for scope in extra_scopes)
            if extra_scopes else None,
            chip=ctx.chip,
            mem_scale=1.0 if numa is None else numa.latency(ctx.socket, home),
            bw_scale=1.0 if numa is None else numa.bandwidth(ctx.socket, home),
            program_chips=span,
            coherence_scale=coh_scale,
        ))

    return _StepStructure(
        labels=labels,
        class_of=tuple(class_of),
        classes=tuple(shapes),
        chip_members=tuple(
            tuple(class_of[i] for i in by_chip[c]) for c in chips
        ),
        class_chip=tuple(
            chip_index[active[i].placement.context.chip] for i in reps
        ),
        multiprogram=len(by_program) > 1,
    )


@functools.lru_cache(maxsize=64)
def _structure_table(
    topo: TopologyParams, ht: bool, l2_scope: str, outer_scopes: Tuple[str, ...]
) -> Dict[Tuple, _StepStructure]:
    """The step structures of one machine structure, shared by every
    resolver in the process.  A structure depends on the machine only
    through these arguments, the table's key, so machines differing in
    any other parameter share one table.  It holds shapes only: no
    phase, rate or result."""
    return {}


class ContentionResolver(Protocol):
    """Resolves all coupled contention effects for one active set."""

    def resolve(
        self, active: Sequence[ActiveContext]
    ) -> Dict[str, ResolvedContext]:
        """Map each active context's label to its resolved state."""
        ...


@dataclass
class Prework:
    """Everything the bus/CPI fixed point needs that does *not* change
    across its iterations: hierarchy rates, branch pollution, SMT
    sharing terms, coherence traffic, and the bus-independent CPI
    breakdown each context starts from.

    Produced by :meth:`FixedPointResolver.prework`, keyed by the label of
    each contention-equivalence class's representative; consumed by the
    fixed point.
    """

    rates: Dict[str, LevelRates] = field(default_factory=dict)
    misp: Dict[str, float] = field(default_factory=dict)
    utils: Dict[str, float] = field(default_factory=dict)
    sibling_util: Dict[str, float] = field(default_factory=dict)
    sharers_of: Dict[str, int] = field(default_factory=dict)
    pair_capacity: Dict[str, float] = field(default_factory=dict)
    coh_mpi: Dict[str, float] = field(default_factory=dict)
    coh_stall: Dict[str, float] = field(default_factory=dict)
    sibling_missiness: Dict[str, float] = field(default_factory=dict)
    #: NUMA latency multiplier per label (1.0 on UMA machines).
    mem_scale: Dict[str, float] = field(default_factory=dict)
    #: NUMA bandwidth multiplier per label (1.0 on UMA machines).
    bw_scale: Dict[str, float] = field(default_factory=dict)
    mig_misses_per_sec: float = 0.0
    #: Initial (bus-independent) breakdown per label.
    breakdowns: Dict[str, CPIBreakdown] = field(default_factory=dict)
    #: Initial CPI estimate per label (``breakdowns[label].cpi``).
    cpi_est: Dict[str, float] = field(default_factory=dict)
    #: ``(exec_term, llc_misses_per_instr, effective_mlp)`` per label.
    fast: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)


class FixedPointResolver:
    """The default resolver: hierarchy/branch/SMT/bus as a damped fixed
    point, arithmetically identical to the pre-decomposition engine."""

    def __init__(
        self,
        config: MachineConfig,
        params: MachineParams,
        topology: SystemTopology,
        scheduler: Scheduler,
        omp: OMPEnvironment,
    ):
        self.config = config
        self.params = params
        self.topology = topology
        self.scheduler = scheduler
        self.omp = omp
        self.hierarchy = HierarchyModel(params)
        self.pipeline = PipelineModel(params)
        self.bus = BusModel(params.bus, n_chips_total=topology.n_chips)
        self._total_visible = topology.n_contexts
        #: Residual (max relative CPI delta) of the last fixed point —
        #: the invariant auditor bounds it to catch silent
        #: non-convergence.  ``None`` until the first resolve.
        self.last_residual: Optional[float] = None
        #: Step structures by active-set shape (see :meth:`structure`).
        self._structures = _structure_table(
            params.topo, config.ht, params.l2_scope,
            tuple(lvl.scope for lvl in params.extra_levels),
        )
        c = params.contention
        self._schedule_locality = {
            ScheduleKind.STATIC: 1.0,
            ScheduleKind.DYNAMIC: c.schedule_locality_dynamic,
            ScheduleKind.GUIDED: c.schedule_locality_guided,
        }
        #: Per-chip pipeline views for heterogeneous core mixes (lazily
        #: built; homogeneous machines always reuse ``self.pipeline``).
        self._pipeline_by_chip: Dict[int, PipelineModel] = {}

    def _pipeline_for(self, chip: int) -> PipelineModel:
        """The pipeline model as seen from ``chip``'s cores."""
        if not self.params.heterogeneous:
            return self.pipeline
        pm = self._pipeline_by_chip.get(chip)
        if pm is None:
            pm = PipelineModel(self.params.params_for_chip(chip))
            self._pipeline_by_chip[chip] = pm
        return pm

    # ------------------------------------------------------------------
    def prework(
        self,
        active: Sequence[ActiveContext],
        struct: Optional[_StepStructure] = None,
    ) -> Prework:
        """Fixed-point-invariant state for ``active`` (see :class:`Prework`).

        Args:
            active: the step's busy contexts.
            struct: their classes (:meth:`structure`); the model calls
                run once per class representative, and sibling terms
                read the sibling's class representative, whose values
                the class signature makes identical.  Default: every
                context its own class.
        """
        if struct is None:
            struct = _classify(active, self.params, merge=False)
        params = self.params
        ht = self.config.ht
        total_visible = self._total_visible
        line_bytes = params.l2.line_bytes
        pw = Prework()
        rates = pw.rates
        utils = pw.utils

        for sh in struct.classes:
            a = active[sh.index]
            phase = a.phase
            n_work = a.n_work
            label = sh.label
            co_phase = (
                active[sh.sibling].phase if sh.sibling is not None else None
            )
            base_rates = self.hierarchy.evaluate(
                phase,
                n_threads=n_work,
                core_sharers=sh.sharers,
                same_data=sh.same_data,
                same_code=sh.same_code,
                total_visible_contexts=total_visible,
                co_phase=co_phase,
                l2_sharers=sh.l2_sharers,
                l2_same_data=sh.l2_same_data,
                extra_sharing=sh.extra_sharing,
            )
            rates[label] = self._apply_schedule_locality(base_rates, n_work)
            pw.misp[label] = analytic_mispredict_rate(
                phase,
                params.branch,
                n_threads=n_work,
                core_sharers=sh.sharers,
                same_program=sh.same_code,
                co_phase=co_phase,
            )
            utils[label] = self._pipeline_for(sh.chip).solo_utilization(
                phase, ht
            )
            pw.sharers_of[label] = sh.sharers
            pw.mem_scale[label] = sh.mem_scale
            pw.bw_scale[label] = sh.bw_scale
            # MESI halo-exchange traffic: boundary lines exchanged per
            # iteration, charged per uop of this thread's share.
            if n_work > 1 and phase.halo_bytes_per_iteration > 0:
                lines_per_iter = phase.halo_bytes_per_iteration / line_bytes
                instr_per_thread = phase.instructions / n_work
                coh_mpi = lines_per_iter * phase.iterations / instr_per_thread
            else:
                coh_mpi = 0.0
            pw.coh_mpi[label] = coh_mpi
            pw.coh_stall[label] = coherence_stall_cycles_per_instr(
                coh_mpi,
                sh.program_chips,
                cross_socket_latency_scale=sh.coherence_scale,
            )

        # --- OS migration noise (multiprogram only) -----------------------
        # The balancer moves threads between busy logical CPUs; each move
        # refills part of the L2 working set from memory.  Expressed as
        # extra misses per instruction at the current execution rate.
        mig_hz = (
            self.scheduler.multiprogram_migration_hz
            if struct.multiprogram else 0.0
        )
        if mig_hz > 0 and ht:
            mig_hz *= params.contention.sibling_migration_fraction
        refill_lines = (
            params.contention.migration_refill_fraction
            * params.l2.size_bytes
            / line_bytes
        )
        pw.mig_misses_per_sec = mig_hz * refill_lines

        # Sibling terms, then the per-label terms of the CPI that do not
        # depend on the bus outcome (the fixed point recomputes only
        # ``stall_memory``; see :class:`~repro.mem.bus.CpiClasses`).
        rep_labels = [sh.label for sh in struct.classes]
        for sh in struct.classes:
            a = active[sh.index]
            phase = a.phase
            label = sh.label
            if sh.sibling is None:
                sibling_util = 0.0
                pair_capacity = phase.smt_capacity
                missiness = 0.0
            else:
                sib_label = rep_labels[sh.sibling_class]
                sibling_util = utils[sib_label]
                pair_capacity = 0.5 * (
                    phase.smt_capacity + active[sh.sibling].phase.smt_capacity
                )
                own = rates[label].l2_misses_per_instr
                other = rates[sib_label].l2_misses_per_instr
                missiness = min(1.0, other / own) if own > 1e-12 else 1.0
            pw.sibling_util[label] = sibling_util
            pw.pair_capacity[label] = pair_capacity
            pw.sibling_missiness[label] = missiness
            pipe = self._pipeline_for(sh.chip)
            bd = pipe.breakdown(
                phase,
                rates[label],
                pw.misp[label],
                bus_latency_multiplier=1.0,
                prefetch_coverage=0.0,
                ht_enabled=ht,
                sibling_utilization=sibling_util,
                self_utilization=utils[label],
                core_sharers=sh.sharers,
                smt_capacity=pair_capacity,
                coherence_stall_per_instr=pw.coh_stall[label],
                sibling_miss_ratio=missiness,
                memory_latency_scale=sh.mem_scale,
            )
            pw.breakdowns[label] = bd
            pw.cpi_est[label] = bd.cpi
            pw.fast[label] = (
                bd.cpi_exec * bd.smt_slowdown,
                rates[label].llc_misses_per_instr,
                pipe.effective_mlp(phase, sh.sharers, missiness),
            )
        return pw

    # ------------------------------------------------------------------
    def structure(self, active: Sequence[ActiveContext]) -> _StepStructure:
        """The contention-equivalence classes of ``active``.

        A pure function of the active set's shape — each context's
        label, program and team size, and which contexts run the same
        workload — on this machine's structure, so it is cached by that
        key for the process (:func:`_structure_table`).  Threads sharing
        the table may at worst compute an entry twice.
        """
        workloads: Dict[str, int] = {}
        key = tuple(
            (a.placement.context.label, a.spec.program_id,
             workloads.setdefault(a.spec.workload.name, len(workloads)),
             a.n_work)
            for a in active
        )
        struct = self._structures.get(key)
        if struct is None:
            struct = _classify(active, self.params)
            if len(self._structures) >= _STRUCTURE_CACHE_SIZE:
                self._structures.clear()
            self._structures[key] = struct
        return struct

    # ------------------------------------------------------------------
    def resolve(
        self, active: Sequence[ActiveContext]
    ) -> Dict[str, ResolvedContext]:
        """Solve the step once per contention-equivalence class and fan
        the class's state out to its members."""
        struct = self.structure(active)
        pw = self.prework(active, struct)
        params = self.params
        mem_lat_cycles = params.memory_latency_cycles
        labels = [sh.label for sh in struct.classes]
        reps = [active[sh.index] for sh in struct.classes]
        terms = []
        for lab in labels:
            bd = pw.breakdowns[lab]
            exec_term, llc_mpi, mlp = pw.fast[lab]
            # The NUMA-scaled DRAM latency (``x * 1.0`` is exact, so UMA
            # machines are untouched).
            terms.append((
                llc_mpi, pw.coh_mpi[lab], exec_term, mlp,
                mem_lat_cycles * pw.mem_scale[lab],
                bd.stall_l2_hit, bd.stall_trace_cache, bd.stall_itlb,
                bd.stall_dtlb, bd.stall_branch, bd.stall_moclear,
                bd.stall_coherence,
            ))
        cpi_est = [pw.cpi_est[lab] for lab in labels]
        cpu = CpiClasses(
            # Chip-local clock: the same float on homogeneous machines.
            clock=[params.clock_hz_of(sh.chip) for sh in struct.classes],
            cpi_est=cpi_est,
            terms=terms,
            mig_misses_per_sec=pw.mig_misses_per_sec,
            line_bytes=params.llc.line_bytes,
            llc_latency=params.llc.latency_cycles,
            covered_exposure=_COVERED_EXPOSURE,
        )
        bus_in = self.bus.prepare(
            struct.chip_members,
            struct.class_chip,
            None,
            [0.5 + 0.5 * a.phase.load_fraction for a in reps],
            [a.phase.prefetchability for a in reps],
            [pw.bw_scale[lab] for lab in labels],
        )
        lite = self.bus.resolve_lite(bus_in, None, [0.0] * len(labels), cpu)
        self.last_residual = cpu.residual
        mult, cov, _ = lite

        outcomes = self.bus.build_outcomes(
            struct.labels, struct.class_of, cpu.demand, lite
        )
        final: List[CPIBreakdown] = []
        for k, (a, sh) in enumerate(zip(reps, struct.classes)):
            lab = sh.label
            pipe = self._pipeline_for(sh.chip)
            if pipe.params is params:
                # Only stall_memory depends on the bus outcome, and the
                # fixed point's last pass computed it at the returned
                # multiplier and coverage with breakdown's arithmetic.
                final.append(dataclasses.replace(
                    pw.breakdowns[lab], stall_memory=cpu.stall_memory[k]
                ))
                continue
            # A core class's pipeline converts the DRAM latency to cycles
            # at its own clock, the fixed point at the base clock.
            final.append(pipe.breakdown(
                a.phase,
                pw.rates[lab],
                pw.misp[lab],
                bus_latency_multiplier=mult[k],
                prefetch_coverage=cov[k],
                ht_enabled=self.config.ht,
                sibling_utilization=pw.sibling_util[lab],
                self_utilization=pw.utils[lab],
                core_sharers=sh.sharers,
                smt_capacity=pw.pair_capacity[lab],
                coherence_stall_per_instr=pw.coh_stall[lab],
                sibling_miss_ratio=pw.sibling_missiness[lab],
                memory_latency_scale=sh.mem_scale,
            ))
        cpi_eff = [max(est, bd.cpi) for est, bd in zip(cpi_est, final)]
        rates = [pw.rates[lab] for lab in labels]
        misp = [pw.misp[lab] for lab in labels]
        coh_mpi = [pw.coh_mpi[lab] for lab in labels]

        resolved = {}
        for a, label, k in zip(active, struct.labels, struct.class_of):
            resolved[label] = ResolvedContext(
                active=a,
                rates=rates[k],
                mispredict_rate=misp[k],
                cpi=final[k],
                bus=outcomes[label],
                cpi_eff=cpi_eff[k],
                coherence_per_instr=coh_mpi[k],
                class_index=k,
            )
        return resolved

    # ------------------------------------------------------------------
    def _apply_schedule_locality(
        self, rates: LevelRates, n_work: int
    ) -> LevelRates:
        """Scale data-cache misses for self-scheduled loops (affinity
        loss when chunks migrate between threads)."""
        factor = self._schedule_locality.get(self.omp.schedule, 1.0)
        if factor == 1.0 or n_work <= 1:
            return rates
        l1_miss = min(rates.l1_miss_rate * factor, 1.0)
        l2_global = min(
            rates.l2_misses_per_instr * factor,
            rates.l1_accesses_per_instr * l1_miss,
        )
        l2_acc = rates.l1_accesses_per_instr * l1_miss
        # Cascade the scaling through any outer levels, preserving the
        # per-level closure (accesses = inner level's misses).
        extra = []
        prev = l2_global
        for lvl in rates.extra_levels:
            mpi = min(lvl.misses_per_instr * factor, prev)
            extra.append(dataclasses.replace(
                lvl,
                accesses_per_instr=prev,
                miss_rate=mpi / prev if prev > 0 else 0.0,
                misses_per_instr=mpi,
            ))
            prev = mpi
        return dataclasses.replace(
            rates,
            l1_miss_rate=l1_miss,
            l2_accesses_per_instr=l2_acc,
            l2_miss_rate=l2_global / l2_acc if l2_acc > 0 else 0.0,
            l2_misses_per_instr=l2_global,
            extra_levels=tuple(extra),
        )
