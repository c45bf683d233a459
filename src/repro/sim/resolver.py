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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.cpu.branch import analytic_mispredict_rate
from repro.cpu.pipeline import (
    _COVERED_EXPOSURE,
    CPIBreakdown,
    PipelineModel,
)
from repro.machine.configurations import MachineConfig
from repro.machine.params import MachineParams
from repro.machine.topology import SystemTopology
from repro.mem.bus import BusModel, BusOutcome
from repro.mem.coherence import coherence_stall_cycles_per_instr
from repro.mem.hierarchy import HierarchyModel, LevelRates
from repro.openmp.env import OMPEnvironment, ScheduleKind
from repro.osmodel.process import ProgramSpec, ThreadPlacement
from repro.osmodel.scheduler import Scheduler
from repro.testing import faults
from repro.trace.phase import Phase

__all__ = [
    "ActiveContext",
    "ContentionResolver",
    "FixedPointResolver",
    "Prework",
    "ResolvedContext",
]

#: Damped fixed-point solver numerics (engine-level, not machine model).
_FIXED_POINT_ITERS = 40
_DAMPING = 0.6


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


#: Distinct active-set shapes each resolver remembers the structure of.
_STRUCTURE_CACHE_SIZE = 512


@dataclass(frozen=True)
class _StepStructure:
    """Machine-lane-independent shape of one step's active set.

    Contexts whose full contention inputs are symmetric collapse into
    one *class*, and both engines solve a step once per class instead
    of once per context: the scalar :class:`FixedPointResolver` over
    Python floats, the batched resolver over ``[n_machines, n_classes]``
    arrays.  For the paper's single-program runs every parallel phase
    collapses to one class (all team members are interchangeable) and
    serial phases have a single active context.
    """

    labels: Tuple[str, ...]
    class_of: Tuple[int, ...]
    #: Active-list index of each class's representative (first member).
    reps: Tuple[int, ...]
    #: Labels whose prework must be computed: class representatives plus
    #: their HT siblings (sibling terms read the sibling's rates/utils).
    needed_labels: frozenset
    #: Per chip, in sorted-chip order: the class of each context on that
    #: chip, in context order (the bus kernel's chip-port fold order).
    chip_members: Tuple[Tuple[int, ...], ...]
    #: Sorted-chip index of each class's representative.
    class_chip: Tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def _classify(
    active: Sequence[ActiveContext], params: MachineParams
) -> _StepStructure:
    """Partition ``active`` into contention-equivalence classes.

    Two contexts are equivalent when (a) their own and their HT
    sibling's phase/team/core/L2-sharing signatures match and (b) their
    chips carry identical ordered signature sequences — which makes
    their demand, chip-port utilization and hence their entire
    fixed-point trajectories identical.  On uniform machines the
    classifier looks only at placement structure and workload identity,
    never at machine parameters, so one partition serves every lane of
    a batch.  Non-uniform machines add each context's socket (the NUMA
    latency and bandwidth tiers are relative to the program's home
    socket) and core class (clock and issue width differ per class).
    """
    labels = tuple(a.placement.context.label for a in active)
    by_core: Dict[Tuple[int, int], List[int]] = {}
    by_chip: Dict[int, List[int]] = {}
    by_socket: Dict[int, List[int]] = {}
    for i, a in enumerate(active):
        by_core.setdefault(a.placement.context.core_key, []).append(i)
        by_chip.setdefault(a.placement.context.chip, []).append(i)
        by_socket.setdefault(a.placement.context.socket, []).append(i)
    chips = sorted(by_chip)
    chip_index = {c: j for j, c in enumerate(chips)}
    uniform = params.uniform

    base: List[Tuple] = []
    sib_of: List[Optional[int]] = []
    for i, a in enumerate(active):
        ctx = a.placement.context
        mates = by_core[ctx.core_key]
        sib = next((j for j in mates if labels[j] != labels[i]), None)
        sib_of.append(sib)
        chipmates = by_chip[ctx.chip]
        socketmates = by_socket[ctx.socket]
        sig: Tuple = (
            a.spec.program_id,
            a.spec.workload.name,
            a.n_work,
            len(mates),
            sib is not None,
            sib is not None
            and active[sib].spec.program_id == a.spec.program_id,
            sib is not None
            and active[sib].spec.workload.name == a.spec.workload.name,
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
        sig = (pair[i], chip_sig[a.placement.context.chip])
        k = classes.get(sig)
        if k is None:
            k = len(reps)
            classes[sig] = k
            reps.append(i)
        class_of.append(k)

    needed: Set[str] = set()
    for i in reps:
        needed.add(labels[i])
        if sib_of[i] is not None:
            needed.add(labels[sib_of[i]])

    return _StepStructure(
        labels=labels,
        class_of=tuple(class_of),
        reps=tuple(reps),
        needed_labels=frozenset(needed),
        chip_members=tuple(
            tuple(class_of[i] for i in by_chip[c]) for c in chips
        ),
        class_chip=tuple(
            chip_index[active[i].placement.context.chip] for i in reps
        ),
    )


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

    Produced by :meth:`FixedPointResolver.prework` for one
    representative per contention-equivalence class (plus its HT
    sibling); consumed by the scalar fixed point and — per machine lane
    — by the batched resolver in :mod:`repro.sim.batch`, which packs
    these per-label scalars into ``[n_machines, n_classes]`` arrays.
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
        #: Residual (max relative CPI delta) of the last fixed point —
        #: the invariant auditor bounds it to catch silent
        #: non-convergence.  ``None`` until the first resolve.
        self.last_residual: Optional[float] = None
        #: Step structures by active-set shape (see :meth:`structure`).
        self._structures: Dict[Tuple, _StepStructure] = {}
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
        labels: Optional[Set[str]] = None,
    ) -> Prework:
        """Fixed-point-invariant state for ``active`` (see :class:`Prework`).

        Args:
            active: the step's busy contexts (the *full* set — grouping,
                sibling lookups and program spans always see everyone).
            labels: restrict the per-context computations to these labels
                (default: all).  The set must be closed under HT
                siblinghood — a label's sibling terms read the sibling's
                rates and utilization.  Both resolvers pass
                :attr:`_StepStructure.needed_labels` (one representative
                per contention-equivalence class, plus siblings) and
                replicate the values across each class.
        """
        by_core: Dict[Tuple[int, int], List[ActiveContext]] = {}
        by_chip: Dict[int, List[ActiveContext]] = {}
        by_socket: Dict[int, List[ActiveContext]] = {}
        for a in active:
            by_core.setdefault(a.placement.context.core_key, []).append(a)
            by_chip.setdefault(a.placement.context.chip, []).append(a)
            by_socket.setdefault(a.placement.context.socket, []).append(a)
        all_active = list(active)

        def scope_group(a: ActiveContext, scope: str) -> List[ActiveContext]:
            """The busy contexts sharing a cache of ``scope`` with ``a``."""
            ctx = a.placement.context
            if scope == "thread":
                return [a]
            if scope == "core":
                return by_core[ctx.core_key]
            if scope == "chip":
                return by_chip[ctx.chip]
            if scope == "socket":
                return by_socket[ctx.socket]
            return all_active

        l2_scope = self.params.l2_scope
        l2_shared_beyond_core = l2_scope in ("chip", "socket", "system")
        extra_level_scopes = tuple(
            lvl.scope for lvl in self.params.extra_levels
        )

        # NUMA home sockets: a program's pages are first-touched by its
        # lowest-numbered context, so every teammate's memory accesses
        # are charged the tier from its own socket to that home socket.
        numa_tiered = self.params.numa_tiered
        home_socket: Dict[int, Tuple[int, int]] = {}
        if numa_tiered:
            for a in active:
                ctx = a.placement.context
                cur = home_socket.get(a.spec.program_id)
                if cur is None or ctx.cpu_id < cur[0]:
                    home_socket[a.spec.program_id] = (ctx.cpu_id, ctx.socket)

        total_visible = self.topology.n_contexts
        ht = self.config.ht

        pw = Prework()
        rates = pw.rates
        misp = pw.misp
        utils = pw.utils
        sibling_util = pw.sibling_util
        sharers_of = pw.sharers_of
        pair_capacity = pw.pair_capacity
        coh_mpi = pw.coh_mpi
        coh_stall = pw.coh_stall

        # Physical span of each program's active team (for coherence
        # transfer distances).
        prog_chips: Dict[int, int] = {}
        for a in active:
            prog_chips.setdefault(a.spec.program_id, 0)
        for pid in prog_chips:
            prog_chips[pid] = len({
                a.placement.context.chip
                for a in active
                if a.spec.program_id == pid
            })
        # Teams spanning NUMA sockets pay the remote tier on their
        # cross-chip cache-to-cache transfers.
        prog_coh_scale: Dict[int, float] = {}
        for pid in prog_chips:
            scale = 1.0
            if numa_tiered:
                socks = sorted({
                    a.placement.context.socket
                    for a in active
                    if a.spec.program_id == pid
                })
                if len(socks) > 1:
                    numa = self.params.topo.numa
                    scale = max(
                        numa.latency(s1, s2)
                        for s1 in socks
                        for s2 in socks
                        if s1 != s2
                    )
            prog_coh_scale[pid] = scale

        for a in active:
            label = a.placement.context.label
            if labels is not None and label not in labels:
                continue
            mates = by_core[a.placement.context.core_key]
            sharers = len(mates)
            sharers_of[label] = sharers
            sibling = next(
                (m for m in mates if m.placement.context.label != label), None
            )
            same_data = (
                sibling is not None
                and sibling.spec.program_id == a.spec.program_id
            )
            same_code = (
                sibling is not None
                and sibling.spec.workload.name == a.spec.workload.name
            )
            co_phase = sibling.phase if sibling is not None else None
            if l2_shared_beyond_core:
                group = scope_group(a, l2_scope)
                l2_sharers = len(group)
                l2_same = all(
                    m.spec.program_id == a.spec.program_id
                    for m in group
                )
            else:
                l2_sharers, l2_same = None, None
            if extra_level_scopes:
                extra_sharing = tuple(
                    (
                        len(g),
                        all(
                            m.spec.program_id == a.spec.program_id
                            for m in g
                        ),
                    )
                    for g in (
                        scope_group(a, scope) for scope in extra_level_scopes
                    )
                )
            else:
                extra_sharing = None
            base_rates = self.hierarchy.evaluate(
                a.phase,
                n_threads=a.n_work,
                core_sharers=sharers,
                same_data=same_data,
                same_code=same_code,
                total_visible_contexts=total_visible,
                co_phase=co_phase,
                l2_sharers=l2_sharers,
                l2_same_data=l2_same,
                extra_sharing=extra_sharing,
            )
            rates[label] = self._apply_schedule_locality(
                base_rates, a.n_work
            )
            misp[label] = analytic_mispredict_rate(
                a.phase,
                self.params.branch,
                n_threads=a.n_work,
                core_sharers=sharers,
                same_program=same_code,
                co_phase=co_phase,
            )
            utils[label] = self._pipeline_for(
                a.placement.context.chip
            ).solo_utilization(a.phase, ht)
            if numa_tiered:
                numa = self.params.topo.numa
                home = home_socket[a.spec.program_id][1]
                pw.mem_scale[label] = numa.latency(
                    a.placement.context.socket, home
                )
                pw.bw_scale[label] = numa.bandwidth(
                    a.placement.context.socket, home
                )
            else:
                pw.mem_scale[label] = 1.0
                pw.bw_scale[label] = 1.0
            # MESI halo-exchange traffic: boundary lines exchanged per
            # iteration, charged per uop of this thread's share.
            if a.n_work > 1 and a.phase.halo_bytes_per_iteration > 0:
                lines_per_iter = (
                    a.phase.halo_bytes_per_iteration
                    / self.params.l2.line_bytes
                )
                instr_per_thread = a.phase.instructions / a.n_work
                coh_mpi[label] = (
                    lines_per_iter * a.phase.iterations / instr_per_thread
                )
            else:
                coh_mpi[label] = 0.0
            coh_stall[label] = coherence_stall_cycles_per_instr(
                coh_mpi[label],
                prog_chips[a.spec.program_id],
                cross_socket_latency_scale=prog_coh_scale[
                    a.spec.program_id
                ],
            )

        sibling_missiness = pw.sibling_missiness
        for a in active:
            label = a.placement.context.label
            if labels is not None and label not in labels:
                continue
            mates = by_core[a.placement.context.core_key]
            sib = next(
                (m for m in mates if m.placement.context.label != label), None
            )
            sibling_util[label] = (
                utils[sib.placement.context.label] if sib is not None else 0.0
            )
            pair_capacity[label] = (
                0.5 * (a.phase.smt_capacity + sib.phase.smt_capacity)
                if sib is not None
                else a.phase.smt_capacity
            )
            if sib is None:
                sibling_missiness[label] = 0.0
            else:
                own = rates[label].l2_misses_per_instr
                other = rates[
                    sib.placement.context.label
                ].l2_misses_per_instr
                sibling_missiness[label] = (
                    min(1.0, other / own) if own > 1e-12 else 1.0
                )

        # --- OS migration noise (multiprogram only) -----------------------
        # The balancer moves threads between busy logical CPUs; each move
        # refills part of the L2 working set from memory.  Expressed as
        # extra misses per instruction at the current execution rate.
        n_programs = len({a.spec.program_id for a in active})
        mig_hz = (
            self.scheduler.multiprogram_migration_hz if n_programs > 1 else 0.0
        )
        if mig_hz > 0 and self.config.ht:
            mig_hz *= self.params.contention.sibling_migration_fraction
        refill_lines = (
            self.params.contention.migration_refill_fraction
            * self.params.l2.size_bytes
            / self.params.l2.line_bytes
        )
        pw.mig_misses_per_sec = mig_hz * refill_lines

        # Per-label terms of the CPI that do not depend on the bus
        # outcome.  Only ``stall_memory`` varies across fixed-point
        # iterations (through the latency multiplier and the prefetch
        # coverage), so the fixed point recomputes just that term — with
        # the exact arithmetic sequence of
        # :meth:`~repro.cpu.pipeline.PipelineModel.breakdown` — and
        # builds the full :class:`CPIBreakdown` once after convergence.
        for a in active:
            label = a.placement.context.label
            if labels is not None and label not in labels:
                continue
            pipe = self._pipeline_for(a.placement.context.chip)
            bd = pipe.breakdown(
                a.phase,
                rates[label],
                misp[label],
                bus_latency_multiplier=1.0,
                prefetch_coverage=0.0,
                ht_enabled=ht,
                sibling_utilization=sibling_util[label],
                self_utilization=utils[label],
                core_sharers=sharers_of[label],
                smt_capacity=pair_capacity[label],
                coherence_stall_per_instr=coh_stall[label],
                sibling_miss_ratio=sibling_missiness[label],
                memory_latency_scale=pw.mem_scale[label],
            )
            pw.breakdowns[label] = bd
            pw.cpi_est[label] = bd.cpi
            pw.fast[label] = (
                bd.cpi_exec * bd.smt_slowdown,
                rates[label].llc_misses_per_instr,
                pipe.effective_mlp(
                    a.phase, sharers_of[label], sibling_missiness[label]
                ),
            )
        return pw

    # ------------------------------------------------------------------
    def structure(self, active: Sequence[ActiveContext]) -> _StepStructure:
        """The contention-equivalence classes of ``active``.

        A pure function of the active set's shape — each context's
        label, program, workload and team size — on this resolver's
        machine, so it is cached by that key.  Threads sharing one
        engine may at worst compute an entry twice.
        """
        key = tuple(
            (a.placement.context.label, a.spec.program_id,
             a.spec.workload.name, a.n_work)
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
        pw = self.prework(active, labels=struct.needed_labels)
        reps = [active[i] for i in struct.reps]
        labels = [struct.labels[i] for i in struct.reps]
        rates = [pw.rates[lab] for lab in labels]
        misp = [pw.misp[lab] for lab in labels]
        coh_mpi = [pw.coh_mpi[lab] for lab in labels]
        breakdowns = [pw.breakdowns[lab] for lab in labels]
        cpi_est = [pw.cpi_est[lab] for lab in labels]
        fast = [pw.fast[lab] for lab in labels]
        mig_misses_per_sec = pw.mig_misses_per_sec
        ht = self.config.ht
        n = len(reps)

        # --- bus/CPI fixed point -----------------------------------------
        line = self.params.llc.line_bytes
        mem_lat_cycles = self.params.memory_latency_cycles
        llc_lat = self.params.llc.latency_cycles
        # Per-class hoists: chip-local clock (the same float on
        # homogeneous machines) and the NUMA-scaled DRAM latency
        # (``x * 1.0`` is exact, so UMA machines are untouched).
        clock = [
            self.params.clock_hz_of(a.placement.context.chip) for a in reps
        ]
        mem_lat_of = [mem_lat_cycles * pw.mem_scale[lab] for lab in labels]
        bus_in = None
        demand: List[float] = []
        # Warm start: each bus call starts from the previous outer
        # iteration's converged coverage.
        mult, cov, util = [], [0.0] * n, []

        max_delta = 0.0
        for _ in range(_FIXED_POINT_ITERS):
            demand = []
            for k in range(n):
                rate = clock[k] / cpi_est[k]
                miss_rate_eff = (
                    rates[k].llc_misses_per_instr
                    + coh_mpi[k]
                    + mig_misses_per_sec / rate
                )
                demand.append(miss_rate_eff * rate * line)
            if bus_in is None:
                bus_in = self.bus.prepare(
                    struct.chip_members,
                    struct.class_chip,
                    demand,
                    [0.5 + 0.5 * a.phase.load_fraction for a in reps],
                    [a.phase.prefetchability for a in reps],
                    [pw.bw_scale[lab] for lab in labels],
                )
            mult, cov, util = self.bus.resolve_lite(bus_in, demand, cov)
            max_delta = 0.0
            for k in range(n):
                exec_term, l2mpi, mlp = fast[k]
                base = breakdowns[k]
                # stall_memory recomputed with the same operation
                # sequence as PipelineModel.breakdown, then chained into
                # the stall sum in CPIBreakdown.stall_per_instr's order,
                # so the fast CPI is bit-identical to base.cpi would be.
                mem_lat = mem_lat_of[k] * mult[k]
                uncovered = l2mpi * (1.0 - cov[k])
                covered = l2mpi * cov[k]
                stall_memory = (
                    uncovered * mem_lat / mlp
                    + covered * llc_lat * _COVERED_EXPOSURE
                )
                cpi = exec_term + (
                    base.stall_l2_hit
                    + stall_memory
                    + base.stall_trace_cache
                    + base.stall_itlb
                    + base.stall_dtlb
                    + base.stall_branch
                    + base.stall_moclear
                    + base.stall_coherence
                )
                # Bandwidth sharing: when the offered traffic exceeds the
                # bus capacity (utilization > 1 at the current execution
                # rate), each thread's time dilates until the bus is
                # exactly full.  CPI_bw = CPI_est * utilization is the
                # processor-sharing equilibrium.
                est = cpi_est[k]
                cpi_bw = est * util[k]
                target = max(cpi, cpi_bw) if util[k] > 1.0 else cpi
                new_cpi = _DAMPING * est + (1 - _DAMPING) * target
                max_delta = max(max_delta, abs(new_cpi - est) / est)
                cpi_est[k] = new_cpi
            if max_delta < 1e-4:
                break
        self.last_residual = max_delta

        outcomes = self.bus.build_outcomes(
            struct.labels, struct.class_of, demand, (mult, cov, util)
        )
        final: List[CPIBreakdown] = []
        for k, a in enumerate(reps):
            lab = labels[k]
            final.append(self._pipeline_for(
                a.placement.context.chip
            ).breakdown(
                a.phase,
                rates[k],
                misp[k],
                bus_latency_multiplier=mult[k],
                prefetch_coverage=cov[k],
                ht_enabled=ht,
                sibling_utilization=pw.sibling_util[lab],
                self_utilization=pw.utils[lab],
                core_sharers=pw.sharers_of[lab],
                smt_capacity=pw.pair_capacity[lab],
                coherence_stall_per_instr=pw.coh_stall[lab],
                sibling_miss_ratio=pw.sibling_missiness[lab],
                memory_latency_scale=pw.mem_scale[lab],
            ))
        cpi_eff = [max(est, bd.cpi) for est, bd in zip(cpi_est, final)]

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
        # Fault-drill hook: a no-op without an active resolver-skew plan.
        faults.maybe_skew_resolver(resolved)
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
