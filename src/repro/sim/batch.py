"""Machine-axis batching: whole sweeps as one tensor computation.

A parameter sweep runs the *same* workloads on n near-identical machines
(`SpecOverride` grids, class scaling, sensitivity perturbations).  The
scalar path resolves each machine's contention fixed point serially;
this module makes the machine axis a NumPy array dimension instead:

* :class:`BatchedFixedPointResolver` performs **one** damped fixed-point
  resolve over a ``[n_machines, n_classes]`` batch — the classes come
  from the scalar resolver's classifier
  (:meth:`~repro.sim.resolver.FixedPointResolver.structure`); hierarchy
  rates, branch pollution and SMT terms come from the scalar
  :meth:`~repro.sim.resolver.FixedPointResolver.prework` (restricted to
  one representative per contention-equivalence class); the outer CPI
  damping runs as NumPy arrays over stacked machine parameters
  (:func:`~repro.machine.packing.pack_machines`), and the bus
  queueing/prefetch inner loop is the scalar kernel run per live lane
  (:func:`~repro.mem.bus.resolve_lite_lanes`).

* :func:`run_batched_single` drives the engine step loop for all lanes
  in lockstep (single-program runs advance exactly one phase per step)
  and accumulates PMU counters as one ``[n_machines, n_contexts,
  n_events]`` array, unpacking per-machine :class:`RunResult` objects
  that are **byte-identical** to the scalar path: every float is
  produced by the same IEEE-754 operation sequence the scalar engine
  executes (explicit left folds, identical damping/convergence masking,
  identical counter insertion order).

* :func:`prefetch_study_runs` is the ``BatchPlan`` layer: it collects a
  sweep's lane studies, deduplicates identical machine fingerprints,
  skips runs already in the run cache, executes the batched engine and
  preloads each lane's results so subsequent scalar-API calls
  (``Study.run`` et al.) hit them transparently.

Scalar fallback is always safe and automatic: runs with observers, the
invariant auditor (``repro.verify``), an active fault plan, multiprogram
or oversubscribed shapes, or mismatched placements/phase structures are
simply left to the unmodified scalar path.  The ``batch`` knob
(``auto`` | ``on`` | ``off``) is read from the active
:class:`~repro.core.context.RunContext`, falling back to the
``REPRO_BATCH`` environment variable; the :class:`BatchStats` counters
and the run-key recorder live on the active context too, so concurrent
sweeps on different threads never mix them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.counters.collector import Collector, CounterSet
from repro.counters.timeline import Timeline, TimelineSample
from repro.cpu.pipeline import _COVERED_EXPOSURE, CPIBreakdown
from repro.machine.packing import PackedMachines, pack_machines
from repro.mem.bus import PREFETCH_WASTE, resolve_lite_lanes
from repro.mem.hierarchy import LevelRates
from repro.openmp.loops import partition_imbalance
from repro.openmp.sync import barrier_cycles, fork_join_cycles
from repro.osmodel.process import ProgramSpec
from repro.sim.advance import EXTRA_LEVEL_EVENTS, STEP_EVENTS, Progress
from repro.sim.engine import Engine
from repro.sim.resolver import (
    _DAMPING,
    _FIXED_POINT_ITERS,
    ActiveContext,
    FixedPointResolver,
    ResolvedContext,
    _StepStructure,
)
from repro.sim.results import PhaseRecord, ProgramResult, RunResult
from repro.testing import faults
from repro.trace.phase import Workload

from repro import verify as _verify

__all__ = [
    "BATCH_MODES",
    "BatchStats",
    "BatchedFixedPointResolver",
    "batching_allowed",
    "get_mode",
    "note_scalar_fallback",
    "prefetch_study_runs",
    "record_run_keys",
    "run_batched_single",
    "runtime_forces_scalar",
]

# ----------------------------------------------------------------------
# The batch knob: "auto" | "on" | "off"
# ----------------------------------------------------------------------

#: Environment override for the batch mode (lowest precedence).
BATCH_ENV = "REPRO_BATCH"
BATCH_MODES = ("auto", "on", "off")


def get_mode() -> str:
    """Effective batch mode: active context > ``REPRO_BATCH`` env >
    ``auto``."""
    from repro.core.context import current

    ctx = current()
    if ctx is not None and ctx.batch is not None:
        return ctx.batch
    env = os.environ.get(BATCH_ENV, "").strip().lower()
    return env if env in BATCH_MODES else "auto"


def batching_allowed(n_lanes: int) -> bool:
    """Does the current mode admit a batch of ``n_lanes`` machines?

    ``auto`` requires at least two lanes (a single machine gains nothing
    from the batched layout); ``on`` forces the batched engine even for
    one lane (the equivalence tests rely on this); ``off`` never
    batches.
    """
    mode = get_mode()
    if mode == "off":
        return False
    if mode == "on":
        return n_lanes >= 1
    return n_lanes >= 2


def runtime_forces_scalar() -> bool:
    """Switches that demand per-machine scalar runs: the invariant
    auditor observes each scalar resolve, and fault-injection plans hook
    the scalar resolver output."""
    return _verify.enabled() or faults.active_plan() is not None


# ----------------------------------------------------------------------
# Accounting: batched vs. fallen-back machines, per experiment
# ----------------------------------------------------------------------


@dataclass
class BatchStats:
    """How a task's sweep machines were executed (held on the active
    context; surfaced in the run-all manifest and summary)."""

    #: Machines whose runs came from the batched engine.
    batched_machines: int = 0
    #: Machines that ran (or will run) through the scalar path while
    #: batching was enabled — structural fallbacks and recording lanes.
    scalar_fallbacks: int = 0
    #: Machines skipped because another lane had an identical
    #: fingerprint (degenerate sweep grids).
    deduplicated_machines: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "batched_machines": self.batched_machines,
            "scalar_fallbacks": self.scalar_fallbacks,
            "deduplicated_machines": self.deduplicated_machines,
        }


def _stats() -> BatchStats:
    """The active context's counters (a throwaway set outside one)."""
    from repro.core.context import current

    ctx = current()
    return BatchStats() if ctx is None else ctx.batch_stats


def note_batched(n: int = 1) -> None:
    _stats().batched_machines += n


def note_scalar_fallback(n: int = 1) -> None:
    """Record machines the batched path declined (ran scalar)."""
    _stats().scalar_fallbacks += n


def note_deduplicated(n: int = 1) -> None:
    _stats().deduplicated_machines += n


# ----------------------------------------------------------------------
# The batched resolver
# ----------------------------------------------------------------------


@dataclass
class StepSolution:
    """Converged contention state for one lockstep step, all lanes.

    Per-``[lane][class]`` views of what the scalar resolver would return
    per context; the driver fans values back out through
    ``struct.class_of``.
    """

    struct: _StepStructure
    #: Effective CPI / non-execution cycles per uop (python floats, so
    #: downstream wall-time arithmetic matches the scalar path exactly).
    cpi_eff: List[List[float]]
    stall_eff: List[List[float]]
    #: ``[L, K]`` converged bus state (frozen at each lane's own
    #: convergence iteration, like the scalar loop's break).
    mult: np.ndarray
    cov: np.ndarray
    util: np.ndarray
    demand: np.ndarray
    misp: np.ndarray
    coh: np.ndarray
    residual: np.ndarray
    rates: List[List[LevelRates]]
    breakdowns: List[List[CPIBreakdown]]


class BatchedFixedPointResolver:
    """One damped fixed point over a ``[n_machines, n_classes]`` batch.

    Wraps one scalar :class:`FixedPointResolver` per lane (for prework,
    its bus kernel and the final breakdown materialization) around a
    vectorized outer fixed point; every lane's numbers are bit-identical
    to what its scalar resolver would have produced alone.
    """

    def __init__(
        self,
        resolvers: Sequence[FixedPointResolver],
        packed: Optional[PackedMachines] = None,
    ):
        self.resolvers = list(resolvers)
        if not self.resolvers:
            raise ValueError("need at least one lane resolver")
        self.packed = (
            packed
            if packed is not None
            else pack_machines([r.params for r in self.resolvers])
        )
        if self.packed.n_lanes != len(self.resolvers):
            raise ValueError("packed lane count does not match resolvers")

    @classmethod
    def from_engines(
        cls, engines: Sequence[Engine]
    ) -> "BatchedFixedPointResolver":
        resolvers = []
        for e in engines:
            if not isinstance(e.resolver, FixedPointResolver):
                raise TypeError(
                    "batched execution requires FixedPointResolver lanes"
                )
            resolvers.append(e.resolver)
        return cls(resolvers, pack_machines([e.params for e in engines]))

    # ------------------------------------------------------------------
    def resolve_classes(
        self, actives: Sequence[Sequence[ActiveContext]]
    ) -> StepSolution:
        """Resolve one lockstep step for every lane at once.

        ``actives[l]`` must be structurally identical across lanes (same
        labels, placements and phase structure); only phase *values* and
        machine parameters may differ.
        """
        struct = self.resolvers[0].structure(actives[0])
        packed = self.packed
        L = len(actives)
        K = struct.n_classes
        reps = struct.reps
        rep_labels = [struct.labels[i] for i in reps]
        needed = set(struct.needed_labels)

        preworks = [
            self.resolvers[l].prework(actives[l], labels=needed)
            for l in range(L)
        ]

        def pack(get) -> np.ndarray:
            return np.array(
                [[get(preworks[l], lab) for lab in rep_labels]
                 for l in range(L)],
                dtype=np.float64,
            )

        cpi_est = pack(lambda pw, lab: pw.cpi_est[lab])
        exec_term = pack(lambda pw, lab: pw.fast[lab][0])
        l2mpi = pack(lambda pw, lab: pw.fast[lab][1])
        mlp = pack(lambda pw, lab: pw.fast[lab][2])
        coh = pack(lambda pw, lab: pw.coh_mpi[lab])
        misp = pack(lambda pw, lab: pw.misp[lab])
        s_l2hit = pack(lambda pw, lab: pw.breakdowns[lab].stall_l2_hit)
        s_tc = pack(lambda pw, lab: pw.breakdowns[lab].stall_trace_cache)
        s_itlb = pack(lambda pw, lab: pw.breakdowns[lab].stall_itlb)
        s_dtlb = pack(lambda pw, lab: pw.breakdowns[lab].stall_dtlb)
        s_br = pack(lambda pw, lab: pw.breakdowns[lab].stall_branch)
        s_mo = pack(lambda pw, lab: pw.breakdowns[lab].stall_moclear)
        s_coh = pack(lambda pw, lab: pw.breakdowns[lab].stall_coherence)
        mig = np.array(
            [pw.mig_misses_per_sec for pw in preworks], dtype=np.float64
        )

        clock = packed.clock_hz[:, None]
        line = packed.llc_line_bytes[:, None]
        mem_lat_cycles = packed.memory_latency_cycles[:, None]
        llc_lat = packed.llc_latency_cycles[:, None]
        buses = [r.bus for r in self.resolvers]

        # --- the outer damped fixed point, all lanes at once ----------
        # Lanes converge at different iterations; each lane's state is
        # committed through its mask and frozen thereafter, so its final
        # values come from exactly the iteration the scalar loop would
        # have broken out of.  The bus kernel writes only live lanes, so
        # its arrays hold every frozen lane's final state as they stand.
        cov = np.zeros((L, K))
        mult = np.ones((L, K))
        util = np.zeros((L, K))
        frozen_demand = np.zeros((L, K))
        residual = np.zeros(L)
        outer = np.ones(L, dtype=bool)

        bus_in = None
        for _ in range(_FIXED_POINT_ITERS):
            rate = clock / cpi_est
            miss_rate_eff = (l2mpi + coh) + mig[:, None] / rate
            demand = miss_rate_eff * rate * line
            if bus_in is None:
                # Per lane, like the scalar resolver: the snoop census
                # and coverage ceilings from the first demand.
                first = demand.tolist()
                bus_in = [
                    buses[l].prepare(
                        struct.chip_members,
                        struct.class_chip,
                        first[l],
                        [0.5 + 0.5 * actives[l][i].phase.load_fraction
                         for i in reps],
                        [actives[l][i].phase.prefetchability for i in reps],
                        [preworks[l].bw_scale[lab] for lab in rep_labels],
                    )
                    for l in range(L)
                ]
            resolve_lite_lanes(
                buses, bus_in, demand, outer, mult, cov, util
            )
            mem_lat = mem_lat_cycles * mult
            uncovered = l2mpi * (1.0 - cov)
            covered = l2mpi * cov
            stall_memory = (
                uncovered * mem_lat / mlp
                + covered * llc_lat * _COVERED_EXPOSURE
            )
            stall = s_l2hit + stall_memory
            stall = stall + s_tc
            stall = stall + s_itlb
            stall = stall + s_dtlb
            stall = stall + s_br
            stall = stall + s_mo
            stall = stall + s_coh
            cpi = exec_term + stall
            cpi_bw = cpi_est * util
            target = np.where(util > 1.0, np.maximum(cpi, cpi_bw), cpi)
            new_cpi = _DAMPING * cpi_est + (1 - _DAMPING) * target
            delta = np.max(np.abs(new_cpi - cpi_est) / cpi_est, axis=1)

            frozen_demand = np.where(outer[:, None], demand, frozen_demand)
            cpi_est = np.where(outer[:, None], new_cpi, cpi_est)
            residual = np.where(outer, delta, residual)
            outer = outer & (delta >= 1e-4)
            if not outer.any():
                break

        # --- materialize converged breakdowns per lane/class ----------
        rates_out: List[List[LevelRates]] = []
        breakdowns: List[List[CPIBreakdown]] = []
        cpi_eff: List[List[float]] = []
        stall_eff: List[List[float]] = []
        for l in range(L):
            res = self.resolvers[l]
            pw = preworks[l]
            ht = res.config.ht
            row_r: List[LevelRates] = []
            row_b: List[CPIBreakdown] = []
            row_c: List[float] = []
            row_s: List[float] = []
            for k in range(K):
                lab = rep_labels[k]
                a = actives[l][reps[k]]
                bd = res.pipeline.breakdown(
                    a.phase,
                    pw.rates[lab],
                    pw.misp[lab],
                    bus_latency_multiplier=float(mult[l, k]),
                    prefetch_coverage=float(cov[l, k]),
                    ht_enabled=ht,
                    sibling_utilization=pw.sibling_util[lab],
                    self_utilization=pw.utils[lab],
                    core_sharers=pw.sharers_of[lab],
                    smt_capacity=pw.pair_capacity[lab],
                    coherence_stall_per_instr=pw.coh_stall[lab],
                    sibling_miss_ratio=pw.sibling_missiness[lab],
                )
                ce = max(float(cpi_est[l, k]), bd.cpi)
                row_r.append(pw.rates[lab])
                row_b.append(bd)
                row_c.append(ce)
                row_s.append(max(ce - bd.cpi_exec * bd.smt_slowdown, 0.0))
            rates_out.append(row_r)
            breakdowns.append(row_b)
            cpi_eff.append(row_c)
            stall_eff.append(row_s)
            res.last_residual = float(residual[l])

        return StepSolution(
            struct=struct,
            cpi_eff=cpi_eff,
            stall_eff=stall_eff,
            mult=mult,
            cov=cov,
            util=util,
            demand=frozen_demand,
            misp=misp,
            coh=coh,
            residual=residual,
            rates=rates_out,
            breakdowns=breakdowns,
        )

    # ------------------------------------------------------------------
    def resolve_lanes(
        self, actives: Sequence[Sequence[ActiveContext]]
    ) -> List[Dict[str, ResolvedContext]]:
        """Full per-lane ``resolve()`` dictionaries (the scalar resolver
        protocol, fanned out of one batched solve) — used by the
        equivalence tests; the engine driver consumes
        :meth:`resolve_classes` directly."""
        sol = self.resolve_classes(actives)
        struct = sol.struct
        out: List[Dict[str, ResolvedContext]] = []
        for l, active in enumerate(actives):
            outcomes = self.resolvers[l].bus.build_outcomes(
                struct.labels,
                struct.class_of,
                sol.demand[l].tolist(),
                (sol.mult[l].tolist(), sol.cov[l].tolist(),
                 sol.util[l].tolist()),
            )
            resolved: Dict[str, ResolvedContext] = {}
            for a, label, k in zip(active, struct.labels, struct.class_of):
                resolved[label] = ResolvedContext(
                    active=a,
                    rates=sol.rates[l][k],
                    mispredict_rate=float(sol.misp[l, k]),
                    cpi=sol.breakdowns[l][k],
                    bus=outcomes[label],
                    cpi_eff=sol.cpi_eff[l][k],
                    coherence_per_instr=float(sol.coh[l, k]),
                    class_index=k,
                )
            out.append(resolved)
        return out


# ----------------------------------------------------------------------
# The lockstep batched engine driver
# ----------------------------------------------------------------------


def _lockstep_ok(
    engines: Sequence[Engine], workloads: Sequence[Workload]
) -> bool:
    """Structural gate for the batched single-program driver; anything
    false here means per-machine scalar fallback."""
    if runtime_forces_scalar():
        return False
    e0 = engines[0]
    for e in engines:
        if e.observers:
            return False
        if type(e.resolver) is not FixedPointResolver:
            return False
        if e.config.name != e0.config.name:
            return False
        # Heterogeneous core mixes and NUMA tiers carry per-context
        # clocks/latency scales the packed lane layout does not model;
        # mixed hierarchy depths would need ragged event axes.
        if not e.params.uniform:
            return False
        if len(e.params.extra_levels) != len(e0.params.extra_levels):
            return False
    w0 = workloads[0]
    for w in workloads:
        if len(w.phases) != len(w0.phases):
            return False
        for p, p0 in zip(w.phases, w0.phases):
            if p.parallel != p0.parallel or p.name != p0.name:
                return False
    return True


def run_batched_single(
    engines: Sequence[Engine], workloads: Sequence[Workload]
) -> Optional[List[RunResult]]:
    """Run ``workloads[l]`` on ``engines[l]`` for all lanes in lockstep.

    Returns one :class:`RunResult` per lane, byte-identical to
    ``engines[l].run_single(workloads[l])``, or ``None`` when the shape
    does not admit batching (the caller falls back to scalar runs).
    """
    if not engines or len(engines) != len(workloads):
        raise ValueError("need one workload per engine")
    if not _lockstep_ok(engines, workloads):
        return None

    L = len(engines)
    threads0 = engines[0].omp.resolve_threads(engines[0].config.n_threads)
    specs: List[ProgramSpec] = []
    placements = []
    for e, w in zip(engines, workloads):
        threads = e.omp.resolve_threads(e.config.n_threads)
        if threads != threads0 or threads > e.topology.n_contexts:
            return None  # mismatched teams / oversubscription
        spec = ProgramSpec(workload=w, n_threads=threads, program_id=0)
        placement = e.scheduler.place([spec], e.topology)
        placement.validate(e.topology)
        specs.append(spec)
        placements.append(placement)
    team0 = tuple(
        t.context.label for t in placements[0].program_threads(0)
    )
    for pl in placements[1:]:
        if tuple(t.context.label for t in pl.program_threads(0)) != team0:
            return None  # heterogeneous placements

    bres = BatchedFixedPointResolver.from_engines(engines)
    # The event axis: the legacy 19 slots, plus one (access, miss) pair
    # per declared extra hierarchy level (depth is lane-uniform, gated
    # by _lockstep_ok; two-level machines keep exactly STEP_EVENTS).
    depth = len(engines[0].params.extra_levels)
    event_list: List = list(STEP_EVENTS)
    for d in range(depth):
        event_list.extend(EXTRA_LEVEL_EVENTS[d])
    E = len(event_list)
    clocks = [e.params.core.clock_hz for e in engines]
    schedules = [e.omp.schedule for e in engines]

    progress = [Progress(spec=s) for s in specs]
    timelines = [Timeline() for _ in range(L)]
    phase_logs: List[List[PhaseRecord]] = [[] for _ in range(L)]
    global_t = [0.0] * L
    #: label -> row in ``totals``, in first-appearance (= scalar
    #: collector insertion) order.
    label_slots: Dict[str, int] = {}
    totals = np.zeros((L, len(team0), E))

    for _ in range(len(workloads[0].phases)):
        actives = [
            engines[l].active_contexts([progress[l]], placements[l])
            for l in range(L)
        ]
        sol = bres.resolve_classes(actives)
        struct = sol.struct
        n_ctx = len(struct.labels)
        K = struct.n_classes

        # --- wall time / summaries: python floats, scalar op order ----
        fulls: List[float] = []
        dts: List[float] = []
        means: List[float] = []
        peaks: List[float] = []
        for l in range(L):
            prog = progress[l]
            phase = prog.phase
            n_work = actives[l][0].n_work
            instr_per_thread = phase.instructions / n_work
            cpis = [
                sol.cpi_eff[l][struct.class_of[i]] for i in range(n_ctx)
            ]
            times = [instr_per_thread * c / clocks[l] for c in cpis]
            slowest = max(times)
            imb = partition_imbalance(schedules[l], phase.imbalance, n_work)
            slowest *= 1.0 + imb
            span_cores = len(
                {a.placement.context.core_key for a in actives[l]}
            )
            span_chips = len({a.placement.context.chip for a in actives[l]})
            sync_cycles = 0.0
            if phase.parallel and n_work > 1:
                sync_cycles = (
                    phase.iterations
                    * phase.barriers
                    * barrier_cycles(n_work, span_cores, span_chips)
                    + fork_join_cycles(n_work, span_cores, span_chips)
                    * max(phase.iterations // 4, 1)
                )
            full = slowest + sync_cycles / clocks[l]
            if full <= 0.0:
                return None  # degenerate phase; scalar loop handles it
            fulls.append(full)
            # One step per phase: dt = full * frac_remaining with
            # frac_remaining == 1.0, so the step fraction is exactly 1.
            dts.append(full * prog.frac_remaining)
            means.append(sum(cpis) / len(cpis))
            peaks.append(
                max(
                    float(sol.util[l, struct.class_of[i]])
                    for i in range(n_ctx)
                )
            )

        # --- PMU counters, vectorized over lanes ----------------------
        instr = np.array(
            [
                progress[l].phase.instructions / actives[l][0].n_work
                for l in range(L)
            ]
        )[:, None]
        bpi = np.array(
            [progress[l].phase.branches_per_instr for l in range(L)]
        )[:, None]
        mo = np.array(
            [progress[l].phase.moclears_per_kinstr for l in range(L)]
        )[:, None]

        def rate_arr(name: str) -> np.ndarray:
            return np.array(
                [
                    [getattr(sol.rates[l][k], name) for k in range(K)]
                    for l in range(L)
                ]
            )

        cpi_eff_a = np.array(sol.cpi_eff)
        stall_a = np.array(sol.stall_eff)
        l2m = instr * rate_arr("l2_misses_per_instr")
        # Bus transactions carry the *last-level* miss stream; on
        # two-level machines llc_misses_per_instr reads the same field,
        # so llcm is the bit-identical twin of l2m there.
        llcm = instr * rate_arr("llc_misses_per_instr")
        ev = np.empty((L, K, E))
        ev[:, :, 0] = instr  # INSTR_RETIRED
        ev[:, :, 1] = instr * cpi_eff_a  # CYCLES
        ev[:, :, 2] = instr * stall_a  # STALL_CYCLES
        ev[:, :, 3] = instr * rate_arr("tc_accesses_per_instr")
        ev[:, :, 4] = instr * rate_arr("tc_misses_per_instr")
        ev[:, :, 5] = instr * rate_arr("l1_accesses_per_instr")
        ev[:, :, 6] = instr * rate_arr("l1_misses_per_instr")
        ev[:, :, 7] = instr * rate_arr("l2_accesses_per_instr")
        ev[:, :, 8] = l2m
        ev[:, :, 9] = instr * rate_arr("itlb_accesses_per_instr")
        ev[:, :, 10] = instr * rate_arr("itlb_misses_per_instr")
        ev[:, :, 11] = instr * rate_arr("dtlb_accesses_per_instr")
        ev[:, :, 12] = instr * rate_arr("dtlb_misses_per_instr")
        ev[:, :, 13] = instr * bpi  # BRANCH_RETIRED
        ev[:, :, 14] = instr * bpi * sol.misp  # BRANCH_MISPRED
        ev[:, :, 15] = llcm * (1.0 - sol.cov)  # BUS_TRANS_DEMAND
        ev[:, :, 16] = llcm * sol.cov * (1.0 + PREFETCH_WASTE)
        ev[:, :, 17] = instr * mo / 1000.0  # MACHINE_CLEAR
        ev[:, :, 18] = instr * sol.coh  # COHERENCE_TRANSFER
        for d in range(depth):
            ev[:, :, 19 + 2 * d] = instr * np.array(
                [
                    [
                        sol.rates[l][k].extra_levels[d].accesses_per_instr
                        for k in range(K)
                    ]
                    for l in range(L)
                ]
            )
            ev[:, :, 20 + 2 * d] = instr * np.array(
                [
                    [
                        sol.rates[l][k].extra_levels[d].misses_per_instr
                        for k in range(K)
                    ]
                    for l in range(L)
                ]
            )
        for i in range(n_ctx):
            slot = label_slots.setdefault(
                struct.labels[i], len(label_slots)
            )
            totals[:, slot, :] += ev[:, struct.class_of[i], :]

        # --- advance every lane across the shared phase boundary ------
        for l in range(L):
            prog = progress[l]
            timelines[l].add(
                TimelineSample(
                    program_id=0,
                    t_start=global_t[l],
                    t_end=global_t[l] + dts[l],
                    phase_name=prog.phase.name,
                    instructions=prog.phase.instructions * 1.0,
                    cpi=means[l],
                    bus_utilization=peaks[l],
                )
            )
            phase_logs[l].append(
                PhaseRecord(
                    program_id=0,
                    phase_name=prog.phase.name,
                    wall_seconds=fulls[l],
                    mean_cpi=means[l],
                    bus_utilization=peaks[l],
                )
            )
            prog.elapsed += dts[l]
            global_t[l] += dts[l]
            prog.advance_phase()

    # --- unpack per-lane results (scalar-identical construction) ------
    results: List[RunResult] = []
    for l in range(L):
        collector = Collector()
        for lab, slot in label_slots.items():
            collector._sets[(0, lab)] = CounterSet(
                {event_list[e]: float(totals[l, slot, e]) for e in range(E)}
            )
        merged: Dict = {}
        for e in range(E):
            acc = 0.0
            for _lab, slot in label_slots.items():
                acc = acc + float(totals[l, slot, e])
            merged[event_list[e]] = acc
        results.append(
            RunResult(
                config=engines[l].config,
                programs=[
                    ProgramResult(
                        spec=specs[l],
                        runtime_seconds=progress[l].elapsed,
                        counters=CounterSet(merged),
                    )
                ],
                collector=collector,
                phase_log=phase_logs[l],
                timeline=timelines[l],
            )
        )
    return results


# ----------------------------------------------------------------------
# BatchPlan: collect a sweep's machines, dedupe, prefetch
# ----------------------------------------------------------------------


@contextmanager
def record_run_keys() -> Iterator[List[Tuple[str, ...]]]:
    """Record every ``Study`` run key requested inside the block (in
    first-request order, deduplicated) — the sweep drivers evaluate one
    recording lane scalar, then prefetch the same keys for every other
    lane through the batched engine.  The recorder lives on a derived
    active context, so it sees only this thread's requests and ends
    with the block."""
    from repro.core.context import override

    keys: List[Tuple[str, ...]] = []
    seen: Set[Tuple[str, ...]] = set()

    def record(key: Tuple[str, ...]) -> None:
        if key not in seen:
            seen.add(key)
            keys.append(key)

    with override(run_key_recorder=record):
        yield keys


def prefetch_study_runs(studies: Sequence, keys: Sequence[Tuple[str, ...]]) -> None:
    """The ``BatchPlan``: run ``keys`` for every lane study through the
    batched engine and preload the results.

    Lanes with identical machine fingerprints are deduplicated (the
    representative's results are preloaded into every twin); keys
    already satisfied by the run cache are skipped; keys or shapes the
    batched driver declines are left to lazy scalar computation and
    counted as fallbacks.
    """
    from repro.core.runcache import get_cache

    if not studies or not keys:
        return
    if runtime_forces_scalar() or not batching_allowed(len(studies)):
        note_scalar_fallback(len(studies))
        return

    by_fp: Dict[str, List] = {}
    for st in studies:
        by_fp.setdefault(st.fingerprint, []).append(st)
    lanes = [group[0] for group in by_fp.values()]
    if len(studies) > len(lanes):
        note_deduplicated(len(studies) - len(lanes))

    cache = get_cache()
    batched_fps: Set[str] = set()
    fallback_fps: Set[str] = set()
    for key in keys:
        if key[0] != "single":
            # Multiprogram (pair) runs are scalar-only.
            fallback_fps.update(st.fingerprint for st in lanes)
            continue
        bench, config = key[1], key[2]
        todo = [
            st
            for st in lanes
            if cache.is_miss(cache.get(st.fingerprint, key))
            and key not in st._preloaded
        ]
        if not todo:
            continue
        lane_results = run_batched_single(
            [st.engine(config) for st in todo],
            [st.workload(bench) for st in todo],
        )
        if lane_results is None:
            fallback_fps.update(st.fingerprint for st in todo)
            continue
        for st, res in zip(todo, lane_results):
            st.preload(key, res)
            for twin in by_fp[st.fingerprint][1:]:
                twin.preload(key, res)
            batched_fps.add(st.fingerprint)
    note_batched(len(batched_fps))
    note_scalar_fallback(len(fallback_fps - batched_fps))
