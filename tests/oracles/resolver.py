"""Per-context reference oracle for the contention resolver.

Production :meth:`FixedPointResolver.resolve` solves each step once per
contention-equivalence class and fans the result out to the class's
members, with a class-indexed bus kernel.  The oracle here is the
resolver before that collapse: prework for every context, the damped
bus/CPI fixed point over every context, a per-load bus kernel, and one
final ``CPIBreakdown`` per context.  The class-collapse tests demand
that both agree field for field at every step, on every machine.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.pipeline import _COVERED_EXPOSURE
from repro.mem.bus import (
    _QUEUE_CAP,
    _QUEUE_COEFF,
    PREFETCH_WASTE,
    BusLoad,
    BusModel,
    BusOutcome,
)
from repro.sim.resolver import (
    _DAMPING,
    _FIXED_POINT_ITERS,
    ActiveContext,
    FixedPointResolver,
    ResolvedContext,
)
from repro.testing import faults


def bus_lite_per_load(
    bus: BusModel,
    loads: Sequence[BusLoad],
    initial_coverage: Optional[Dict[str, float]] = None,
) -> Dict[str, Tuple[float, float, float]]:
    """The bus kernel with one agent per load and the snoop census taken
    on every call: converged ``(latency_multiplier, prefetch_coverage,
    utilization)`` per load key."""
    if not loads:
        return {}
    p = bus.params
    chips = sorted({l.chip for l in loads})
    chip_index = {c: i for i, c in enumerate(chips)}
    n_chips = len(chips)
    agents_on: Dict[int, int] = {}
    for l in loads:
        if l.demand_bytes_per_sec > 0:
            agents_on[l.chip] = agents_on.get(l.chip, 0) + 1
    snoop_chip = []
    for c in chips:
        local = max(agents_on.get(c, 0) - 1, 0)
        remote = sum(v for ch, v in agents_on.items() if ch != c)
        snoop_chip.append(
            1.0
            + p.snoop_overhead_per_agent * local
            + p.snoop_overhead_cross_chip * remote
        )
    snoop_sys = 0.0
    for s in snoop_chip:
        snoop_sys += s
    snoop_sys /= len(snoop_chip)

    waste_factor = 1.0 + PREFETCH_WASTE
    n = len(loads)
    demand = [
        l.demand_bytes_per_sec / l.numa_bandwidth_scale for l in loads
    ]
    rfrac = [l.read_fraction for l in loads]
    lchip = [chip_index[l.chip] for l in loads]
    max_cov = [p.prefetch_max_coverage * l.prefetchability for l in loads]
    if initial_coverage is not None:
        cov_arr = [initial_coverage.get(l.key, 0.0) for l in loads]
    else:
        cov_arr = [0.0] * n
    utils_c = [0.0] * n_chips

    for _ in range(24):
        chip_offered = [0.0] * n_chips
        chip_read = [0.0] * n_chips
        for i in range(n):
            cov = cov_arr[i]
            offered = demand[i] * ((1.0 - cov) + cov * waste_factor)
            ci = lchip[i]
            chip_offered[ci] += offered
            chip_read[ci] += offered * rfrac[i]
        total_offered = 0.0
        read_total = 0.0
        for ci in range(n_chips):
            total_offered += chip_offered[ci]
            read_total += chip_read[ci]
        sys_read_frac = read_total / total_offered if total_offered else 0.8
        wf = 1.0 - sys_read_frac
        denom = sys_read_frac / p.system_read_bw + wf / p.system_write_bw
        sys_cap = 1.0 / denom if denom > 0 else p.system_read_bw
        sys_util = total_offered * snoop_sys / sys_cap
        for ci in range(n_chips):
            co = chip_offered[ci]
            rf = chip_read[ci] / co if co else 0.8
            wf = 1.0 - rf
            denom = rf / p.chip_read_bw + wf / p.chip_write_bw
            cap = 1.0 / denom if denom > 0 else p.chip_read_bw
            chip_util = co * snoop_chip[ci] / cap
            utils_c[ci] = chip_util if chip_util >= sys_util else sys_util

        delta = 0.0
        for i in range(n):
            u = utils_c[lchip[i]]
            headroom = max(p.prefetch_headroom - u, 0.0)
            head_factor = min(headroom / p.prefetch_headroom * 2.2, 1.0)
            new_cov = 0.5 * cov_arr[i] + 0.5 * (max_cov[i] * head_factor)
            delta = max(delta, abs(new_cov - cov_arr[i]))
            cov_arr[i] = new_cov
        if delta < 1e-6:
            break

    out: Dict[str, Tuple[float, float, float]] = {}
    for i, l in enumerate(loads):
        util = utils_c[lchip[i]]
        u = min(util, 0.98)
        mult = min(1.0 + _QUEUE_COEFF * u * u / (1.0 - u), _QUEUE_CAP)
        out[l.key] = (mult, cov_arr[i], util)
    return out


def bus_outcomes_per_load(
    bus: BusModel,
    loads: Sequence[BusLoad],
    lite: Dict[str, Tuple[float, float, float]],
) -> Dict[str, BusOutcome]:
    """One :class:`BusOutcome` per load from a per-load lite result."""
    tx = bus.params.transaction_bytes
    outcomes: Dict[str, BusOutcome] = {}
    for l in loads:
        mult, cov, util = lite[l.key]
        miss_tps = l.demand_bytes_per_sec / tx
        outcomes[l.key] = BusOutcome(
            key=l.key,
            latency_multiplier=mult,
            prefetch_coverage=cov,
            demand_tps=miss_tps * (1.0 - cov),
            prefetch_tps=cov * miss_tps * (1.0 + PREFETCH_WASTE),
            utilization=util,
        )
    return outcomes


class PerContextResolver(FixedPointResolver):
    """``FixedPointResolver`` solving every active context on its own."""

    def resolve(
        self, active: Sequence[ActiveContext]
    ) -> Dict[str, ResolvedContext]:
        pw = self.prework(active)
        rates = pw.rates
        cpi_est = pw.cpi_est
        breakdowns = pw.breakdowns
        line = self.params.llc.line_bytes
        mem_lat_cycles = self.params.memory_latency_cycles
        llc_lat = self.params.llc.latency_cycles
        clock_of = {
            a.placement.context.label: self.params.clock_hz_of(
                a.placement.context.chip
            )
            for a in active
        }

        lite: Dict[str, Tuple[float, float, float]] = {}
        loads: List[BusLoad] = []
        max_delta = 0.0
        for _ in range(_FIXED_POINT_ITERS):
            loads = []
            for a in active:
                label = a.placement.context.label
                rate = clock_of[label] / cpi_est[label]
                miss_rate_eff = (
                    rates[label].llc_misses_per_instr
                    + pw.coh_mpi[label]
                    + pw.mig_misses_per_sec / rate
                )
                loads.append(BusLoad(
                    key=label,
                    chip=a.placement.context.chip,
                    demand_bytes_per_sec=miss_rate_eff * rate * line,
                    read_fraction=0.5 + 0.5 * a.phase.load_fraction,
                    prefetchability=a.phase.prefetchability,
                    numa_bandwidth_scale=pw.bw_scale[label],
                ))
            lite = bus_lite_per_load(
                self.bus,
                loads,
                {k: t[1] for k, t in lite.items()} if lite else None,
            )
            max_delta = 0.0
            for a in active:
                label = a.placement.context.label
                mult, cov, util = lite[label]
                exec_term, l2mpi, mlp = pw.fast[label]
                base = breakdowns[label]
                mem_lat = mem_lat_cycles * pw.mem_scale[label] * mult
                stall_memory = (
                    l2mpi * (1.0 - cov) * mem_lat / mlp
                    + l2mpi * cov * llc_lat * _COVERED_EXPOSURE
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
                cpi_bw = cpi_est[label] * util
                target = max(cpi, cpi_bw) if util > 1.0 else cpi
                new_cpi = _DAMPING * cpi_est[label] + (1 - _DAMPING) * target
                max_delta = max(
                    max_delta, abs(new_cpi - cpi_est[label]) / cpi_est[label]
                )
                cpi_est[label] = new_cpi
            if max_delta < 1e-4:
                break
        self.last_residual = max_delta

        outcomes = bus_outcomes_per_load(self.bus, loads, lite)
        resolved: Dict[str, ResolvedContext] = {}
        for a in active:
            label = a.placement.context.label
            out = outcomes[label]
            bd = self._pipeline_for(a.placement.context.chip).breakdown(
                a.phase,
                rates[label],
                pw.misp[label],
                bus_latency_multiplier=out.latency_multiplier,
                prefetch_coverage=out.prefetch_coverage,
                ht_enabled=self.config.ht,
                sibling_utilization=pw.sibling_util[label],
                self_utilization=pw.utils[label],
                core_sharers=pw.sharers_of[label],
                smt_capacity=pw.pair_capacity[label],
                coherence_stall_per_instr=pw.coh_stall[label],
                sibling_miss_ratio=pw.sibling_missiness[label],
                memory_latency_scale=pw.mem_scale[label],
            )
            resolved[label] = ResolvedContext(
                active=a,
                rates=rates[label],
                mispredict_rate=pw.misp[label],
                cpi=bd,
                bus=out,
                cpi_eff=max(cpi_est[label], bd.cpi),
                coherence_per_instr=pw.coh_mpi[label],
            )
        faults.maybe_skew_resolver(resolved)
        return resolved
