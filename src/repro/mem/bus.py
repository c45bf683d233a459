"""Front-side bus and hardware-prefetcher contention model.

Each chip drives one FSB port; both ports converge on the shared memory
controller.  Demand traffic is the L2 miss stream of every core; the
stride prefetcher opportunistically converts regular demand misses into
prefetch hits *only when bus headroom exists* — the mechanism behind the
paper's observation that only lightly-loaded configurations (group 2)
spend ~50 % of their bus accesses prefetching.

Queueing is modeled with an M/G/1-flavoured latency multiplier
``1 + c * rho^2 / (1 - rho)`` on the DRAM access latency, evaluated at the
binding bottleneck (chip port or memory controller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.params import BusParams


@dataclass
class BusLoad:
    """Demand traffic offered by one hardware context.

    Attributes:
        key: opaque identifier (context label) used to match outcomes.
        chip: physical chip carrying this context.
        demand_bytes_per_sec: last-level-cache miss traffic at the
            current execution rate estimate.
        read_fraction: fraction of traffic that is reads (line fills).
        prefetchability: stride-regularity of the miss stream (0..1).
        numa_bandwidth_scale: achievable fraction of the port bandwidth
            for this context's memory tier (1.0 local/UMA; < 1 when the
            accesses cross to a remote socket, inflating the effective
            occupancy of every byte).
    """

    key: str
    chip: int
    demand_bytes_per_sec: float
    read_fraction: float = 0.8
    prefetchability: float = 0.5
    numa_bandwidth_scale: float = 1.0


@dataclass
class BusOutcome:
    """Resolved bus behaviour for one context's load."""

    key: str
    #: Multiplier on DRAM latency from queueing (>= 1).
    latency_multiplier: float
    #: Fraction of demand misses converted to prefetch hits.
    prefetch_coverage: float
    #: Demand bus transactions per second.
    demand_tps: float
    #: Prefetch bus transactions per second.
    prefetch_tps: float
    #: Utilization of the binding bottleneck seen by this context.
    utilization: float

    @property
    def prefetch_access_fraction(self) -> float:
        """Fraction of this context's bus accesses that are prefetches."""
        total = self.demand_tps + self.prefetch_tps
        return self.prefetch_tps / total if total else 0.0


#: Extra speculative transactions issued per useful prefetch.
PREFETCH_WASTE = 0.18
#: Queueing-multiplier curvature and cap.  The multiplier only models the
#: *latency* inflation at moderate load; outright saturation is handled
#: separately by the engine's bandwidth-sharing term (utilization > 1
#: scales execution time directly), so the cap stays mild — a stiff
#: M/M/1 curve here would make the CPI/bus fixed point oscillate.
_QUEUE_COEFF = 0.45
_QUEUE_CAP = 2.5


#: ``(latency_multiplier, prefetch_coverage, utilization)`` per class.
LiteResult = Tuple[List[float], List[float], List[float]]


@dataclass(frozen=True)
class BusClasses:
    """Iteration-invariant inputs of :meth:`BusModel.resolve_lite` for
    one step (built by :meth:`BusModel.prepare`).

    Contexts are collapsed into contention-equivalence *classes*: every
    member of a class offers identical traffic.  Chips keep their
    per-context member order, so the chip-port sums fold in exactly the
    sequence a one-class-per-context solve would.
    """

    #: Per chip, in sorted-chip order: the class index of each context
    #: on that chip, in context order.
    chip_members: Tuple[Tuple[int, ...], ...]
    #: Chip index each class reads its port utilization from (members of
    #: one class may span chips, but only chips with identical member
    #: sequences, which carry equal utilizations).
    class_chip: Tuple[int, ...]
    read_frac: Tuple[float, ...]
    #: Prefetcher coverage ceiling per class
    #: (``prefetch_max_coverage * prefetchability``).
    max_cov: Tuple[float, ...]
    #: NUMA achievable-bandwidth fraction per class (1.0 on UMA).
    bw_scale: Tuple[float, ...]
    snoop_chip: Tuple[float, ...]
    snoop_sys: float


class BusModel:
    """Resolves FSB/memory-controller contention for a set of loads."""

    def __init__(self, params: BusParams, n_chips_total: int = 2):
        self.params = params
        self.n_chips_total = n_chips_total

    def resolve(
        self,
        loads: Sequence[BusLoad],
        initial_coverage: Optional[Dict[str, float]] = None,
    ) -> Dict[str, BusOutcome]:
        """Compute per-context bus outcomes for simultaneous loads.

        The prefetcher and the queueing delay interact: prefetch traffic
        raises utilization, and coverage shrinks as headroom vanishes.  A
        short damped fixed-point iteration resolves both.  Each load is
        its own class of the :meth:`resolve_lite` kernel.
        """
        if not loads:
            return {}
        chips = sorted({l.chip for l in loads})
        demand = [l.demand_bytes_per_sec for l in loads]
        classes = self.prepare(
            tuple(
                tuple(i for i, l in enumerate(loads) if l.chip == c)
                for c in chips
            ),
            tuple(chips.index(l.chip) for l in loads),
            demand,
            [l.read_fraction for l in loads],
            [l.prefetchability for l in loads],
            [l.numa_bandwidth_scale for l in loads],
        )
        warm = initial_coverage or {}
        cov = [warm.get(l.key, 0.0) for l in loads]
        return self.build_outcomes(
            [l.key for l in loads],
            range(len(loads)),
            demand,
            self.resolve_lite(classes, demand, cov),
        )

    def prepare(
        self,
        chip_members: Tuple[Tuple[int, ...], ...],
        class_chip: Tuple[int, ...],
        demand: Sequence[float],
        read_frac: Sequence[float],
        prefetchability: Sequence[float],
        bw_scale: Sequence[float],
    ) -> BusClasses:
        """The iteration-invariant half of :meth:`resolve_lite`.

        Snoop traffic from every agent with misses in flight consumes
        address-bus capacity; cross-chip snoops are reflected through the
        memory controller and cost more.  The census reads only demand
        *signs*, which cannot change across the engine's outer fixed
        point (demand is a sum of non-negative terms times a positive
        rate), so one census from the first iteration's ``demand`` serves
        every later call.
        """
        p = self.params
        agents = [
            sum(1 for k in members if demand[k] > 0)
            for members in chip_members
        ]
        snoop_chip = []
        for c, on in enumerate(agents):
            local = max(on - 1, 0)
            remote = sum(v for ch, v in enumerate(agents) if ch != c)
            snoop_chip.append(
                1.0
                + p.snoop_overhead_per_agent * local
                + p.snoop_overhead_cross_chip * remote
            )
        snoop_sys = 0.0
        for s in snoop_chip:
            snoop_sys += s
        return BusClasses(
            chip_members=chip_members,
            class_chip=class_chip,
            read_frac=tuple(read_frac),
            max_cov=tuple(
                p.prefetch_max_coverage * pf for pf in prefetchability
            ),
            bw_scale=tuple(bw_scale),
            snoop_chip=tuple(snoop_chip),
            snoop_sys=snoop_sys / len(snoop_chip) if snoop_chip else 1.0,
        )

    def build_outcomes(
        self,
        keys: Sequence[str],
        class_of: Sequence[int],
        demand: Sequence[float],
        lite: LiteResult,
    ) -> Dict[str, BusOutcome]:
        """Materialize one :class:`BusOutcome` per key from a
        :meth:`resolve_lite` result; ``class_of[i]`` is the class of
        ``keys[i]`` and ``demand`` the per-class demand of that call."""
        mult, cov, util = lite
        tx = self.params.transaction_bytes
        waste_factor = 1.0 + PREFETCH_WASTE
        per_class = []
        for k, d in enumerate(demand):
            miss_tps = d / tx
            c = cov[k]
            per_class.append((
                mult[k],
                c,
                miss_tps * (1.0 - c),
                c * miss_tps * waste_factor,
                util[k],
            ))
        return {
            key: BusOutcome(key, *per_class[k])
            for key, k in zip(keys, class_of)
        }

    def resolve_lite(
        self,
        classes: BusClasses,
        demand: Sequence[float],
        cov: Sequence[float],
    ) -> LiteResult:
        """Converged ``(latency_multiplier, prefetch_coverage,
        utilization)`` lists, one entry per contention-equivalence class.

        This is the innermost loop of the engine's CPI/bus fixed point —
        called every outer iteration, with full outcomes materialized
        (:meth:`build_outcomes`) only after convergence — so the
        iteration state lives in flat lists of Python floats.  Chip-port
        sums fold member by member in context order (``k`` additions,
        never ``k * x``), so a class collapse is bit-identical to running
        every context as its own class.

        Args:
            classes: the step's :meth:`prepare` result.
            demand: offered bytes/s per class at the current execution
                rate estimate.
            cov: warm-start coverage per class (the engine passes the
                previous outer iteration's converged values, which
                collapses the inner loop to a couple of steps).  Not
                mutated.
        """
        p = self.params
        chip_read_bw, chip_write_bw = p.chip_read_bw, p.chip_write_bw
        sys_read_bw, sys_write_bw = p.system_read_bw, p.system_write_bw
        headroom_cap = p.prefetch_headroom
        waste_factor = 1.0 + PREFETCH_WASTE
        chip_members = classes.chip_members
        class_chip = classes.class_chip
        snoop_chip = classes.snoop_chip
        snoop_sys = classes.snoop_sys
        rfrac = classes.read_frac
        max_cov = classes.max_cov
        n_chips = len(chip_members)
        # Remote-tier traffic occupies the port for longer per byte:
        # scale demand by the inverse achievable bandwidth fraction
        # (``x / 1.0`` is exact, so UMA loads are untouched).
        demand = [d / s for d, s in zip(demand, classes.bw_scale)]
        cov = list(cov)
        n = len(demand)
        utils_c = [0.0] * n_chips

        for _ in range(24):
            # Covered misses move from demand to prefetch transactions
            # (same line transfer) plus wasted speculative fetches.
            offered = [
                d * ((1.0 - c) + c * waste_factor)
                for d, c in zip(demand, cov)
            ]
            total_offered = 0.0
            read_total = 0.0
            for ci in range(n_chips):
                co = 0.0
                cr = 0.0
                for k in chip_members[ci]:
                    o = offered[k]
                    co += o
                    cr += o * rfrac[k]
                total_offered += co
                read_total += cr
                rf = cr / co if co else 0.8
                wf = 1.0 - rf
                denom = rf / chip_read_bw + wf / chip_write_bw
                cap = 1.0 / denom if denom > 0 else chip_read_bw
                utils_c[ci] = co * snoop_chip[ci] / cap

            sys_read_frac = (
                read_total / total_offered if total_offered else 0.8
            )
            wf = 1.0 - sys_read_frac
            denom = sys_read_frac / sys_read_bw + wf / sys_write_bw
            sys_cap = 1.0 / denom if denom > 0 else sys_read_bw
            sys_util = total_offered * snoop_sys / sys_cap
            for ci in range(n_chips):
                if utils_c[ci] < sys_util:
                    utils_c[ci] = sys_util

            delta = 0.0
            for k in range(n):
                u = utils_c[class_chip[k]]
                headroom = headroom_cap - u
                if headroom < 0.0:
                    headroom = 0.0
                head_factor = headroom / headroom_cap * 2.2
                if head_factor > 1.0:
                    head_factor = 1.0
                target = max_cov[k] * head_factor
                # Damping keeps the loop from oscillating at the knee.
                old = cov[k]
                new_cov = 0.5 * old + 0.5 * target
                d = new_cov - old
                if d < 0.0:
                    d = -d
                if d > delta:
                    delta = d
                cov[k] = new_cov
            if delta < 1e-6:
                break

        mult = []
        util = []
        for k in range(n):
            u_k = utils_c[class_chip[k]]
            u = u_k if u_k < 0.98 else 0.98
            m = 1.0 + _QUEUE_COEFF * u * u / (1.0 - u)
            mult.append(m if m < _QUEUE_CAP else _QUEUE_CAP)
            util.append(u_k)
        return mult, cov, util

    def streaming_bandwidth(
        self, n_chips_active: int, kind: str = "read"
    ) -> float:
        """Aggregate achievable streaming bandwidth (LMbench ``bw_mem``).

        Args:
            n_chips_active: chips with active streaming threads.
            kind: ``"read"`` or ``"write"``.
        """
        p = self.params
        if kind == "read":
            chip, system = p.chip_read_bw, p.system_read_bw
        elif kind == "write":
            chip, system = p.chip_write_bw, p.system_write_bw
        else:
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        return min(chip * n_chips_active, system)


# ----------------------------------------------------------------------
# The same kernel over a batch of machine lanes
# ----------------------------------------------------------------------


def resolve_lite_lanes(
    buses: Sequence[BusModel],
    classes: Sequence[BusClasses],
    demand: np.ndarray,
    live: np.ndarray,
    mult: np.ndarray,
    cov: np.ndarray,
    util: np.ndarray,
) -> None:
    """:meth:`BusModel.resolve_lite` for every live lane of a batch.

    ``demand``, ``mult``, ``cov`` and ``util`` are ``[L, K]`` arrays
    (lane, class); ``cov`` holds each lane's warm start on entry.  Live
    lanes (``live[l]``) get their converged values written in place;
    frozen lanes are left alone, so their rows keep the values of the
    iteration they converged at.  At the sweep's shape (a few dozen
    lanes, one or two classes) a Python loop per lane beats NumPy's
    per-operation overhead.
    """
    dem = demand.tolist()
    warm = cov.tolist()
    for l in np.flatnonzero(live).tolist():
        mult[l], cov[l], util[l] = buses[l].resolve_lite(
            classes[l], dem[l], warm[l]
        )
