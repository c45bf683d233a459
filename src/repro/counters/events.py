"""PMU event taxonomy.

Names parallel the NetBurst events the paper samples with VTune 7.2:
trace-cache deliver/build misses, L1/L2 references and misses, ITLB/DTLB
misses, cycle/instruction counts, stall cycles, branch retirement and
mispredicts, and front-side-bus transaction counts split into demand and
prefetch.
"""

from __future__ import annotations

import enum


class Event(enum.Enum):
    """Countable hardware events."""

    CYCLES = "cycles"
    INSTR_RETIRED = "instr_retired"
    STALL_CYCLES = "stall_cycles"

    TC_DELIVER = "tc_deliver"          # trace cache deliver-mode lookups
    TC_MISS = "tc_miss"                # trace cache build-mode entries

    L1D_ACCESS = "l1d_access"
    L1D_MISS = "l1d_miss"
    L2_ACCESS = "l2_access"
    L2_MISS = "l2_miss"

    ITLB_ACCESS = "itlb_access"
    ITLB_MISS = "itlb_miss"
    DTLB_ACCESS = "dtlb_access"
    DTLB_MISS = "dtlb_miss"

    BRANCH_RETIRED = "branch_retired"
    BRANCH_MISPRED = "branch_mispred"

    BUS_TRANS_DEMAND = "bus_trans_demand"
    BUS_TRANS_PREFETCH = "bus_trans_prefetch"

    MACHINE_CLEAR = "machine_clear"
    COHERENCE_TRANSFER = "coherence_transfer"

    # Hierarchy levels beyond the L2 (only emitted on machines that
    # declare them; Paxville artifacts never contain these).
    L3_ACCESS = "l3_access"
    L3_MISS = "l3_miss"
    L4_ACCESS = "l4_access"
    L4_MISS = "l4_miss"

    # Members are singletons (pickling restores them by name), so the
    # default identity hash is consistent with ``==`` and, unlike
    # ``Enum.__hash__``, costs no Python-level call on every counter
    # dict operation.
    __hash__ = object.__hash__

    @property
    def is_ratio_numerator(self) -> bool:
        """True for events that form the numerator of a paper metric."""
        return self in {
            Event.TC_MISS,
            Event.L1D_MISS,
            Event.L2_MISS,
            Event.L3_MISS,
            Event.L4_MISS,
            Event.ITLB_MISS,
            Event.DTLB_MISS,
            Event.BRANCH_MISPRED,
            Event.STALL_CYCLES,
            Event.BUS_TRANS_PREFETCH,
        }


#: (numerator, denominator) pairs defining the paper's rate metrics.
RATE_DEFINITIONS = {
    "tc_miss_rate": (Event.TC_MISS, Event.TC_DELIVER),
    "l1_miss_rate": (Event.L1D_MISS, Event.L1D_ACCESS),
    "l2_miss_rate": (Event.L2_MISS, Event.L2_ACCESS),
    "itlb_miss_rate": (Event.ITLB_MISS, Event.ITLB_ACCESS),
    "dtlb_miss_rate": (Event.DTLB_MISS, Event.DTLB_ACCESS),
    "branch_mispredict_rate": (Event.BRANCH_MISPRED, Event.BRANCH_RETIRED),
    "stall_fraction": (Event.STALL_CYCLES, Event.CYCLES),
}
