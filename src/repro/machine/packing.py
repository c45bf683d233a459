"""Stacked machine parameters: the machine axis as contiguous arrays.

The batched resolver (:mod:`repro.sim.batch`) runs one damped fixed
point over a ``[n_machines, n_classes]`` batch instead of resolving each
machine's contention serially.  Its outer CPI damping needs every
machine-level scalar it reads — clock, last-level-cache geometry and
DRAM latency — as ``float64`` arrays indexed by *lane* (the machine
axis); the bus kernel runs per lane on each lane's own
:class:`~repro.mem.bus.BusModel`.  :func:`pack_machines`
builds that layout once per batch; each array holds one field across all
lanes, in lane order, so a kernel touches ``n_machines`` contiguous
values instead of chasing ``n_machines`` parameter objects.

Packing is lossless and trivially reversible (``lane i`` column-reads
reproduce ``params[i]`` exactly); every value is copied bit-for-bit from
the source :class:`~repro.machine.params.MachineParams`, which keeps the
batched arithmetic byte-identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.machine.params import MachineParams

__all__ = ["PackedMachines", "pack_machines"]


@dataclass(frozen=True)
class PackedMachines:
    """Per-lane machine scalars as ``[n_lanes]`` float64 arrays.

    Field names mirror their scalar sources: ``clock_hz`` and the memory
    path come from :class:`~repro.machine.params.CoreParams` /
    :class:`~repro.machine.params.CacheParams`.
    """

    n_lanes: int
    clock_hz: np.ndarray
    #: Last-level cache geometry — the L2 itself on two-level machines
    #: (same source floats, so legacy lanes pack bit-identically).
    llc_line_bytes: np.ndarray
    llc_latency_cycles: np.ndarray
    memory_latency_cycles: np.ndarray


def pack_machines(params: Sequence[MachineParams]) -> PackedMachines:
    """Stack per-machine scalars into the batched-kernel layout."""
    if not params:
        raise ValueError("cannot pack an empty machine batch")

    def col(get) -> np.ndarray:
        return np.array([get(p) for p in params], dtype=np.float64)

    return PackedMachines(
        n_lanes=len(params),
        clock_hz=col(lambda p: p.core.clock_hz),
        llc_line_bytes=col(lambda p: p.llc.line_bytes),
        llc_latency_cycles=col(lambda p: p.llc.latency_cycles),
        memory_latency_cycles=col(lambda p: p.memory_latency_cycles),
    )
