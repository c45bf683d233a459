"""``lat_mem_rd``: dependent-load latency versus footprint.

Chases a stride-permuted pointer chain through the cache hierarchy.  Two
modes share the same chain construction:

* ``mode="exact"`` (default) — evaluates each level with the exact
  closed-form LRU miss rate for cyclic chains
  (:func:`repro.mem.cache.cyclic_chain_miss_rate`), using the *full*
  chain, so the 64 MiB points genuinely overflow the L2;
* ``mode="structural"`` — replays a bounded sample of the chain through
  the access-by-access :class:`~repro.mem.cache.SetAssocCache`
  simulators; used by the test suite to cross-validate the closed form
  at reduced sizes.

Latency plateaus fall out of genuine hit/miss behaviour and cross-check
the machine parameters against the paper's measured
1.43 ns / ~9.6 ns / ~137 ns ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.machine.params import MachineParams
from repro.machine.registry import default_params
from repro.mem.cache import SetAssocCache, cyclic_chain_miss_rate
from repro.trace.patterns import PointerChasePattern


@dataclass(frozen=True)
class LatencyPoint:
    """Average load-to-use latency at one footprint."""

    footprint_bytes: int
    latency_ns: float
    l1_miss_rate: float
    l2_miss_rate: float


def _chain_lines(fp: int, stride: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct byte addresses of the chain elements across a footprint."""
    n_slots = max(fp // stride, 1)
    return np.arange(n_slots, dtype=np.int64) * stride


def lat_mem_rd(
    footprints: Optional[Sequence[int]] = None,
    params: Optional[MachineParams] = None,
    stride: int = 128,
    mode: str = "exact",
    samples: int = 8000,
    seed: int = 12345,
) -> List[LatencyPoint]:
    """Measure average dependent-load latency across footprints.

    Args:
        footprints: byte sizes to probe (default: powers of two from 1 KiB
            to 64 MiB).
        params: machine parameters (default Paxville).
        stride: chain stride in bytes (LMbench's default defeats
            prefetching and spatial reuse).
        mode: ``"exact"`` (closed-form cyclic-LRU, full chain) or
            ``"structural"`` (replay a sample through the set-associative
            simulators).
        samples: chain steps replayed in structural mode.
        seed: RNG seed for the chain permutation (structural mode).

    Returns:
        One :class:`LatencyPoint` per footprint, ascending.
    """
    params = params if params is not None else default_params()
    if footprints is None:
        footprints = [1 << k for k in range(10, 27)]
    if mode not in ("exact", "structural"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    cycle_ns = params.core.cycle_ns

    out: List[LatencyPoint] = []
    for fp in sorted(footprints):
        if mode == "exact":
            lines = _chain_lines(int(fp), stride, rng)
            l1_rate = cyclic_chain_miss_rate(params.l1d, lines)
            l2_rate_global = cyclic_chain_miss_rate(params.l2, lines)
            # Inclusion: a chain line missing L1 but present in L2 pays
            # the L2 latency; missing both pays DRAM.
            l2_local = l2_rate_global / l1_rate if l1_rate > 0 else 0.0
        else:
            pattern = PointerChasePattern(
                footprint_bytes=float(fp), stride_bytes=stride
            )
            addrs = pattern.gen_addresses(samples, rng)
            l1 = SetAssocCache(params.l1d)
            l2 = SetAssocCache(params.l2)
            # Warm-up pass primes both levels, then the measured pass;
            # the L2 sees exactly the subsequence of L1 misses.
            for addr_pass in (addrs, addrs):
                l1.stats = type(l1.stats)()
                l2.stats = type(l2.stats)()
                miss1 = l1.run_misses(addr_pass)
                l2.run_misses(addr_pass[miss1])
            l1_rate = l1.stats.miss_rate()
            l2_local = l2.stats.miss_rate()

        lat = (
            (1.0 - l1_rate) * params.l1d.latency_cycles * cycle_ns
            + l1_rate * (1.0 - l2_local) * params.l2.latency_cycles * cycle_ns
            + l1_rate * l2_local * params.memory_latency_ns
        )
        out.append(
            LatencyPoint(
                footprint_bytes=int(fp),
                latency_ns=lat,
                l1_miss_rate=l1_rate,
                l2_miss_rate=l2_local,
            )
        )
    return out


def latency_plateaus(points: Sequence[LatencyPoint]) -> dict:
    """Extract the L1 / L2 / memory plateaus from a latency sweep.

    Uses representative footprints: well inside L1 (<= 8 KiB), between L1
    and L2 (64-512 KiB), and far beyond L2 (>= 16 MiB).
    """
    def pick(lo: int, hi: int) -> float:
        vals = [p.latency_ns for p in points if lo <= p.footprint_bytes <= hi]
        if not vals:
            raise ValueError(f"no probe points between {lo} and {hi} bytes")
        return sum(vals) / len(vals)

    return {
        "l1_ns": pick(1 << 10, 1 << 13),
        "l2_ns": pick(1 << 16, 1 << 19),
        "memory_ns": pick(1 << 24, 1 << 26),
    }
