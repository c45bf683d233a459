"""Memory access patterns: analytic miss models + address-stream generators.

Sharing model
-------------

The only cache sharing on the modeled platform is between the two
Hyper-Threading contexts of a core (trace cache, L1-D and the private L2
all belong to one core).  For a pattern whose data is a fraction ``s``
shared between ``k`` co-located threads of the *same* program:

* **capacity dilution** — private data of the siblings competes for lines,
  so the capacity available to one thread is
  ``C_eff = C * (s + (1 - s) / k)``;
* **miss amortization** — a miss on shared data fills the line for every
  sibling, so observed per-thread miss rates shrink:
  ``m_eff = m(C_eff) * (s / k + (1 - s))``.

Threads of *different* programs share nothing: ``s = 0`` (pure dilution,
no amortization).  These two formulas are exposed as
:func:`effective_capacity` and :func:`sharing_discount` and reused for the
trace cache, L1-D, L2 and both TLBs (with capacity = TLB reach and line =
page size).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


def effective_capacity(capacity: float, sharers: int, shared_fraction: float) -> float:
    """Capacity seen by one of ``sharers`` co-located threads.

    Args:
        capacity: physical cache capacity (bytes, uops, or TLB reach).
        sharers: number of hardware contexts actively using the cache.
        shared_fraction: fraction of the threads' data that is common.
    """
    if sharers < 1:
        raise ValueError("sharers must be >= 1")
    s = min(max(shared_fraction, 0.0), 1.0)
    return capacity * (s + (1.0 - s) / sharers)


def sharing_discount(sharers: int, shared_fraction: float) -> float:
    """Multiplier on the per-thread miss rate from miss amortization."""
    if sharers < 1:
        raise ValueError("sharers must be >= 1")
    s = min(max(shared_fraction, 0.0), 1.0)
    return s / sharers + (1.0 - s)


def loop_thrash_miss_rate(
    footprint: float, capacity: float, width: float = 0.18
) -> float:
    """Smooth LRU thrash model for cyclic (looping) reuse.

    An LRU cache swept cyclically by a footprint ``F`` behaves almost
    discontinuously: ~0 misses when ``F <= C``, near-total thrash when
    ``F > C``.  Real codes have a distribution of loop sizes, so we smooth
    the cliff with a logistic in ``log(F / C)``.

    Returns the probability that a *line re-reference* misses.
    """
    if capacity <= 0:
        return 1.0
    if footprint <= 0:
        return 0.0
    x = math.log(footprint / capacity)
    return 1.0 / (1.0 + math.exp(-x / width))


@dataclass(frozen=True)
class AccessPattern:
    """Base class for memory access patterns.

    Attributes:
        footprint_bytes: bytes touched by the *whole program* for this
            pattern in one phase execution.
        partitioned: True when OpenMP work-sharing splits the footprint
            across threads (each of ``T`` threads touches ``F / T``);
            False for shared read-mostly structures every thread walks.
        shared_fraction: fraction of the per-thread data common between
            same-program threads co-located on one cache (constructive
            sharing).  Fully partitioned disjoint data has 0; a shared
            lookup table has ~1.
    """

    footprint_bytes: float
    partitioned: bool = True
    shared_fraction: float = 0.0

    def thread_footprint(self, n_threads: int) -> float:
        """Bytes touched by one of ``n_threads`` team members."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.partitioned:
            return self.footprint_bytes / n_threads
        return self.footprint_bytes

    # -- analytic view ----------------------------------------------------
    def miss_rate(self, capacity: float, line_bytes: float) -> float:
        """Per-access miss probability in an LRU cache of ``capacity``.

        Subclasses implement the single-thread model; sharing effects are
        applied by the caller via :func:`effective_capacity` /
        :func:`sharing_discount` on a per-thread footprint.
        """
        raise NotImplementedError

    # -- structural view --------------------------------------------------
    def gen_addresses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n`` byte addresses representative of the pattern."""
        raise NotImplementedError


@dataclass(frozen=True)
class StreamingPattern(AccessPattern):
    """Sequential sweeps over an array (unit or fixed stride).

    ``passes`` repeated sweeps: when the array fits, only the first pass
    misses; when it does not, LRU thrashes and every pass misses on each
    new line.
    """

    stride_bytes: int = 8
    passes: float = 4.0

    def miss_rate(self, capacity: float, line_bytes: float) -> float:
        spatial = min(1.0, self.stride_bytes / line_bytes)
        thrash = loop_thrash_miss_rate(self.footprint_bytes, capacity)
        cold = 1.0 / max(self.passes, 1.0)
        return spatial * max(thrash, cold)

    def gen_addresses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        footprint = max(int(self.footprint_bytes), self.stride_bytes)
        steps = np.arange(n, dtype=np.int64) * self.stride_bytes
        return steps % footprint


@dataclass(frozen=True)
class RandomPattern(AccessPattern):
    """Uniform random word accesses within a footprint (hash tables,
    sparse gathers).  Steady-state hit probability equals the resident
    fraction of the footprint."""

    def miss_rate(self, capacity: float, line_bytes: float) -> float:
        n_lines_fp = max(self.footprint_bytes / line_bytes, 1.0)
        resident = min(capacity / line_bytes, n_lines_fp)
        return max(0.0, 1.0 - resident / n_lines_fp)

    def gen_addresses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        footprint = max(int(self.footprint_bytes), 8)
        words = footprint // 8
        return rng.integers(0, words, size=n, dtype=np.int64) * 8


@dataclass(frozen=True)
class PointerChasePattern(AccessPattern):
    """Dependent loads chasing a permutation (linked list at fixed stride).

    Used by the LMbench ``lat_mem_rd`` model: each access depends on the
    previous one, so misses cannot overlap (no memory-level parallelism).
    """

    stride_bytes: int = 128

    def miss_rate(self, capacity: float, line_bytes: float) -> float:
        spatial = min(1.0, self.stride_bytes / line_bytes)
        return spatial * loop_thrash_miss_rate(
            self.footprint_bytes, capacity, width=0.08
        )

    def gen_addresses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        footprint = max(int(self.footprint_bytes), self.stride_bytes)
        n_slots = max(footprint // self.stride_bytes, 1)
        order = rng.permutation(n_slots)
        idx = order[np.arange(n, dtype=np.int64) % n_slots]
        return idx.astype(np.int64) * self.stride_bytes

    @property
    def dependent(self) -> bool:
        return True


@dataclass(frozen=True)
class StencilPattern(AccessPattern):
    """Structured-grid stencil sweeps (MG, SP, BT, LU flow solvers).

    A 3-D stencil re-references neighbouring planes: accesses hit when the
    ``reuse_window_bytes`` (a few grid planes) fits in cache, stream
    otherwise.  Modeled as a streaming sweep whose effective reuse
    footprint is the plane window rather than the whole grid.

    ``stride_bytes`` encodes the *unique-line traffic per reference*: a
    stencil touches each point many times within a sweep, so the
    effective stride is well below the 8-byte element size.

    ``window_scales`` distinguishes decompositions: pencil/tile
    decompositions (SP's ADI sweeps) shrink the per-thread reuse window
    with the team size; slab decompositions that sweep full planes (MG,
    LU) do not — every thread still traverses whole planes.
    """

    reuse_window_bytes: float = 0.0
    stride_bytes: int = 8
    #: Fraction of references satisfied by in-window (plane) reuse when the
    #: window is resident.
    window_hit_fraction: float = 0.66
    window_scales: bool = True
    #: Smoothing width of the window-fit transition (real codes have a
    #: distribution of working-set sizes, so the fit is gradual).
    thrash_width: float = 0.30

    def miss_rate(self, capacity: float, line_bytes: float) -> float:
        spatial = min(1.0, self.stride_bytes / line_bytes)
        window = self.reuse_window_bytes or self.footprint_bytes
        window_miss = loop_thrash_miss_rate(window, capacity, self.thrash_width)
        grid_miss = loop_thrash_miss_rate(self.footprint_bytes, capacity)
        # In-window references miss only if the window does not fit;
        # streaming (first-touch per sweep) references miss if the grid
        # does not fit.
        f = self.window_hit_fraction
        return spatial * (f * window_miss + (1.0 - f) * grid_miss)

    def gen_addresses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        footprint = max(int(self.footprint_bytes), self.stride_bytes)
        window = max(int(self.reuse_window_bytes or footprint), self.stride_bytes)
        base = (np.arange(n, dtype=np.int64) * self.stride_bytes) % footprint
        # A fraction of accesses re-touch an address one window behind.
        back = rng.random(n) < self.window_hit_fraction
        addrs = base.copy()
        addrs[back] = (base[back] - window) % footprint
        return addrs


@dataclass(frozen=True)
class AccessMix:
    """Weighted mixture of access patterns for one phase.

    ``components`` is a sequence of ``(weight, pattern)``; weights are the
    fraction of the phase's memory references issued to each pattern and
    must sum to 1 (within tolerance).
    """

    components: Tuple[Tuple[float, AccessPattern], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("AccessMix needs at least one component")
        total = sum(w for w, _ in self.components)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
            raise ValueError(f"component weights must sum to 1, got {total}")
        if any(w < 0 for w, _ in self.components):
            raise ValueError("component weights must be non-negative")
        # Mixes are hashed on every memoized miss-rate lookup; the deep
        # dataclass hash (every pattern field) is precomputed once here.
        object.__setattr__(self, "_hash", hash(self.components))
        object.__setattr__(
            self,
            "_dependent_fraction",
            sum(
                w
                for w, p in self.components
                if getattr(p, "dependent", False)
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(*pairs: Tuple[float, AccessPattern]) -> "AccessMix":
        return AccessMix(components=tuple(pairs))

    def miss_rate(
        self,
        capacity: float,
        line_bytes: float,
        n_threads: int = 1,
        sharers: int = 1,
        same_program: bool = True,
    ) -> float:
        """Per-access miss probability of the mixture for one thread.

        Pure in its arguments, so results are memoized (the analytic
        engine re-evaluates the same mixes thousands of times across
        studies and fixed-point iterations).

        Args:
            capacity: physical cache capacity in bytes.
            line_bytes: cache line size.
            n_threads: OpenMP team size (work-sharing divides partitioned
                footprints).
            sharers: active hardware contexts on this cache (1 or 2).
            same_program: whether co-located sharers execute the same
                program (enables constructive sharing).
        """
        return _mix_miss_rate(
            self, capacity, line_bytes, n_threads, sharers, same_program
        )

    def footprint_bytes(self, n_threads: int = 1) -> float:
        """Total distinct bytes one thread touches across the mixture."""
        return sum(p.thread_footprint(n_threads) for _, p in self.components)

    def dependent_fraction(self) -> float:
        """Fraction of references that are serialized dependent loads."""
        return self._dependent_fraction


@functools.lru_cache(maxsize=None)
def _mix_miss_rate(
    mix: AccessMix,
    capacity: float,
    line_bytes: float,
    n_threads: int,
    sharers: int,
    same_program: bool,
) -> float:
    total = 0.0
    for weight, pattern in mix.components:
        fp = pattern.thread_footprint(n_threads)
        s = pattern.shared_fraction if (same_program and sharers > 1) else 0.0
        c_eff = effective_capacity(capacity, sharers, s)
        scaled = _with_footprint(pattern, fp)
        m = scaled.miss_rate(c_eff, line_bytes)
        total += weight * m * sharing_discount(sharers, s)
    return min(total, 1.0)


def _with_footprint(pattern: AccessPattern, footprint: float) -> AccessPattern:
    """Clone ``pattern`` with a different footprint (dataclass replace)."""
    import dataclasses

    if footprint == pattern.footprint_bytes:
        return pattern
    changes = {"footprint_bytes": footprint}
    # Pencil-decomposed stencil reuse windows shrink with the per-thread
    # share; slab decompositions keep full-plane windows.
    if (
        isinstance(pattern, StencilPattern)
        and pattern.reuse_window_bytes
        and pattern.window_scales
    ):
        ratio = footprint / pattern.footprint_bytes
        changes["reuse_window_bytes"] = pattern.reuse_window_bytes * ratio
    return dataclasses.replace(pattern, **changes)
