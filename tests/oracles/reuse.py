"""Reuse-distance analysis of concrete address streams.

The analytic pattern models (``AccessMix.miss_rate``) are closed forms;
this module provides the measurement-side counterpart: compute the LRU
reuse-distance histogram of any address stream and derive its exact
miss-rate curve (miss rate of every fully-associative LRU cache size at
once, via Mattson's stack algorithm).  Tests validate the pattern
closed forms against these measured curves.

The stack algorithm here is the classic O(N·D) list-based treap-free
variant — fine for the sampled streams (10^4-10^5) these tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.trace.sampling import sample_mix


@dataclass(frozen=True)
class ReuseProfile:
    """Measured reuse-distance distribution of a stream.

    Attributes:
        distances: per-access LRU stack distance in *lines* (-1 for cold
            misses / first touches).
        line_bytes: line granularity of the analysis.
    """

    distances: np.ndarray
    line_bytes: int

    @property
    def n_accesses(self) -> int:
        return len(self.distances)

    @property
    def cold_fraction(self) -> float:
        """Fraction of accesses that are first touches."""
        if self.n_accesses == 0:
            return 0.0
        return float(np.count_nonzero(self.distances < 0)) / self.n_accesses

    def miss_rate(self, capacity_bytes: float) -> float:
        """Exact miss rate of a fully-associative LRU cache.

        An access misses iff its stack distance (in lines) is >= the
        cache's line capacity, or it is a cold miss.
        """
        if self.n_accesses == 0:
            return 0.0
        capacity_lines = max(int(capacity_bytes // self.line_bytes), 0)
        misses = np.count_nonzero(
            (self.distances < 0) | (self.distances >= capacity_lines)
        )
        return misses / self.n_accesses

    def miss_rate_curve(
        self, capacities_bytes: Sequence[float]
    ) -> List[float]:
        """Miss rates for several capacities (one histogram pass each)."""
        return [self.miss_rate(c) for c in capacities_bytes]

    def histogram(self, bins: Sequence[int]) -> Dict[str, float]:
        """Fraction of accesses per stack-distance bin (lines).

        ``bins`` are upper edges; a final ``inf``/cold bucket is added.
        """
        out: Dict[str, float] = {}
        if self.n_accesses == 0:
            return out
        d = self.distances
        prev = 0
        for edge in bins:
            frac = np.count_nonzero((d >= prev) & (d < edge))
            out[f"[{prev},{edge})"] = frac / self.n_accesses
            prev = edge
        out[f"[{prev},inf)"] = (
            np.count_nonzero(d >= prev) / self.n_accesses
        )
        out["cold"] = self.cold_fraction
        return out


def reuse_profile(
    addresses: np.ndarray, line_bytes: int = 64
) -> ReuseProfile:
    """Compute LRU stack distances of a stream (Mattson's algorithm).

    The stack distance of an access is the number of *distinct* lines
    touched since the previous access to the same line; first touches
    get distance -1.
    """
    lines = np.asarray(addresses, dtype=np.int64) // line_bytes
    stack: List[int] = []  # most recent first
    seen: set = set()
    distances = np.empty(len(lines), dtype=np.int64)
    for i, line in enumerate(lines):
        line = int(line)
        if line in seen:
            # Find current depth by scanning (list-based Mattson).
            depth = stack.index(line)
            distances[i] = depth
            del stack[depth]
        else:
            distances[i] = -1
            seen.add(line)
        stack.insert(0, line)
    return ReuseProfile(distances=distances, line_bytes=line_bytes)


def miss_rate_curve_from_mix(
    mix,
    capacities_bytes: Sequence[float],
    line_bytes: int = 64,
    samples: int = 20000,
    seed: int = 7,
) -> List[float]:
    """Measured miss-rate curve of an :class:`AccessMix` sample.

    Draws a sampled stream from the mix, computes its reuse profile and
    evaluates the curve — the measurement the analytic
    ``mix.miss_rate(c, line)`` approximates in closed form.
    """
    stream = sample_mix(
        mix, samples, samples, np.random.default_rng(seed)
    )
    profile = reuse_profile(stream.addresses, line_bytes)
    return profile.miss_rate_curve(capacities_bytes)
