"""Structural set-associative LRU cache simulator.

Simulates concrete address streams line-by-line.  Whole-stream replay
(:meth:`SetAssocCache.run`) goes through the batched LRU engine of
:mod:`repro.mem.lru_batch`; it produces the same hit/miss stream, stats
and per-set LRU order as calling :meth:`SetAssocCache.access` once per
address (the equivalence tests enforce it).

Supports multi-context interleaving: pass a ``contexts`` array alongside
addresses to attribute hits/misses per hardware context while they share
the same physical cache (the HT-sibling scenario the paper studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.machine.params import CacheParams
from repro.mem.lru_batch import batch_lru


@dataclass
class CacheStats:
    """Per-context access/miss counters for one cache instance."""

    accesses: Dict[int, int] = field(default_factory=dict)
    misses: Dict[int, int] = field(default_factory=dict)

    def record(self, context: int, miss: bool) -> None:
        self.accesses[context] = self.accesses.get(context, 0) + 1
        if miss:
            self.misses[context] = self.misses.get(context, 0) + 1

    def record_many(self, context: int, accesses: int, misses: int) -> None:
        """Bulk-accumulate one context's counters (the vectorized hot
        path: one call per context per batch instead of one per access)."""
        if accesses < 0 or misses < 0 or misses > accesses:
            raise ValueError("need 0 <= misses <= accesses")
        if accesses == 0:
            return
        self.accesses[context] = self.accesses.get(context, 0) + accesses
        if misses:
            self.misses[context] = self.misses.get(context, 0) + misses

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def miss_rate(self, context: Optional[int] = None) -> float:
        """Overall or per-context miss rate (0 when no accesses)."""
        if context is None:
            acc, mis = self.total_accesses, self.total_misses
        else:
            acc = self.accesses.get(context, 0)
            mis = self.misses.get(context, 0)
        return mis / acc if acc else 0.0


class SetAssocCache:
    """A set-associative cache with true-LRU replacement.

    Tags are stored in a ``(n_sets, ways)`` int64 array (-1 = invalid) and
    recency in a monotonically increasing stamp array.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._tags = np.full((params.n_sets, params.associativity), -1, dtype=np.int64)
        self._stamp = np.zeros((params.n_sets, params.associativity), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int, context: int = 0) -> bool:
        """Access one byte address.  Returns True on a miss (fill done)."""
        line = address // self.params.line_bytes
        set_idx = line % self.params.n_sets
        tag = line // self.params.n_sets
        self._clock += 1
        row = self._tags[set_idx]
        hit_ways = np.nonzero(row == tag)[0]
        if hit_ways.size:
            self._stamp[set_idx, hit_ways[0]] = self._clock
            self.stats.record(context, miss=False)
            return False
        # Miss: fill the LRU way (empty ways have stamp 0, hence oldest).
        victim = int(np.argmin(self._stamp[set_idx]))
        self._tags[set_idx, victim] = tag
        self._stamp[set_idx, victim] = self._clock
        self.stats.record(context, miss=True)
        return True

    def run(
        self,
        addresses: np.ndarray,
        contexts: Optional[np.ndarray] = None,
    ) -> CacheStats:
        """Simulate a whole address stream; returns cumulative stats.

        Args:
            addresses: int64 byte addresses.
            contexts: optional per-access hardware-context ids (same
                length); defaults to context 0.
        """
        self.run_misses(addresses, contexts)
        return self.stats

    def run_misses(
        self,
        addresses: np.ndarray,
        contexts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Like :meth:`run`, but also returns per-access miss flags
        (needed by replay drivers that feed one level's misses to the
        next)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if contexts is None:
            ctx_arr = np.zeros(len(addresses), dtype=np.int64)
        else:
            ctx_arr = np.asarray(contexts, dtype=np.int64)
            if len(ctx_arr) != len(addresses):
                raise ValueError("contexts must match addresses in length")
        if len(addresses) == 0:
            return np.empty(0, dtype=bool)
        n_sets = self.params.n_sets
        lines = addresses // self.params.line_bytes
        set_idx = lines % n_sets

        state_keys, state_sets = self._state_lru_order()
        miss, final_keys, final_sets = batch_lru(
            lines, set_idx, self.params.associativity, state_keys, state_sets
        )
        self._clock += len(addresses)
        self._write_back_state(final_keys, final_sets)

        # Bulk stats: one record_many per context present in the batch.
        acc_counts = np.bincount(ctx_arr)
        miss_counts = np.bincount(ctx_arr[miss], minlength=len(acc_counts))
        for ctx in np.flatnonzero(acc_counts):
            self.stats.record_many(
                int(ctx), int(acc_counts[ctx]), int(miss_counts[ctx])
            )
        return miss

    def _state_lru_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current residents as (line keys, set ids), LRU->MRU per set."""
        rows, cols = np.nonzero(self._tags >= 0)
        if len(rows) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        tags_v = self._tags[rows, cols]
        stamps_v = self._stamp[rows, cols]
        order = np.lexsort((stamps_v, rows))
        return tags_v[order] * self.params.n_sets + rows[order], rows[order]

    def _write_back_state(
        self, final_keys: np.ndarray, final_sets: np.ndarray
    ) -> None:
        """Materialize batch-final residents into the tag/stamp arrays.

        Way slots are assigned in LRU->MRU order; stamps end at the
        current clock so later :meth:`access` calls observe the same
        recency order as if the batch had run access-by-access.
        """
        n_sets = self.params.n_sets
        self._tags.fill(-1)
        self._stamp.fill(0)
        if len(final_keys) == 0:
            return
        counts = np.bincount(final_sets, minlength=n_sets)
        lens = counts[final_sets]
        seg_offsets = np.concatenate(
            [[0], np.cumsum(counts)[:-1]]
        )[final_sets]
        slot = np.arange(len(final_keys), dtype=np.int64) - seg_offsets
        self._tags[final_sets, slot] = final_keys // n_sets
        self._stamp[final_sets, slot] = self._clock - (lens - 1 - slot)

    @property
    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return float(np.count_nonzero(self._tags >= 0)) / self._tags.size


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sort-based unique: ``np.unique``'s hash path is several times
    slower on the large nearly-sorted line arrays the LMbench sweep
    feeds through here."""
    if values.size == 0:
        return values
    s = np.sort(values)
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def cyclic_chain_miss_rate(
    params: CacheParams, line_addresses: np.ndarray
) -> float:
    """Exact steady-state miss rate of a cyclic reference chain under LRU.

    A pointer chain visits a fixed set of lines in a fixed cyclic order
    (LMbench's ``lat_mem_rd``).  Under true LRU each set behaves
    independently: if ``n_s`` distinct chain lines map to set ``s``, the
    set hits on all of them when ``n_s <= ways`` and thrashes (misses on
    all) when ``n_s > ways``.  This closed form is cross-validated against
    :class:`SetAssocCache` in the test suite.

    Args:
        params: cache geometry.
        line_addresses: byte addresses of the *distinct* chain elements.
    """
    addrs = np.asarray(line_addresses, dtype=np.int64)
    if addrs.size == 0:
        return 0.0
    lines = _sorted_unique(addrs // params.line_bytes)
    sets = lines % params.n_sets
    counts = np.bincount(sets, minlength=params.n_sets)
    missing = counts[counts > params.associativity].sum()
    return float(missing) / float(lines.size)


def simulate_miss_rate(
    params: CacheParams,
    addresses: np.ndarray,
    warmup_fraction: float = 0.25,
) -> float:
    """Convenience: steady-state miss rate of a stream on a fresh cache.

    The first ``warmup_fraction`` of accesses primes the cache and is
    excluded from the reported rate.
    """
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup_fraction must be in [0, 1)")
    cache = SetAssocCache(params)
    n_warm = int(len(addresses) * warmup_fraction)
    if n_warm:
        cache.run(addresses[:n_warm])
    cache.stats = CacheStats()
    cache.run(addresses[n_warm:])
    return cache.stats.miss_rate()
