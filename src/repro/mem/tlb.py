"""Fully-associative LRU TLB simulator (structural view).

Shares the behavioural contract of :class:`repro.mem.cache.SetAssocCache`
but tracks page-granularity translations with a fully-associative array,
matching the Xeon's ITLB/DTLB organization closely enough for the paper's
miss-rate comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.params import TLBParams
from repro.mem.lru_batch import batch_lru


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Fully-associative translation lookaside buffer with LRU."""

    def __init__(self, params: TLBParams):
        self.params = params
        self._pages = np.full(params.entries, -1, dtype=np.int64)
        self._stamp = np.zeros(params.entries, dtype=np.int64)
        self._clock = 0
        self.stats = TLBStats()

    def reset(self) -> None:
        self._pages.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        self.stats = TLBStats()

    def access(self, address: int) -> bool:
        """Translate one byte address; True on a TLB miss."""
        page = address // self.params.page_bytes
        self._clock += 1
        self.stats.accesses += 1
        hits = np.nonzero(self._pages == page)[0]
        if hits.size:
            self._stamp[hits[0]] = self._clock
            return False
        victim = int(np.argmin(self._stamp))
        self._pages[victim] = page
        self._stamp[victim] = self._clock
        self.stats.misses += 1
        return True

    def run(self, addresses: np.ndarray) -> TLBStats:
        """Translate a whole stream; returns cumulative stats."""
        self.run_misses(addresses)
        return self.stats

    def run_misses(self, addresses: np.ndarray) -> np.ndarray:
        """Like :meth:`run`, but also returns per-access miss flags.

        The TLB is the one-set case of the batched LRU engine (fully
        associative, ``entries`` ways)."""
        pages_stream = (
            np.asarray(addresses, dtype=np.int64) // self.params.page_bytes
        )
        n = len(pages_stream)
        if n == 0:
            return np.empty(0, dtype=bool)
        valid = np.flatnonzero(self._pages >= 0)
        order = np.argsort(self._stamp[valid])  # LRU first
        state_keys = self._pages[valid][order]
        miss, final_keys, _ = batch_lru(
            pages_stream,
            np.zeros(n, dtype=np.int64),
            self.params.entries,
            state_keys,
            np.zeros(len(state_keys), dtype=np.int64),
        )
        self._clock += n
        self._pages.fill(-1)
        self._stamp.fill(0)
        count = len(final_keys)
        if count:
            self._pages[:count] = final_keys
            self._stamp[:count] = self._clock - (count - 1) + np.arange(count)
        self.stats.accesses += n
        self.stats.misses += int(miss.sum())
        return miss
