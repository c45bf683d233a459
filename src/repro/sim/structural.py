"""Structural co-simulation: measure sharing effects on real cache models.

The analytic engine predicts HT-sibling sharing effects (capacity
dilution, constructive sharing, miss amortization) in closed form.  This
module *measures* the same quantities by replaying sampled address
streams — interleaved exactly as two hardware contexts interleave them —
through the structural :class:`~repro.mem.cache.SetAssocCache` and
:class:`~repro.mem.tlb.TLB` simulators.

It serves two purposes:

* **validation** — ``experiments/validation.py`` compares analytic and
  structural miss rates for every benchmark phase and sharing scenario
  (the test suite enforces agreement bands); and
* **drill-down** — users modeling their own workloads can check what the
  closed forms hide (set-conflict artifacts, interleaving granularity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.params import MachineParams
from repro.machine.registry import default_params
from repro.mem.cache import SetAssocCache
from repro.mem.hierarchy import HierarchyModel, LevelRates
from repro.mem.tlb import TLB
from repro.trace.phase import Phase
from repro.trace.sampling import sample_mix


@dataclass(frozen=True)
class StructuralRates:
    """Measured per-context rates from a structural replay."""

    l1_miss_rate: float
    l2_miss_rate: float  # local: L2 misses / L2 accesses
    dtlb_miss_rate: float

    @property
    def l2_global_miss_rate(self) -> float:
        return self.l1_miss_rate * self.l2_miss_rate


@dataclass(frozen=True)
class SharingScenario:
    """One core-occupancy scenario to measure.

    Attributes:
        phase: the phase under measurement.
        n_threads: team size (divides partitioned footprints).
        co_phase: phase on the HT sibling (None = idle sibling).
        same_data: sibling belongs to the same program instance.
    """

    phase: Phase
    n_threads: int = 1
    co_phase: Optional[Phase] = None
    same_data: bool = True


class StructuralCoSimulator:
    """Replays sampled phase streams through structural cache models."""

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        samples: int = 30000,
        warmup_fraction: float = 0.25,
        seed: int = 20070325,
    ):
        self.params = params if params is not None else default_params()
        self.samples = samples
        self.warmup_fraction = warmup_fraction
        self.seed = seed

    # ------------------------------------------------------------------
    def _phase_stream(
        self, phase: Phase, n_threads: int, rng: np.random.Generator,
        region_offset: int = 0,
    ) -> np.ndarray:
        """A sampled per-thread address stream for a phase.

        Partitioned footprints shrink with the team size; when the
        sibling belongs to a *different* program (``region_offset``),
        its whole address space is displaced so nothing aliases.
        """
        mix = phase.access_mix
        scaled = _scale_mix_for_threads(mix, n_threads)
        stream = sample_mix(
            scaled, self.samples, self.samples, rng
        ).addresses
        if region_offset:
            stream = stream + region_offset
        return stream

    def measure(self, scenario: SharingScenario) -> StructuralRates:
        """Measure one context's miss rates under the scenario.

        The measured context is context 0; when a sibling phase is
        present the two streams interleave round-robin (the fine-grained
        interleaving of two HT contexts sharing a core's caches).
        """
        rng = np.random.default_rng(self.seed)
        own = self._phase_stream(scenario.phase, scenario.n_threads, rng)

        if scenario.co_phase is None:
            addrs = own
            ctxs = np.zeros(len(own), dtype=np.int64)
        else:
            if scenario.same_data:
                # Same program: the sibling walks the same regions, with
                # its own partition slice modeled by an independent draw.
                sib = self._phase_stream(
                    scenario.co_phase, scenario.n_threads, rng
                )
            else:
                # Different program: fully disjoint address space.
                offset = int(own.max()) + (1 << 30)
                sib = self._phase_stream(
                    scenario.co_phase, scenario.n_threads, rng, offset
                )
            n = min(len(own), len(sib))
            addrs = np.empty(2 * n, dtype=np.int64)
            addrs[0::2] = own[:n]
            addrs[1::2] = sib[:n]
            ctxs = np.empty(2 * n, dtype=np.int64)
            ctxs[0::2] = 0
            ctxs[1::2] = 1

        return self._replay(addrs, ctxs)

    # ------------------------------------------------------------------
    def _replay(
        self, addrs: np.ndarray, ctxs: np.ndarray
    ) -> StructuralRates:
        """Drive L1 -> L2 -> DTLB and report context-0 rates.

        The three structures are independent (the L2 simply sees the
        subsequence of addresses that missed L1, the DTLB sees every
        measured address), so each structure's whole substream replays
        through the batched LRU engine in one call.  The rates equal
        those of interleaving the structures access by access.
        """
        p = self.params
        l1 = SetAssocCache(p.l1d)
        l2 = SetAssocCache(p.l2)
        dtlb = TLB(p.dtlb)
        n_warm = int(len(addrs) * self.warmup_fraction)

        # L1: warmup batch, stats reset at the warmup boundary, then
        # the measured batch.
        warm_miss1 = l1.run_misses(addrs[:n_warm], ctxs[:n_warm])
        l1.stats = type(l1.stats)()
        miss1 = l1.run_misses(addrs[n_warm:], ctxs[n_warm:])

        # L2 sees every L1 miss (warmup included, to warm its arrays);
        # only the measured portion is counted.
        all_miss1 = np.concatenate([warm_miss1, miss1])
        l2_stream = addrs[all_miss1]
        miss2 = l2.run_misses(l2_stream, ctxs[all_miss1])
        measured2 = np.flatnonzero(all_miss1) >= n_warm
        l2_ctx = ctxs[all_miss1]
        sel2 = measured2 & (l2_ctx == 0)
        l2_acc0 = int(sel2.sum())
        l2_miss0 = int(miss2[sel2].sum())

        # The DTLB is only driven during the measured window (never in
        # warmup); count its context-0 slice.
        tlb_miss = dtlb.run_misses(addrs[n_warm:])
        sel_t = ctxs[n_warm:] == 0
        tlb_acc0 = int(sel_t.sum())
        tlb_miss0 = int(tlb_miss[sel_t].sum())

        return StructuralRates(
            l1_miss_rate=l1.stats.miss_rate(0),
            l2_miss_rate=l2_miss0 / l2_acc0 if l2_acc0 else 0.0,
            dtlb_miss_rate=tlb_miss0 / tlb_acc0 if tlb_acc0 else 0.0,
        )

    # ------------------------------------------------------------------
    def analytic_for(self, scenario: SharingScenario) -> LevelRates:
        """The analytic model's prediction for the same scenario."""
        hier = HierarchyModel(self.params)
        sharers = 1 if scenario.co_phase is None else 2
        same_code = (
            scenario.co_phase is not None
            and scenario.co_phase.name == scenario.phase.name
        )
        return hier.evaluate(
            scenario.phase,
            n_threads=scenario.n_threads,
            core_sharers=sharers,
            same_data=scenario.same_data and sharers > 1,
            same_code=same_code,
            total_visible_contexts=sharers,
            co_phase=scenario.co_phase,
        )


def _scale_mix_for_threads(mix, n_threads: int):
    """Clone a mix with partitioned footprints divided by the team size."""
    import dataclasses

    from repro.trace.patterns import AccessMix, StencilPattern

    if n_threads <= 1:
        return mix
    comps = []
    for w, pattern in mix.components:
        fp = pattern.thread_footprint(n_threads)
        changes = {"footprint_bytes": fp}
        if (
            isinstance(pattern, StencilPattern)
            and pattern.reuse_window_bytes
            and pattern.window_scales
        ):
            ratio = fp / pattern.footprint_bytes
            changes["reuse_window_bytes"] = pattern.reuse_window_bytes * ratio
        comps.append((w, dataclasses.replace(pattern, **changes)))
    return AccessMix(components=tuple(comps))
