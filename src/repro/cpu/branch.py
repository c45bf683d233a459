"""Branch prediction: structural gshare simulator + analytic rate model.

The Xeon's front end keeps a single branch history table and global
history register per core; with Hyper-Threading both contexts share (and
pollute) them.  The analytic model decomposes the mispredict rate into:

* a predictor floor (cold counters, BTB misses),
* the branch stream's intrinsic entropy (data-dependent directions),
* loop-exit mispredicts, ``~1`` per inner-loop trip — which grow when
  OpenMP work-sharing shortens inner loops (``trip_divides``),
* BHT aliasing from the number of distinct branch sites, and
* HT-sibling history pollution, scaled by the phase's
  ``branch_history_sensitivity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.machine.params import BranchPredictorParams
from repro.trace.phase import Phase


def _batch_counter_predict(
    table: np.ndarray, idx: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Vectorized two-bit saturating-counter simulation.

    Groups the branch stream by table index and replays each index's
    outcome subsequence through the counter FSM with a segmented
    parallel prefix scan.  The key fact: counter updates are clipped
    additions ``s' = clip(s + d, 0, 3)``, and clipped-add functions
    ``f(x) = min(hi, max(lo, x + a))`` compose into clipped-add
    functions, so the whole per-index trajectory collapses into
    ``log2(n)`` rounds of NumPy min/max/add (a Hillis-Steele scan over
    the function monoid) instead of a per-branch Python loop.

    Updates ``table`` in place; returns per-branch correctness flags in
    stream order.  Bit-identical to calling ``predict_and_update`` once
    per branch (the equivalence tests enforce it).
    """
    n = len(idx)
    if n == 0:
        return np.empty(0, dtype=bool)
    order = np.argsort(idx, kind="stable")
    gidx = idx[order]
    gtaken = taken[order]
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(gidx[1:], gidx[:-1], out=seg_start[1:])

    # Element i carries f_i(x) = clip(x + a, lo, hi); initially the
    # single-update function clip(x +- 1, 0, 3).
    add = np.where(gtaken, 1, -1).astype(np.int64)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, 3, dtype=np.int64)
    done = seg_start.copy()  # window already reaches its segment start
    dist = 1
    while dist < n:
        active = np.flatnonzero(~done[dist:]) + dist
        if len(active) == 0:
            break
        src = active - dist
        # new f = f_active ∘ f_src (apply the earlier window first)
        a2, l2, h2 = add[active], lo[active], hi[active]
        hi_new = np.minimum(h2, np.maximum(l2, hi[src] + a2))
        lo_new = np.minimum(hi_new, np.maximum(l2, lo[src] + a2))
        add[active] = add[src] + a2
        lo[active] = lo_new
        hi[active] = hi_new
        done[active] = done[src]
        dist <<= 1

    s0 = table[gidx].astype(np.int64)
    s_incl = np.minimum(hi, np.maximum(lo, s0 + add))  # state after access
    s_before = np.empty(n, dtype=np.int64)
    s_before[seg_start] = s0[seg_start]
    inner = np.flatnonzero(~seg_start)
    s_before[inner] = s_incl[inner - 1]

    correct_g = (s_before >= 2) == gtaken
    seg_end = np.empty(n, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    seg_end[-1] = True
    table[gidx[seg_end]] = s_incl[seg_end].astype(table.dtype)

    correct = np.empty(n, dtype=bool)
    correct[order] = correct_g
    return correct


def _global_histories(
    outcomes: np.ndarray, init_history: int, history_bits: int
) -> Tuple[np.ndarray, int]:
    """Per-branch global-history register values, vectorized.

    The history register shifts in actual outcomes only (independent of
    predictions), so the value seen by branch ``k`` is the last
    ``history_bits`` outcomes before ``k`` — a sliding bit window over
    the initial register's bits concatenated with the outcome stream.
    Returns (per-branch history values, final register value).
    """
    n = len(outcomes)
    if history_bits == 0:
        return np.zeros(n, dtype=np.int64), 0
    shifts = np.arange(history_bits - 1, -1, -1, dtype=np.int64)
    init_bits = (init_history >> shifts) & 1
    full = np.concatenate([init_bits, outcomes.astype(np.int64)])
    windows = np.lib.stride_tricks.sliding_window_view(full, history_bits)
    weights = np.int64(1) << shifts
    hist = windows[:n] @ weights
    final = int(full[-history_bits:] @ weights)
    return hist, final


@dataclass
class BranchStats:
    branches: int = 0
    mispredicts: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def prediction_rate(self) -> float:
        return 1.0 - self.mispredict_rate


class GsharePredictor:
    """Two-bit saturating-counter gshare predictor (structural model)."""

    def __init__(self, params: BranchPredictorParams):
        self.params = params
        self._table = np.ones(params.bht_entries, dtype=np.int8)  # weakly NT
        self._history = 0
        self._mask = params.bht_entries - 1
        if params.bht_entries & self._mask:
            raise ValueError("bht_entries must be a power of two")
        self._hist_mask = (1 << params.history_bits) - 1
        self.stats = BranchStats()

    def reset(self) -> None:
        self._table.fill(1)
        self._history = 0
        self.stats = BranchStats()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict one branch and train; returns True if predicted right."""
        idx = (pc ^ self._history) & self._mask
        counter = self._table[idx]
        prediction = counter >= 2
        correct = prediction == taken
        if taken and counter < 3:
            self._table[idx] = counter + 1
        elif not taken and counter > 0:
            self._table[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._hist_mask
        self.stats.branches += 1
        if not correct:
            self.stats.mispredicts += 1
        return correct

    def run(self, pcs: np.ndarray, outcomes: np.ndarray) -> BranchStats:
        """Feed a stream of (pc, taken) pairs; returns cumulative stats."""
        pcs = np.asarray(pcs, dtype=np.int64)
        outcomes = np.asarray(outcomes, dtype=bool)
        if len(pcs) != len(outcomes):
            raise ValueError("pcs and outcomes must have equal length")
        hist, final_history = _global_histories(
            outcomes, self._history, self.params.history_bits
        )
        idx = (pcs ^ hist) & self._mask
        correct = _batch_counter_predict(self._table, idx, outcomes)
        self._history = final_history & self._hist_mask
        self.stats.branches += len(pcs)
        self.stats.mispredicts += int(len(pcs) - correct.sum())
        return self.stats


class BimodalPredictor:
    """Per-PC two-bit saturating counters (no history).

    NetBurst's front end combines several predictors; for steady-state
    biased branches the per-site bimodal component dominates, and it is
    the structural counterpart of the analytic model's decomposition
    (trained counters mispredict each minority outcome once, loop exits
    once per trip).  The gshare model above adds the history dimension
    used for the HT pollution effects.
    """

    def __init__(self, params: BranchPredictorParams):
        self.params = params
        self._table = np.ones(params.bht_entries, dtype=np.int8)
        self._mask = params.bht_entries - 1
        if params.bht_entries & self._mask:
            raise ValueError("bht_entries must be a power of two")
        self.stats = BranchStats()

    def reset(self) -> None:
        self._table.fill(1)
        self.stats = BranchStats()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        idx = pc & self._mask
        counter = self._table[idx]
        prediction = counter >= 2
        correct = prediction == taken
        if taken and counter < 3:
            self._table[idx] = counter + 1
        elif not taken and counter > 0:
            self._table[idx] = counter - 1
        self.stats.branches += 1
        if not correct:
            self.stats.mispredicts += 1
        return correct

    def run(self, pcs: np.ndarray, outcomes: np.ndarray) -> BranchStats:
        pcs = np.asarray(pcs, dtype=np.int64)
        outcomes = np.asarray(outcomes, dtype=bool)
        if len(pcs) != len(outcomes):
            raise ValueError("pcs and outcomes must have equal length")
        correct = _batch_counter_predict(
            self._table, pcs & self._mask, outcomes
        )
        self.stats.branches += len(pcs)
        self.stats.mispredicts += int(len(pcs) - correct.sum())
        return self.stats


#: Aliasing penalty per unit of BHT pressure (sites / entries).
_ALIAS_COEFF = 0.035
#: History-pollution penalty at full sensitivity when a sibling shares the
#: predictor.
_POLLUTION_COEFF = 0.055
#: Mispredicts per inner-loop trip (the exit branch).
_EXIT_MISPREDICTS_PER_TRIP = 1.0


def analytic_mispredict_rate(
    phase: Phase,
    params: BranchPredictorParams,
    n_threads: int = 1,
    core_sharers: int = 1,
    same_program: bool = True,
    co_phase: Optional[Phase] = None,
) -> float:
    """Mispredict probability per conditional branch for one context.

    Args:
        phase: the phase executed by this context.
        params: predictor geometry.
        n_threads: OpenMP team size (shortens inner loops when the phase
            partitions its innermost dimension).
        core_sharers: active contexts on this core (2 = HT sibling busy).
        same_program: sibling runs the same program (shared, constructive
            branch sites) vs a different program (additive aliasing).
        co_phase: the sibling's phase when ``same_program`` is False.
    """
    base = params.base_mispredict_rate
    intrinsic = phase.branch_misp_intrinsic

    trips = phase.inner_trip_count
    if phase.trip_divides and phase.parallel:
        trips = max(trips / n_threads, 2.0)
    exit_term = _EXIT_MISPREDICTS_PER_TRIP / trips

    sites = phase.branch_sites
    if core_sharers > 1 and not same_program and co_phase is not None:
        sites = sites + co_phase.branch_sites
    pressure = sites / params.bht_entries
    alias_term = _ALIAS_COEFF * pressure / (1.0 + pressure)

    pollution = 0.0
    if core_sharers > 1:
        strength = 1.0 if not same_program else 0.8
        pollution = _POLLUTION_COEFF * phase.branch_history_sensitivity * strength

    return min(1.0, base + intrinsic + exit_term + alias_term + pollution)
