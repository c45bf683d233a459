"""Per-access reference oracles for the structural simulators.

Production replay (``SetAssocCache.run_misses``, ``TLB.run_misses``,
the predictors' ``run`` and ``StructuralCoSimulator.measure``) goes
through batched NumPy kernels.  The oracles here restate each replay as
a plain loop over the public one-access methods (``access`` and
``predict_and_update``), so the equivalence and metamorphic tests can
demand bit-identical miss flags, counters and post-run state.

Each oracle drives the object it is given, so a production batch
followed by an oracle continuation exercises the state hand-off.
"""

from typing import Optional, Union

import numpy as np

from repro.cpu.branch import BimodalPredictor, BranchStats, GsharePredictor
from repro.mem.cache import SetAssocCache
from repro.mem.tlb import TLB
from repro.sim.structural import StructuralCoSimulator, StructuralRates


def cache_run_misses(
    cache: SetAssocCache,
    addresses: np.ndarray,
    contexts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``SetAssocCache.run_misses`` as one ``access`` call per address."""
    if contexts is None:
        contexts = np.zeros(len(addresses), dtype=np.int64)
    return np.array(
        [cache.access(int(a), int(c)) for a, c in zip(addresses, contexts)],
        dtype=bool,
    )


def tlb_run_misses(tlb: TLB, addresses: np.ndarray) -> np.ndarray:
    """``TLB.run_misses`` as one ``access`` call per address."""
    return np.array([tlb.access(int(a)) for a in addresses], dtype=bool)


def predictor_run(
    predictor: Union[BimodalPredictor, GsharePredictor],
    pcs: np.ndarray,
    outcomes: np.ndarray,
) -> BranchStats:
    """A predictor's ``run`` as one ``predict_and_update`` per branch."""
    for pc, taken in zip(pcs, outcomes):
        predictor.predict_and_update(int(pc), bool(taken))
    return predictor.stats


class ScalarCoSimulator(StructuralCoSimulator):
    """``StructuralCoSimulator`` replaying L1, L2 and DTLB interleaved,
    one access at a time, in stream order."""

    def _replay(
        self, addrs: np.ndarray, ctxs: np.ndarray
    ) -> StructuralRates:
        p = self.params
        l1 = SetAssocCache(p.l1d)
        l2 = SetAssocCache(p.l2)
        dtlb = TLB(p.dtlb)

        n_warm = int(len(addrs) * self.warmup_fraction)
        l2_acc = {0: 0, 1: 0}
        l2_miss = {0: 0, 1: 0}
        dtlb_acc = {0: 0, 1: 0}
        dtlb_miss = {0: 0, 1: 0}

        for i in range(len(addrs)):
            a = int(addrs[i])
            c = int(ctxs[i])
            measured = i >= n_warm
            if i == n_warm:
                l1.stats = type(l1.stats)()
            miss1 = l1.access(a, context=c)
            if miss1:
                miss2 = l2.access(a, context=c)
                if measured:
                    l2_acc[c] += 1
                    l2_miss[c] += int(miss2)
            if measured:
                dtlb_acc[c] += 1
                dtlb_miss[c] += int(dtlb.access(a))

        l1_rate = l1.stats.miss_rate(0)
        l2_rate = l2_miss[0] / l2_acc[0] if l2_acc[0] else 0.0
        dtlb_rate = dtlb_miss[0] / dtlb_acc[0] if dtlb_acc[0] else 0.0
        return StructuralRates(
            l1_miss_rate=l1_rate,
            l2_miss_rate=l2_rate,
            dtlb_miss_rate=dtlb_rate,
        )
