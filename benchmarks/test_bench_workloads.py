"""Benchmark: one new workload family through the batched sweep path.

Times the minigmg multigrid family across a small machine sweep, run
through the machine-axis batched engine (the path the run-all pipeline
uses for multi-machine sweeps), and checks the batched results equal
the scalar ones.  Cheap enough (one V-cycle family, three machines) to
ride in the CI smoke subset.
"""

import pytest

from repro.core.context import override
from repro.core.study import Study
from repro.machine.registry import resolve_machine
from repro.sim.batch import run_batched_single

pytestmark = pytest.mark.smoke

_MACHINES = ("paxville", "nextgen-shared-l2", "nextgen-shared-l2-4mb")
_CONFIG = "ht_off_4_2"


def test_bench_minigmg_batched_sweep(benchmark):
    studies = [
        Study("B", params=resolve_machine(m).to_params()) for m in _MACHINES
    ]
    workloads = [st.workload("minigmg") for st in studies]

    def sweep():
        with override(verify=False):
            return run_batched_single(
                [st.engine(_CONFIG) for st in studies], workloads
            )

    results = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert results is not None and len(results) == len(_MACHINES)
    print()
    for name, st, wl, res in zip(_MACHINES, studies, workloads, results):
        with override(verify=False):
            scalar = st.engine(_CONFIG).run_single(wl)
        assert res.runtime_seconds == scalar.runtime_seconds
        print(f"minigmg on {name}: {res.runtime_seconds:.3f}s simulated")
    # Pooling the L2 helps the shrinking per-level working sets: the
    # shared-L2 variants should never be slower than stock Paxville.
    assert results[1].runtime_seconds <= results[0].runtime_seconds * 1.05
