"""Benchmark: one new workload family across a small machine sweep.

Times the minigmg multigrid family on three machines through
``Study.run`` (the path every sweep experiment takes), with the run
cache off so each round simulates.  Cheap enough (one V-cycle family,
three machines) to ride in the CI smoke subset.
"""

import pytest

from repro.core.context import override
from repro.core.runcache import configure
from repro.core.study import Study
from repro.machine.registry import resolve_machine

pytestmark = pytest.mark.smoke

_MACHINES = ("paxville", "nextgen-shared-l2", "nextgen-shared-l2-4mb")
_CONFIG = "ht_off_4_2"


def test_bench_minigmg_machine_sweep(benchmark):
    studies = [
        Study("B", params=resolve_machine(m).to_params()) for m in _MACHINES
    ]

    def sweep():
        configure(reset=True, enabled=False)
        with override(verify=False):
            return [st.run("minigmg", _CONFIG) for st in studies]

    try:
        results = benchmark.pedantic(sweep, rounds=3, iterations=1)
    finally:
        configure(reset=True, enabled=True)
    print()
    for name, res in zip(_MACHINES, results):
        print(f"minigmg on {name}: {res.runtime_seconds:.3f}s simulated")
    # Pooling the L2 helps the shrinking per-level working sets: the
    # shared-L2 variants should never be slower than stock Paxville.
    assert results[1].runtime_seconds <= results[0].runtime_seconds * 1.05
