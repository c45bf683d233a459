"""Benchmark: the sensitivity sweep, scalar vs machine-axis batched.

The two parameterized cases run the *same* cold-cache perturbation grid
(12 knobs x 2 scales, two findings); the only difference is the
``REPRO_BATCH`` mode.  ``tools/bench_compare.py --speedup`` gates the
ratio in CI::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep.py \
        --benchmark-only --benchmark-json=/tmp/bench_sweep.json
    python tools/bench_compare.py --speedup /tmp/bench_sweep.json \
        "test_bench_sensitivity_sweep[scalar]" \
        "test_bench_sensitivity_sweep[batched]" --threshold 3.0

Both cases disable the run cache and the invariant auditor and pin
``jobs=1``: the comparison is single-process engine work, not cache hits
or pool scheduling (the auditor would force the batched path scalar).
"""

import pytest

from repro.core.context import override
from repro.core.runcache import configure
from repro.experiments import sensitivity_study

pytestmark = pytest.mark.smoke


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_bench_sensitivity_sweep(benchmark, mode):
    batch_mode = {"scalar": "off", "batched": "on"}[mode]

    def sweep():
        configure(reset=True, enabled=False)
        with override(verify=False, batch=batch_mode, jobs=1):
            return sensitivity_study.run(jobs=1)

    try:
        result = benchmark.pedantic(sweep, rounds=2, iterations=1)
    finally:
        configure(reset=True, enabled=True)
    print()
    print(sensitivity_study.report(result))
    assert len(result.f1.rows) == 24
    assert len(result.f2.rows) == 24
