"""Benchmark: invariant-auditor overhead on the analytic engine.

The auditor rides every engine run as an observer, so its cost is pure
per-step/per-phase Python arithmetic.  The contract (docs/TESTING.md)
is that full verification stays within 5 % of an unaudited run; CI
enforces that on ``repro run-all`` wall time via
``tools/bench_compare.py --threshold 0.05``, and these benchmarks keep
the per-run cost visible in the committed baselines.
"""

import pytest

from repro import verify
from repro.core.context import override

pytestmark = pytest.mark.smoke


def _run_uncached(study, verify_on):
    with override(verify=verify_on):
        return study.engine("ht_off_4_2").run_single(study.workload("CG"))


def test_bench_engine_run_unaudited(benchmark, study):
    benchmark(_run_uncached, study, False)


def test_bench_engine_run_audited(benchmark, study):
    result = benchmark(_run_uncached, study, True)
    # The auditor must observe without perturbing: same result object
    # shape, and a clean audit.
    assert result.runtime_seconds > 0
    assert verify.stats().violations == 0
