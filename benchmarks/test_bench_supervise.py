"""Benchmark: supervision overhead on the clean path.

With a budget armed, every engine step/phase boundary runs one
monotonic-clock comparison via :func:`repro.supervise.check` (the
cooperative deadline); with supervision inactive the engine attaches no
observer at all.  The contract (docs/ROBUSTNESS.md) is that a generous
budget — one that never fires — stays within noise of an unsupervised
run; CI enforces that on ``repro run-all`` wall time via
``tools/bench_compare.py --threshold 0.05``, and these benchmarks keep
the per-run cost visible in the committed baselines.
"""

import pytest

from repro import supervise
from repro.core.context import override
from repro.supervise import Budget

pytestmark = pytest.mark.smoke


def _run_uncached(study, supervised):
    supervise.reset()
    # Generous enough never to fire: measures pure checkpoint cost.
    budget = (
        Budget(run_timeout_s=3600, experiment_timeout_s=3600).arm()
        if supervised else None
    )
    with override(budget=budget) as ctx, ctx.for_task("bench").active():
        return study.engine("ht_off_4_2").run_single(study.workload("CG"))


def test_bench_engine_run_unsupervised(benchmark, study):
    benchmark(_run_uncached, study, False)


def test_bench_engine_run_supervised(benchmark, study):
    result = benchmark(_run_uncached, study, True)
    # Supervision must observe without perturbing the simulation.
    assert result.runtime_seconds > 0
