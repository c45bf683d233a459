"""Benchmark: regenerate the Figure-3 per-application speedup series."""

from repro.analysis import findings
from repro.core.study import Study
from repro.experiments import fig3_speedup


def test_bench_fig3_speedup(benchmark):
    def regenerate():
        return fig3_speedup.run(Study("B"))

    result = benchmark.pedantic(regenerate, rounds=3, iterations=1)
    print()
    print(fig3_speedup.report(result))
    # Shape: SP is the only benchmark faster at HT on 2-8-2 than HT off
    # 2-4-2 (the paper's group-4 exception).
    assert findings.F1.holds(result.table), findings.ht8_winners(result.table)
