"""Benchmark: regenerate Table 2 (average speedup per architecture)."""

from repro.analysis import findings
from repro.core.study import Study
from repro.experiments import table2_avg_speedup


def test_bench_table2_avg_speedup(benchmark):
    def regenerate():
        return table2_avg_speedup.run(Study("B"))

    result = benchmark.pedantic(regenerate, rounds=3, iterations=1)
    print()
    print(table2_avg_speedup.report(result))
    assert findings.top_two(result.averages) == findings.PAPER_TOP_TWO
    # Paper: HT on both chips costs ~6.7% on average.
    assert 0.01 < findings.ht8_slowdown(result.averages) < 0.15
