"""Table 2: average speedup per multithreaded architecture.

Headline findings from the readable text (defined once in
:mod:`repro.analysis.findings`):

* CMP-based SMP and CMT-based SMP deliver the highest average speedups;
* the single HT-enabled dual-core chip (CMT) trails CMP-based SMP by only
  a few percent in the paper (3.6 %) — our simulated gap is larger, see
  EXPERIMENTS.md;
* enabling HT on both chips costs ~6.7 % versus HT off (CMT-based SMP vs
  CMP-based SMP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.analysis import findings
from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.analysis.speedup import average_speedup_by_architecture
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.configurations import Architecture


@dataclass
class Table2Result(ExperimentResult):
    averages: Dict[Architecture, float]
    config_order: List[str]


def run(ctx: Union[RunContext, Study, None] = None) -> Table2Result:
    """Compute the Table-2 architecture averages.

    When the pipeline already ran ``fig3`` (a declared dependency), its
    speedup table is reused from the context instead of recomputed.
    """
    ctx = as_context(ctx)
    fig3 = ctx.results.get("fig3")
    if fig3 is not None:
        table, cfgs = fig3.table, list(fig3.config_order)
    else:
        study = ctx.study()
        cfgs = study.paper_configs()
        table = study.speedup_table(
            benchmarks=ctx.workload_names(), configs=cfgs
        )
    return Table2Result(
        averages=average_speedup_by_architecture(table, cfgs),
        config_order=cfgs,
    )


def report(result: Table2Result) -> str:
    """Render Table 2 plus the paper's two headline ratios."""
    rows = [
        [arch.value, avg] for arch, avg in result.averages.items()
    ]
    body = format_table(
        ["architecture", "avg speedup"],
        rows,
        title="Table 2: average speedup for architectures",
        float_fmt="%.2f",
    )
    extras = (
        f"\nCMT vs CMP-based SMP slowdown: "
        f"{findings.cmt_gap(result.averages) * 100:.1f}% "
        f"(paper: {findings.PAPER_CMT_GAP * 100:.1f}%)\n"
        f"HT on 2-8-2 vs HT off 2-4-2 slowdown: "
        f"{findings.ht8_slowdown(result.averages) * 100:.1f}% "
        f"(paper: ~{findings.PAPER_HT8_SLOWDOWN * 100:.1f}%)"
    )
    return body + extras


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
