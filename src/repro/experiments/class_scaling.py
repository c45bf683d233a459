"""Extension: do the paper's conclusions survive problem-size changes?

The paper fixes class B ("large enough to provide realistic results,
while ensuring that the working set fits in memory").  This study
re-runs the headline comparisons for classes W, A, B and C and reports
how the architecture ranking and the HT-on-8-vs-HT-off-4 verdict shift:
smaller classes fit more of their working set in cache, relieving the
bus and making HT look better; class C pushes every configuration
deeper into bandwidth saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.configurations import Architecture
from repro.experiments import table2_avg_speedup
from repro.sim.parallel import parallel_map


@dataclass
class ClassScalingResult(ExperimentResult):
    """Per-class Table-2 averages and verdicts."""

    classes: List[str] = field(default_factory=list)
    #: class letter -> {architecture -> average speedup}.
    averages: Dict[str, Dict[Architecture, float]] = field(
        default_factory=dict
    )
    #: class letter -> HT on 2-8-2 slowdown vs HT off 2-4-2.
    ht8_slowdown: Dict[str, float] = field(default_factory=dict)
    #: class letter -> benchmarks faster at HT on 2-8-2.
    ht8_winners: Dict[str, List[str]] = field(default_factory=dict)


def _class_summary(task):
    """Headline comparisons for one problem class (parallel worker)."""
    ctx, cls, benchmarks = task
    study = ctx.study(problem_class=cls)
    t2 = table2_avg_speedup.run(study, benchmarks=benchmarks)
    table = study.speedup_table(benchmarks=benchmarks)
    winners = [
        b
        for b in table.benchmarks
        if table.get(b, "ht_on_8_2") > table.get(b, "ht_off_4_2")
    ]
    return t2.averages, t2.ht_on_8_2_slowdown, winners


def run(
    ctx: Union[RunContext, Study, None] = None,
    classes: Sequence[str] = ("W", "A", "B", "C"),
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> ClassScalingResult:
    """Sweep the problem class and recompute the headline comparisons.

    Classes are independent studies, so the sweep fans out over the
    parallel runner (``jobs=None`` uses the context's setting, falling
    back to the global default).
    """
    ctx = as_context(ctx)
    jobs = jobs if jobs is not None else ctx.jobs
    result = ClassScalingResult(classes=list(classes))
    summaries = parallel_map(
        _class_summary,
        [(ctx, cls, benchmarks) for cls in classes],
        jobs=jobs,
    )
    for cls, (averages, slowdown, winners) in zip(classes, summaries):
        result.averages[cls] = averages
        result.ht8_slowdown[cls] = slowdown
        result.ht8_winners[cls] = winners
    return result


def report(result: ClassScalingResult) -> str:
    archs = list(Architecture)
    archs.remove(Architecture.SERIAL)
    rows = []
    for cls in result.classes:
        rows.append(
            [cls]
            + [result.averages[cls][a] for a in archs]
            + [result.ht8_slowdown[cls] * 100.0,
               ",".join(result.ht8_winners[cls]) or "-"]
        )
    return format_table(
        ["class"] + [a.value for a in archs]
        + ["HTon-8-2 slowdown %", "HTon-8-2 winners"],
        rows,
        title="Problem-class scaling of the paper's headline comparisons",
        float_fmt="%.2f",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
