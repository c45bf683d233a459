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

from repro.analysis import findings
from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.analysis.speedup import average_speedup_by_architecture
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.configurations import Architecture
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


def _class_table(task):
    """One problem class's speedup table (parallel worker)."""
    ctx, cls = task
    return ctx.study(problem_class=cls).speedup_table()


def run(
    ctx: Union[RunContext, Study, None] = None,
    classes: Sequence[str] = ("W", "A", "B", "C"),
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
    tables = parallel_map(
        _class_table, [(ctx, cls) for cls in classes], jobs=jobs
    )
    for cls, table in zip(classes, tables):
        averages = average_speedup_by_architecture(table)
        result.averages[cls] = averages
        result.ht8_slowdown[cls] = findings.ht8_slowdown(averages)
        result.ht8_winners[cls] = findings.ht8_winners(table)
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
