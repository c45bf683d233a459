"""Extension: robustness of the paper's headline findings.

If a calibration constant is off by 20 %, do the paper's findings still
hold?  This study scales each calibration constant by 0.8 and 1.25, one
at a time, and reports per perturbation the metric of each finding of
:mod:`repro.analysis.findings` it sweeps (F1, SP the only HT-on-2-8-2
winner; F2, Table 2's top-two ranking), its percent change from the
baseline, and whether the finding still holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import F1, F2, Finding
from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.analysis.speedup import SpeedupTable
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.registry import default_params
from repro.machine.spec import SpecOverride
from repro.sim.parallel import parallel_map

#: Dotted path of every scalar knob we perturb; a row's ``parameter``
#: label is the path's last segment.
PERTURBABLE: List[str] = [
    "memory_latency_ns",
    "core.issue_width",
    "core.mlp",
    "core.mlp_smt_share",
    "core.smt_partition_penalty",
    "core.trace_cache_miss_penalty",
    "bus.chip_read_bw",
    "bus.system_read_bw",
    "bus.snoop_overhead_per_agent",
    "bus.snoop_overhead_cross_chip",
    "bus.prefetch_max_coverage",
    "branch.mispredict_penalty_cycles",
]


@dataclass(frozen=True)
class SensitivityRow:
    """Effect of perturbing one parameter on one metric."""

    parameter: str
    scale: float
    metric_value: float
    baseline_value: float
    finding_holds: bool

    @property
    def metric_change(self) -> float:
        """Fractional metric change relative to the baseline."""
        if self.baseline_value == 0:
            return 0.0
        return self.metric_value / self.baseline_value - 1.0

    @property
    def elasticity(self) -> float:
        """Percent metric change per percent parameter change."""
        dp = self.scale - 1.0
        if dp == 0:
            return 0.0
        return self.metric_change / dp


@dataclass
class SensitivityResult:
    metric_name: str
    baseline: float
    rows: List[SensitivityRow] = field(default_factory=list)

    def fragile_parameters(self) -> List[str]:
        """Parameters whose perturbation breaks the boolean finding."""
        return sorted({
            r.parameter for r in self.rows if not r.finding_holds
        })

    def max_elasticity(self) -> Tuple[str, float]:
        r = max(self.rows, key=lambda x: abs(x.elasticity))
        return r.parameter, r.elasticity


def _perturbed_table(task) -> SpeedupTable:
    """The speedup table of a study whose field at ``path`` is scaled
    by ``scale`` (parallel worker)."""
    problem_class, params, scheduler, omp, path, scale = task
    return Study(
        problem_class,
        params=SpecOverride.scaled(path, scale).apply_params(params),
        scheduler=scheduler,
        omp=omp,
    ).speedup_table()


def sweep_many(
    findings: Sequence[Finding],
    study: Study,
    scales: Sequence[float] = (0.8, 1.25),
    parameters: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> List[SensitivityResult]:
    """One result per finding: scale each of *parameters* (default
    :data:`PERTURBABLE`) of *study* by each of *scales* and evaluate the
    findings on the perturbed study.

    Each sweep point (the baseline and every perturbation) builds its
    study's speedup table once, and every finding reads that one table.
    The perturbations keep the study's scheduler and OpenMP environment
    and fan out over ``jobs`` processes (None = the global default).
    """
    grid = [(path, scale) for path in parameters or PERTURBABLE
            for scale in scales]
    baseline = study.speedup_table()
    tables = parallel_map(
        _perturbed_table,
        [
            (study.problem_class, study.params or default_params(),
             study.scheduler_name, study.omp, path, scale)
            for path, scale in grid
        ],
        jobs=jobs,
    )
    results = []
    for finding in findings:
        base = finding.metric(baseline)
        results.append(SensitivityResult(finding.metric_name, base, [
            SensitivityRow(
                parameter=path.rpartition(".")[2],
                scale=scale,
                metric_value=finding.metric(table),
                baseline_value=base,
                finding_holds=finding.holds(table),
            )
            for (path, scale), table in zip(grid, tables)
        ]))
    return results


@dataclass
class SensitivityStudyResult(ExperimentResult):
    f1: SensitivityResult = None  # SP-only-winner
    f2: SensitivityResult = None  # top-two ranking


def run(
    ctx: Union[RunContext, Study, None] = None,
    problem_class: Optional[str] = None,
    jobs: Optional[int] = None,
) -> SensitivityStudyResult:
    ctx = as_context(ctx)
    jobs = jobs if jobs is not None else ctx.jobs
    # The perturbations derive from the context's study but are built
    # outside the context, so they stay out of the manifest's study
    # fingerprints.
    f1, f2 = sweep_many(
        [F1, F2], ctx.study(problem_class=problem_class), jobs=jobs
    )
    return SensitivityStudyResult(f1=f1, f2=f2)


def report(result: SensitivityStudyResult) -> str:
    parts = []
    for finding, res in [(F1, result.f1), (F2, result.f2)]:
        rows = [
            [r.parameter, f"x{r.scale:g}", r.metric_value,
             r.metric_change * 100.0, "yes" if r.finding_holds else "NO"]
            for r in res.rows
        ]
        parts.append(format_table(
            ["parameter", "scale", res.metric_name, "change %", "holds?"],
            rows,
            title=f"{finding.label}: {finding.claim} (baseline "
                  f"{res.metric_name} = {res.baseline:.2f})",
            float_fmt="%.2f",
        ))
        fragile = res.fragile_parameters()
        parts.append(
            f"{finding.label} fragile under: "
            f"{', '.join(fragile) if fragile else 'none'}"
        )
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
