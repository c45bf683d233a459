"""Model validation: analytic vs structural miss rates.

For every paper benchmark and sharing scenario (idle sibling, same-
program sibling, different-program sibling), replays sampled streams
through the structural cache simulators and compares against the
analytic hierarchy model's closed forms.  This quantifies the error of
the fast path the experiments run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.npb.suite import PAPER_BENCHMARKS, build_workload
from repro.sim.structural import SharingScenario, StructuralCoSimulator


@dataclass(frozen=True)
class ValidationRow:
    """One (benchmark, scenario) comparison."""

    benchmark: str
    scenario: str
    analytic_l1: float
    structural_l1: float
    analytic_l2_local: float
    structural_l2_local: float

    @property
    def l1_error(self) -> float:
        """Absolute L1 miss-rate error (percentage points)."""
        return abs(self.analytic_l1 - self.structural_l1)


@dataclass
class ValidationResult(ExperimentResult):
    rows: List[ValidationRow] = field(default_factory=list)

    @property
    def max_l1_error(self) -> float:
        return max(r.l1_error for r in self.rows)

    @property
    def mean_l1_error(self) -> float:
        return sum(r.l1_error for r in self.rows) / len(self.rows)


def run(
    ctx: Union[RunContext, Study, None] = None,
    benchmarks: Optional[Sequence[str]] = None,
    problem_class: Optional[str] = None,
    samples: int = 20000,
) -> ValidationResult:
    """Compare analytic and structural rates across sharing scenarios."""
    ctx = as_context(ctx)
    cls = ctx.problem_class if problem_class is None else problem_class
    benches = list(benchmarks or PAPER_BENCHMARKS)
    if ctx.seed is not None:
        sim = StructuralCoSimulator(samples=samples, seed=ctx.seed)
    else:
        sim = StructuralCoSimulator(samples=samples)
    result = ValidationResult()

    for bench in benches:
        workload = build_workload(bench, cls)
        phase = workload.phases[-1]  # the main parallel phase
        other = build_workload(
            "FT" if bench != "FT" else "CG", cls
        ).phases[-1]
        scenarios = [
            ("solo", SharingScenario(phase=phase, n_threads=4)),
            (
                "sibling_same",
                SharingScenario(
                    phase=phase, n_threads=4, co_phase=phase, same_data=True
                ),
            ),
            (
                "sibling_other",
                SharingScenario(
                    phase=phase, n_threads=4, co_phase=other, same_data=False
                ),
            ),
        ]
        for label, scenario in scenarios:
            analytic = sim.analytic_for(scenario)
            structural = sim.measure(scenario)
            result.rows.append(
                ValidationRow(
                    benchmark=bench,
                    scenario=label,
                    analytic_l1=analytic.l1_miss_rate,
                    structural_l1=structural.l1_miss_rate,
                    analytic_l2_local=analytic.l2_miss_rate,
                    structural_l2_local=structural.l2_miss_rate,
                )
            )
    return result


def report(result: ValidationResult) -> str:
    rows = [
        [
            r.benchmark,
            r.scenario,
            r.analytic_l1,
            r.structural_l1,
            r.analytic_l2_local,
            r.structural_l2_local,
            r.l1_error,
        ]
        for r in result.rows
    ]
    table = format_table(
        ["bench", "scenario", "L1 analytic", "L1 structural",
         "L2 analytic", "L2 structural", "|L1 err|"],
        rows,
        title="Model validation: analytic vs structural miss rates",
    )
    return (
        table
        + f"\n\nmean |L1 error| = {result.mean_l1_error:.3f}, "
        + f"max = {result.max_l1_error:.3f}"
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
