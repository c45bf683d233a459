"""Extension: robustness of the paper's headline findings.

Perturbs every calibration constant by ±20-25 % and checks whether the
two most load-bearing findings survive:

* F1 — "SP is the only benchmark faster at HT on 2-8-2 than HT off
  2-4-2" (the group-4 exception);
* F2 — "CMP-based SMP and CMT-based SMP have the highest average
  speedups" (Table 2's ranking).

Reported per parameter: the elasticity of SP's HTon-8-2 speedup and
whether each finding holds under the perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.runcache import get_cache
from repro.core.study import Study
from repro.machine.configurations import Architecture
from repro.sim.sensitivity import SensitivityResult, SweepSpec, sweep_many


def _sp_ht8_speedup(study: Study) -> float:
    # Cached, the table the findings read is one entry; uncached, 48 runs.
    if get_cache().enabled:
        return study.speedup_table().get("SP", "ht_on_8_2")
    return study.speedup("SP", "ht_on_8_2")


def _cmp_avg_speedup(study: Study) -> float:
    # Module-level (not a lambda) so the parallel sweep can pickle it.
    return study.speedup_table().column_average("ht_off_4_2")


def _sp_only_winner(study: Study) -> bool:
    table = study.speedup_table()
    winners = [
        b
        for b in table.benchmarks
        if table.get(b, "ht_on_8_2") > table.get(b, "ht_off_4_2")
    ]
    return winners == ["SP"]


def _top_two_architectures(study: Study) -> bool:
    from repro.analysis.speedup import average_speedup_by_architecture

    table = study.speedup_table()
    avgs = average_speedup_by_architecture(table)
    ranked = sorted(avgs, key=lambda a: avgs[a], reverse=True)
    return set(ranked[:2]) == {
        Architecture.CMP_BASED_SMP,
        Architecture.CMT_BASED_SMP,
    }


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
    cls = ctx.problem_class if problem_class is None else problem_class
    if not isinstance(cls, str):
        cls = cls.value
    jobs = jobs if jobs is not None else ctx.jobs
    # Both findings are evaluated on the same perturbation grid in one
    # pass, so each perturbed study is simulated once, not twice.
    f1, f2 = sweep_many(
        [
            SweepSpec(
                metric=_sp_ht8_speedup,
                finding=_sp_only_winner,
                metric_name="SP speedup at HTon-2-8-2",
            ),
            SweepSpec(
                metric=_cmp_avg_speedup,
                finding=_top_two_architectures,
                metric_name="CMP-based SMP average speedup",
            ),
        ],
        problem_class=cls,
        jobs=jobs,
    )
    return SensitivityStudyResult(f1=f1, f2=f2)


def report(result: SensitivityStudyResult) -> str:
    parts = []
    for label, res, claim in [
        ("F1", result.f1, "only SP wins at HT on 2-8-2"),
        ("F2", result.f2, "CMP/CMT-based SMP rank 1-2"),
    ]:
        rows = [
            [r.parameter, f"x{r.scale:g}", r.metric_value,
             r.metric_change * 100.0, "yes" if r.finding_holds else "NO"]
            for r in res.rows
        ]
        parts.append(format_table(
            ["parameter", "scale", res.metric_name, "change %", "holds?"],
            rows,
            title=f"{label}: {claim} (baseline "
                  f"{res.metric_name} = {res.baseline:.2f})",
            float_fmt="%.2f",
        ))
        fragile = res.fragile_parameters()
        parts.append(
            f"{label} fragile under: {', '.join(fragile) if fragile else 'none'}"
        )
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
