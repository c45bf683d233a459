"""Extension: the paper's future-work schedulers, evaluated.

Two studies:

* ``loop_schedule_study`` — the self-tuning loop scheduler's choice and
  gain per (benchmark, configuration);
* ``placement_study`` — the feedback placement tuner's choice, gain over
  the default Linux placement, and regret versus the oracle, per
  multiprogram pair on the fully loaded HT machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.tuning.loop_tuner import LoopTuneResult, tune_loop_schedule
from repro.tuning.placement_tuner import PlacementTuneResult, tune_placement


@dataclass
class TuningStudyResult(ExperimentResult):
    loop_rows: List[LoopTuneResult] = field(default_factory=list)
    placement_rows: List[PlacementTuneResult] = field(default_factory=list)


def run(
    ctx: Union[RunContext, Study, None] = None,
    benchmarks: Sequence[str] = ("LU", "CG", "SP"),
    loop_configs: Sequence[str] = ("ht_off_4_2", "ht_on_8_2"),
    pairs: Sequence[Tuple[str, str]] = (("CG", "FT"), ("CG", "CG"),
                                        ("MG", "SP")),
    placement_config: str = "ht_on_8_2",
    problem_class: Optional[str] = None,
) -> TuningStudyResult:
    """Run both tuning studies."""
    ctx = as_context(ctx)
    study = ctx.study(problem_class=problem_class)
    result = TuningStudyResult()
    for bench in benchmarks:
        for cfg in loop_configs:
            result.loop_rows.append(tune_loop_schedule(study, bench, cfg))
    for a, b in pairs:
        result.placement_rows.append(
            tune_placement(study, a, b, placement_config)
        )
    return result


def report(result: TuningStudyResult) -> str:
    loop_rows = [
        [r.workload, r.config, r.chosen.value,
         r.gain_over_static * 100.0]
        for r in result.loop_rows
    ]
    loop_table = format_table(
        ["benchmark", "config", "chosen schedule", "gain vs static %"],
        loop_rows,
        title="Self-tuning loop scheduler (Zhang & Voss style)",
        float_fmt="%.1f",
    )
    placement_rows = [
        ["/".join(r.workloads), r.chosen,
         r.gain_over_default * 100.0, r.regret * 100.0]
        for r in result.placement_rows
    ]
    placement_table = format_table(
        ["pair", "chosen placement", "gain vs default %", "regret %"],
        placement_rows,
        title="Feedback placement tuner (Curtis-Maury style), ht_on_8_2",
        float_fmt="%.1f",
    )
    return loop_table + "\n\n" + placement_table


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
