"""Self-tuning loop scheduler (Zhang & Voss, IPDPS'05).

Hyper-Threaded SMPs change the trade-off between static and
self-scheduled loops: static partitions expose intrinsic imbalance and
SMT-induced speed asymmetry, while dynamic/guided pay per-chunk dispatch
overhead.  The empirical answer is workload- and configuration-specific,
so the tuner *measures*: it runs trial iterations of the target workload
under each schedule on the simulated configuration and commits to the
fastest — exactly what the runtime-empirical selector of the paper's
reference does with real trial timesteps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.core.study import Study
from repro.openmp.env import OMPEnvironment, ScheduleKind

#: Fraction of the workload used for each trial run.
TRIAL_FRACTION = 0.02


@dataclass
class LoopTuneResult:
    """Outcome of a schedule-tuning session."""

    workload: str
    config: str
    chosen: ScheduleKind
    trial_seconds: Dict[ScheduleKind, float] = field(default_factory=dict)

    @property
    def gain_over_static(self) -> float:
        """Fractional runtime saved versus always-static."""
        static = self.trial_seconds[ScheduleKind.STATIC]
        best = self.trial_seconds[self.chosen]
        return 1.0 - best / static


def tune_loop_schedule(
    study: Study,
    benchmark: str,
    config_name: str,
    trial_fraction: float = TRIAL_FRACTION,
) -> LoopTuneResult:
    """Trial every schedule kind and commit to the fastest.

    Args:
        study: the machine, problem class, scheduler and OpenMP
            environment to tune in; each trial runs in a variant study
            that changes only the loop schedule.
        benchmark: the benchmark (or workload token) to tune.
        config_name: machine configuration to tune on.
        trial_fraction: fraction of the full workload each trial runs
            (trials are cheap slices, as in the runtime selector).

    Returns:
        The chosen schedule and the trial timings.
    """
    if not 0 < trial_fraction <= 1:
        raise ValueError("trial_fraction must be in (0, 1]")
    base = study.omp if study.omp is not None else OMPEnvironment()
    timings: Dict[ScheduleKind, float] = {}
    for kind in ScheduleKind:
        trial = Study(
            study.problem_class,
            params=study.params,
            scheduler=study.scheduler_name,
            omp=replace(base, schedule=kind),
        )
        timings[kind] = trial.run(
            benchmark, config_name, scale=trial_fraction
        ).runtime_seconds
    chosen = min(timings, key=timings.get)
    return LoopTuneResult(
        workload=study.workload(benchmark).name,
        config=config_name,
        chosen=chosen,
        trial_seconds=timings,
    )
