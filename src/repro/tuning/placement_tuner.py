"""Feedback placement tuner (Curtis-Maury et al., QEST'05).

For multiprogram workloads the decisive question on a chip-multithreaded
SMP is *which threads share a core*: same-program siblings share code
(constructive trace cache) while mixed siblings can be symbiotic (one
memory-bound, one compute-bound) or mutually destructive.  The tuner
samples every candidate placement policy over a short trial interval,
scores system throughput (sum of the programs' progress rates), commits
to the winner, and reports the predicted full-run outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.core.study import Study

#: Placement policies the tuner samples.
CANDIDATE_POLICIES = ("linux_default", "gang", "symbiosis")

#: Fraction of the workloads used per trial interval.
TRIAL_FRACTION = 0.02


@dataclass
class PlacementTuneResult:
    """Outcome of a placement-tuning session."""

    workloads: Tuple[str, str]
    config: str
    chosen: str
    #: policy -> combined throughput score (1 / co-run makespan).
    trial_scores: Dict[str, float] = field(default_factory=dict)
    #: policy -> full-run makespan seconds (the committed run measured
    #: for every policy, for evaluation).
    full_makespans: Dict[str, float] = field(default_factory=dict)

    @property
    def gain_over_default(self) -> float:
        """Fractional makespan saved versus the default Linux placement."""
        default = self.full_makespans["linux_default"]
        best = self.full_makespans[self.chosen]
        return 1.0 - best / default

    @property
    def regret(self) -> float:
        """Makespan excess of the chosen policy over the true optimum
        (0 = the trial interval identified the best policy)."""
        best_true = min(self.full_makespans.values())
        return self.full_makespans[self.chosen] / best_true - 1.0


def tune_placement(
    study: Study,
    benchmark_a: str,
    benchmark_b: str,
    config_name: str,
    policies: Sequence[str] = CANDIDATE_POLICIES,
    trial_fraction: float = TRIAL_FRACTION,
) -> PlacementTuneResult:
    """Sample placement policies on trial intervals; commit to the best.

    Each policy runs the pair in a variant of ``study`` that changes
    only the scheduler.  Returns the chosen policy plus both trial
    scores and full-run makespans (so callers can compute the tuner's
    regret).
    """
    if not 0 < trial_fraction <= 1:
        raise ValueError("trial_fraction must be in (0, 1]")

    variants = {
        p: Study(
            study.problem_class, params=study.params, scheduler=p,
            omp=study.omp,
        )
        for p in policies
    }

    def makespan(policy: str, scale: float) -> float:
        return variants[policy].run_pair(
            benchmark_a, benchmark_b, config_name, scale=scale
        ).runtime_seconds

    trial_scores = {
        p: 1.0 / makespan(p, trial_fraction) for p in policies
    }
    chosen = max(trial_scores, key=trial_scores.get)
    full_makespans = {p: makespan(p, 1.0) for p in policies}
    return PlacementTuneResult(
        workloads=(
            study.workload(benchmark_a).name,
            study.workload(benchmark_b).name,
        ),
        config=config_name,
        chosen=chosen,
        trial_scores=trial_scores,
        full_makespans=full_makespans,
    )
