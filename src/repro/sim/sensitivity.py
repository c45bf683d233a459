"""Parameter sensitivity analysis: how robust are the conclusions?

A model-based reproduction owes its readers a robustness statement: if
a calibration constant is off by 20 %, do the paper's findings still
hold?  This module perturbs machine parameters one at a time, re-runs a
target metric, and reports elasticities (percent metric change per
percent parameter change) plus whether each *boolean finding* (e.g.
"only SP wins at HT on 2-8-2") survives the perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.study import Study
from repro.machine.params import MachineParams
from repro.machine.registry import default_params
from repro.machine.spec import SpecOverride

#: (display name, path to the field) for every scalar knob we perturb.
PERTURBABLE: List[Tuple[str, Tuple[str, ...]]] = [
    ("memory_latency_ns", ("memory_latency_ns",)),
    ("issue_width", ("core", "issue_width")),
    ("mlp", ("core", "mlp")),
    ("mlp_smt_share", ("core", "mlp_smt_share")),
    ("smt_partition_penalty", ("core", "smt_partition_penalty")),
    ("trace_cache_miss_penalty", ("core", "trace_cache_miss_penalty")),
    ("chip_read_bw", ("bus", "chip_read_bw")),
    ("system_read_bw", ("bus", "system_read_bw")),
    ("snoop_overhead_per_agent", ("bus", "snoop_overhead_per_agent")),
    ("snoop_overhead_cross_chip", ("bus", "snoop_overhead_cross_chip")),
    ("prefetch_max_coverage", ("bus", "prefetch_max_coverage")),
    ("mispredict_penalty_cycles", ("branch", "mispredict_penalty_cycles")),
]


def perturb_params(
    base: MachineParams, path: Tuple[str, ...], scale: float
) -> MachineParams:
    """Return params with the field at ``path`` multiplied by ``scale``.

    A thin wrapper over the spec layer's :class:`SpecOverride`, kept for
    its established signature; a typo'd path raises instead of silently
    perturbing nothing.
    """
    return SpecOverride.scaled(".".join(path), scale).apply_params(base)


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


#: One metric/finding pair to evaluate during a sweep.
@dataclass(frozen=True)
class SweepSpec:
    metric: Callable[[Study], float]
    finding: Callable[[Study], bool]
    metric_name: str


def _eval_perturbation(task) -> List[Tuple[float, bool]]:
    """Evaluate every spec on one perturbed study (parallel worker).

    Module-level so the process pool can pickle it; each worker builds
    the perturbed study itself and all specs share the same study —
    hence the same run-cache entries — within the task.
    """
    specs, problem_class, path, scale = task
    study = Study(
        problem_class,
        params=perturb_params(default_params(), path, scale),
    )
    return [(spec.metric(study), spec.finding(study)) for spec in specs]


def sweep_many(
    specs: Sequence[SweepSpec],
    scales: Sequence[float] = (0.8, 1.25),
    parameters: Optional[Sequence[Tuple[str, Tuple[str, ...]]]] = None,
    problem_class: str = "B",
    jobs: Optional[int] = None,
) -> List[SensitivityResult]:
    """Perturb each parameter once and evaluate *all* specs on it.

    Evaluating the findings together means each perturbed study is built
    (and simulated) once rather than once per finding; the perturbation
    grid optionally fans out over a process pool.

    Args:
        specs: metric/finding pairs; for the parallel path their
            callables must be module-level functions (picklable) —
            otherwise the sweep silently runs serially.
        scales: multiplicative perturbations applied to each parameter.
        parameters: knobs to perturb (default: :data:`PERTURBABLE`).
        problem_class: NAS class for the underlying runs.
        jobs: process-pool width (None = the global default, 1 = serial).
    """
    from repro.sim.parallel import parallel_map

    params = list(parameters or PERTURBABLE)
    grid = [
        (name, path, scale) for name, path in params for scale in scales
    ]
    specs = tuple(specs)
    base_study = Study(problem_class)
    results = [
        SensitivityResult(
            metric_name=spec.metric_name, baseline=spec.metric(base_study)
        )
        for spec in specs
    ]
    evaluated = parallel_map(
        _eval_perturbation,
        [(specs, problem_class, path, scale) for _, path, scale in grid],
        jobs=jobs,
    )
    for (name, _, scale), per_spec in zip(grid, evaluated):
        for result, (value, holds) in zip(results, per_spec):
            result.rows.append(
                SensitivityRow(
                    parameter=name,
                    scale=scale,
                    metric_value=value,
                    baseline_value=result.baseline,
                    finding_holds=holds,
                )
            )
    return results


def sweep(
    metric: Callable[[Study], float],
    finding: Callable[[Study], bool],
    metric_name: str,
    scales: Sequence[float] = (0.8, 1.25),
    parameters: Optional[Sequence[Tuple[str, Tuple[str, ...]]]] = None,
    problem_class: str = "B",
    jobs: Optional[int] = None,
) -> SensitivityResult:
    """Perturb each parameter and re-evaluate metric + finding.

    Args:
        metric: scalar evaluated on a Study (e.g. SP's HTon-8-2 speedup).
        finding: boolean claim evaluated on a Study.
        metric_name: label for reports.
        scales: multiplicative perturbations applied to each parameter.
        parameters: knobs to perturb (default: :data:`PERTURBABLE`).
        problem_class: NAS class for the underlying runs.
        jobs: process-pool width (None = the global default, 1 = serial).
    """
    return sweep_many(
        [SweepSpec(metric, finding, metric_name)],
        scales=scales,
        parameters=parameters,
        problem_class=problem_class,
        jobs=jobs,
    )[0]
