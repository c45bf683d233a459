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

from repro.analysis.speedup import SpeedupTable
from repro.core.study import Study
from repro.machine.registry import default_params
from repro.machine.spec import SpecOverride

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


#: One metric/finding pair, evaluated on each sweep point's speedup table.
@dataclass(frozen=True)
class SweepSpec:
    metric: Callable[[SpeedupTable], float]
    finding: Callable[[SpeedupTable], bool]
    metric_name: str


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
    specs: Sequence[SweepSpec],
    scales: Sequence[float] = (0.8, 1.25),
    parameters: Optional[Sequence[str]] = None,
    problem_class: str = "B",
    jobs: Optional[int] = None,
    study: Optional[Study] = None,
) -> List[SensitivityResult]:
    """Perturb each parameter once and evaluate *all* specs on it.

    Each sweep point (the baseline and every perturbation) builds its
    study's speedup table once, and every spec reads that one table; the
    perturbation grid optionally fans out over a process pool.

    Args:
        specs: metric/finding pairs.
        scales: multiplicative perturbations applied to each parameter.
        parameters: dotted paths to perturb (default: :data:`PERTURBABLE`).
        problem_class: NAS class of the default study.
        jobs: process-pool width (None = the global default, 1 = serial).
        study: the study to perturb, keeping its scheduler and OpenMP
            environment (default: the stock machine at ``problem_class``).
    """
    from repro.sim.parallel import parallel_map

    base = study if study is not None else Study(problem_class)
    grid = [(path, scale) for path in parameters or PERTURBABLE
            for scale in scales]
    baseline = base.speedup_table()
    tables = parallel_map(
        _perturbed_table,
        [
            (base.problem_class, base.params or default_params(),
             base.scheduler_name, base.omp, path, scale)
            for path, scale in grid
        ],
        jobs=jobs,
    )
    results = []
    for spec in specs:
        result = SensitivityResult(
            metric_name=spec.metric_name, baseline=spec.metric(baseline)
        )
        for (path, scale), table in zip(grid, tables):
            result.rows.append(
                SensitivityRow(
                    parameter=path.rpartition(".")[2],
                    scale=scale,
                    metric_value=spec.metric(table),
                    baseline_value=result.baseline,
                    finding_holds=spec.finding(table),
                )
            )
        results.append(result)
    return results
