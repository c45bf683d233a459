"""Efficiency and symbiosis metrics.

The paper's conclusion ranks architectures by "total computing power per
system resources available" and names the single HT-enabled dual-core
chip the most efficient.  This module makes those notions first-class:

* :func:`efficiency_table` — speedup per hardware context, per physical
  core, and per chip for every configuration;
* :func:`corun_degradation_matrix` — how much each program slows down
  against each co-runner (the symbiosis structure behind Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.study import Study
from repro.machine.configurations import get_config


@dataclass(frozen=True)
class EfficiencyRow:
    """Resource-normalized performance of one configuration."""

    config: str
    benchmark: str
    speedup: float
    per_context: float
    per_core: float
    per_chip: float


def efficiency_table(
    study: Optional[Study] = None,
    benchmarks: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
) -> List[EfficiencyRow]:
    """Speedup per context/core/chip for every (benchmark, config)."""
    study = study if study is not None else Study("B")
    benches = list(benchmarks or study.paper_benchmarks())
    cfgs = list(configs or study.paper_configs())
    rows: List[EfficiencyRow] = []
    for bench in benches:
        for name in cfgs:
            cfg = get_config(name)
            topo = cfg.topology()
            s = study.speedup(bench, name)
            rows.append(
                EfficiencyRow(
                    config=name,
                    benchmark=bench,
                    speedup=s,
                    per_context=s / topo.n_contexts,
                    per_core=s / topo.n_cores,
                    per_chip=s / topo.n_chips,
                )
            )
    return rows


def most_efficient_architecture(
    rows: Sequence[EfficiencyRow], by: str = "per_context"
) -> str:
    """Configuration with the highest average resource efficiency.

    Args:
        rows: output of :func:`efficiency_table`.
        by: ``"per_context"``, ``"per_core"`` or ``"per_chip"``.
    """
    if by not in ("per_context", "per_core", "per_chip"):
        raise ValueError(f"unknown efficiency basis {by!r}")
    sums: Dict[str, List[float]] = {}
    for r in rows:
        sums.setdefault(r.config, []).append(getattr(r, by))
    avgs = {c: sum(v) / len(v) for c, v in sums.items()}
    return max(avgs, key=avgs.get)


@dataclass
class DegradationMatrix:
    """Per-program slowdown against each co-runner.

    ``cell(a, b)`` is program a's runtime running beside b, divided by
    its runtime running alone with the same thread count — 1.0 means no
    interference, 2.0 means it took twice as long.
    """

    config: str
    benchmarks: List[str]
    cells: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def cell(self, victim: str, aggressor: str) -> float:
        return self.cells[(victim, aggressor)]

    def friendliest_partner(self, victim: str) -> str:
        """Co-runner that degrades ``victim`` the least."""
        partners = {
            b: self.cells[(victim, b)] for b in self.benchmarks
        }
        return min(partners, key=partners.get)


def corun_degradation_matrix(
    study: Optional[Study] = None,
    benchmarks: Optional[Sequence[str]] = None,
    config: str = "ht_on_8_2",
) -> DegradationMatrix:
    """Build the co-run degradation matrix on one configuration.

    The solo baseline gives each program the same thread count it gets
    in the co-run (half the contexts), so the matrix isolates
    *interference*, not thread-count effects.
    """
    study = study if study is not None else Study("B")
    benches = list(benchmarks or study.paper_benchmarks())
    cfg = get_config(config)
    half = max(cfg.n_contexts // 2, 1)

    solo = {
        b: study.run(b, config, n_threads=half).runtime_seconds
        for b in benches
    }

    matrix = DegradationMatrix(config=config, benchmarks=benches)
    for a in benches:
        for b in benches:
            pair = study.run_pair(a, b, config)
            matrix.cells[(a, b)] = (
                pair.program(0).runtime_seconds / solo[a]
            )
    return matrix
