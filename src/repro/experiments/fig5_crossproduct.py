"""Figure 5: cross-product multiprogram pairs, box-and-whisker summary.

Every unordered pair of the six benchmarks (21 pairs) runs concurrently
under every configuration; each program's speedup over its serial
baseline contributes one sample.  The paper plots, per configuration, the
interquartile box and min/max whiskers of all samples — HT off 2-4-2
(CMP-based SMP) wins the majority of pairs, while the HT-on
configurations show long upper whiskers from the MG+SP pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_box_plot
from repro.analysis.result import ExperimentResult
from repro.analysis.stats import BoxStats, box_stats
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.sim.parallel import parallel_map


@dataclass
class Fig5Result(ExperimentResult):
    """Per-configuration sample sets and their five-number summaries."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: (config, pair, benchmark) -> speedup, for drill-down.
    detail: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    stats: Dict[str, BoxStats] = field(default_factory=dict)
    config_order: List[str] = field(default_factory=list)

    def best_config_count(self) -> Dict[str, int]:
        """How many (pair, program) samples each configuration wins."""
        wins: Dict[str, int] = {c: 0 for c in self.config_order}
        keys = {(pair, bench) for (_, pair, bench) in self.detail}
        for pair, bench in keys:
            best = max(
                self.config_order,
                key=lambda c: self.detail.get((c, pair, bench), float("-inf")),
            )
            wins[best] += 1
        return wins


def _config_samples(task) -> List[Tuple[str, str, float, float]]:
    """All pair speedups for one configuration (parallel worker)."""
    study, cfg, pairs = task
    return [(a, b) + study.pair_speedups(a, b, cfg) for a, b in pairs]


def run(
    ctx: Union[RunContext, Study, None] = None,
    benchmarks: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> Fig5Result:
    """Run all unordered benchmark pairs under every configuration.

    The per-configuration sample sets are independent, so they fan out
    over the sweep runner (``jobs=None`` uses the context's setting,
    falling back to the global default).
    """
    ctx = as_context(ctx)
    study = ctx.study()
    jobs = jobs if jobs is not None else ctx.jobs
    benches = list(benchmarks or ctx.workload_names())
    cfgs = list(configs or study.paper_configs())
    pairs = list(itertools.combinations_with_replacement(benches, 2))

    per_config = parallel_map(
        _config_samples, [(study, cfg, pairs) for cfg in cfgs], jobs=jobs
    )
    result = Fig5Result(config_order=cfgs)
    for cfg, rows in zip(cfgs, per_config):
        samples: List[float] = []
        for a, b, sa, sb in rows:
            pair_label = f"{a}/{b}"
            result.detail[(cfg, pair_label, a)] = sa
            samples.append(sa)
            if a != b:
                result.detail[(cfg, pair_label, b)] = sb
                samples.append(sb)
            else:
                # Homogeneous pair: two copies, symmetric; count both as
                # the paper does (two programs finished).
                samples.append(sb)
        result.samples[cfg] = samples
        result.stats[cfg] = box_stats(samples)
    return result


def report(result: Fig5Result) -> str:
    """Render the Figure-5 box plot plus the winner tally."""
    plot = format_box_plot(
        result.stats,
        result.config_order,
        title="Figure 5: multi-programmed speedup of NAS benchmark pairs",
    )
    wins = result.best_config_count()
    tally = "\n".join(
        f"  {c}: best for {n} of {sum(wins.values())} samples"
        for c, n in sorted(wins.items(), key=lambda kv: -kv[1])
    )
    return plot + "\n\nwinner tally (per pair-program sample):\n" + tally


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
