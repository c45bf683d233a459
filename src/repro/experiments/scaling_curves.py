"""Extension: thread-count scalability curves.

The paper fixes the thread count to the visible contexts of each
configuration; this study sweeps OMP_NUM_THREADS from 1 to the full
context count on the two full-machine configurations (HT off 2-4-2 and
HT on 2-8-2), exposing each benchmark's scalability knee — where the
bus saturates (CG/MG/SP), where sync costs bite (LU), and where only
EP keeps climbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.configurations import get_config


@dataclass
class ScalingCurvesResult(ExperimentResult):
    """benchmark -> config -> [speedup at 1..N threads]."""

    curves: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    thread_counts: Dict[str, List[int]] = field(default_factory=dict)

    def knee(self, benchmark: str, config: str,
             threshold: float = 0.10) -> int:
        """Smallest thread count beyond which adding threads gains less
        than ``threshold`` fractional speedup."""
        curve = self.curves[benchmark][config]
        counts = self.thread_counts[config]
        for i in range(1, len(curve)):
            if curve[i] / curve[i - 1] - 1.0 < threshold:
                return counts[i - 1]
        return counts[-1]


def run(
    ctx: Union[RunContext, Study, None] = None,
    benchmarks: Optional[Sequence[str]] = None,
    configs: Sequence[str] = ("ht_off_4_2", "ht_on_8_2"),
    problem_class: Optional[str] = None,
) -> ScalingCurvesResult:
    """Sweep thread counts on the full-machine configurations."""
    ctx = as_context(ctx)
    study = ctx.study(problem_class=problem_class)
    benches = list(benchmarks or ctx.workload_names())
    result = ScalingCurvesResult()
    for cfg_name in configs:
        cfg = get_config(cfg_name)
        counts = [t for t in (1, 2, 4, 8) if t <= cfg.n_contexts]
        result.thread_counts[cfg_name] = counts
    for bench in benches:
        serial = study.serial_runtime(bench)
        result.curves[bench] = {
            cfg_name: [
                serial
                / study.run(bench, cfg_name, n_threads=t).runtime_seconds
                for t in result.thread_counts[cfg_name]
            ]
            for cfg_name in configs
        }
    return result


def report(result: ScalingCurvesResult) -> str:
    parts = []
    for cfg, counts in result.thread_counts.items():
        rows = []
        for bench in sorted(result.curves):
            rows.append(
                [bench]
                + result.curves[bench][cfg]
                + [result.knee(bench, cfg)]
            )
        parts.append(format_table(
            ["benchmark"] + [f"{t} thr" for t in counts] + ["knee"],
            rows,
            title=f"Scalability on {cfg} (speedup over serial)",
            float_fmt="%.2f",
        ))
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
