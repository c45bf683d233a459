"""Registry: the single dispatch point for every paper artifact.

Each entry binds a registry id to a lazily-imported driver module and
carries the metadata the pipeline plans with:

* ``tags`` — coarse labels (``paper``/``extension``/``methodology``,
  plus topical ones like ``sweep`` or ``speedup``) consumed by the CLI's
  ``--only``/``--skip`` selection;
* ``cost_estimate`` — rough serial cost in arbitrary units (≈ cold
  seconds on the reference machine), used to pack expensive experiments
  first when a wave fans out over the process pool;
* ``requires`` — declared inter-experiment data dependencies.  A
  dependency is *soft*: the downstream driver consumes the upstream
  result from ``ctx.results`` when present (e.g. ``table2`` reuses
  ``fig3``'s speedup table) and recomputes it — through the shared run
  cache — when running standalone.

Driver modules follow the :class:`Experiment` protocol: ``run(ctx)``
returning an :class:`~repro.analysis.result.ExperimentResult` dataclass
and ``report(result)`` rendering the paper's text artifact.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    TYPE_CHECKING,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # the run context imports the simulator
    from repro.core.context import RunContext

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentEntry",
    "all_tags",
    "execution_waves",
    "get",
    "run_experiment",
    "select",
]


@runtime_checkable
class Experiment(Protocol):
    """The structural contract every driver module satisfies."""

    def run(self, ctx: Optional[RunContext] = None) -> Any:
        """Compute the artifact, reading configuration from ``ctx``."""

    def report(self, result: Any) -> str:
        """Render the computed artifact as the paper-style text."""


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible artifact of the paper."""

    id: str
    paper_artifact: str
    description: str
    module: str
    tags: Tuple[str, ...] = ()
    cost_estimate: float = 0.1
    requires: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def load(self) -> ModuleType:
        """Import the driver module (lazily, on first use)."""
        return importlib.import_module(self.module)

    def run(self, ctx: Optional[RunContext] = None) -> Any:
        """Run the driver through the uniform ``run(ctx)`` entry point."""
        from repro.core.context import as_context

        return self.load().run(as_context(ctx))

    def render_text(self, result: Any) -> str:
        """The driver's paper-style text artifact."""
        return self.load().report(result)

    def json_payload(self, result: Any) -> Dict[str, Any]:
        """The ``<id>.json`` artifact: registry metadata + result."""
        from repro.analysis.export import result_to_dict

        return {
            "experiment": self.id,
            "paper_artifact": self.paper_artifact,
            "description": self.description,
            "tags": sorted(self.tags),
            "requires": list(self.requires),
            "result": result_to_dict(result),
        }

    def load_result(self, payload: Dict[str, Any]) -> Any:
        """Rehydrate a result object from a ``<id>.json`` payload.

        Drivers opt in by exposing ``load_result(result_dict)``; the
        resumable pipeline uses this to feed an already-completed
        upstream result to its re-running dependents.  Returns ``None``
        when the driver has no rehydrator (dependents then recompute
        through the run cache — correct, just slower).
        """
        hook = getattr(self.load(), "load_result", None)
        if hook is None:
            return None
        return hook(payload.get("result", {}))


_ENTRIES: List[ExperimentEntry] = [
    ExperimentEntry(
        id="sec3-lmbench",
        paper_artifact="Section 3 text table",
        description="LMbench latency/bandwidth platform characterization",
        module="repro.experiments.sec3_lmbench",
        tags=("paper", "platform"),
        cost_estimate=0.1,
    ),
    ExperimentEntry(
        id="fig2",
        paper_artifact="Figure 2",
        description="Single-program counter panels (9 metrics x 6 apps)",
        module="repro.experiments.fig2_single_program",
        tags=("paper", "counters"),
        cost_estimate=0.3,
    ),
    ExperimentEntry(
        id="fig3",
        paper_artifact="Figure 3",
        description="Per-application speedup over serial",
        module="repro.experiments.fig3_speedup",
        tags=("paper", "speedup"),
        cost_estimate=0.2,
    ),
    ExperimentEntry(
        id="table2",
        paper_artifact="Table 2",
        description="Average speedup per architecture",
        module="repro.experiments.table2_avg_speedup",
        tags=("paper", "speedup"),
        cost_estimate=0.1,
        requires=("fig3",),
    ),
    ExperimentEntry(
        id="fig4",
        paper_artifact="Figure 4",
        description="Multiprogram CG/FT, FT/FT, CG/CG study",
        module="repro.experiments.fig4_multiprogram",
        tags=("paper", "multiprogram", "counters"),
        cost_estimate=0.4,
    ),
    ExperimentEntry(
        id="fig5",
        paper_artifact="Figure 5",
        description="Cross-product pairs box-and-whisker",
        module="repro.experiments.fig5_crossproduct",
        tags=("paper", "multiprogram", "sweep"),
        cost_estimate=1.2,
    ),
    ExperimentEntry(
        id="ablations",
        paper_artifact="(extensions)",
        description="Scheduler policies + prefetcher/bus/trace-cache sweeps",
        module="repro.experiments.ablations",
        tags=("extension", "sweep"),
        cost_estimate=0.6,
    ),
    ExperimentEntry(
        id="validation",
        paper_artifact="(methodology)",
        description="Analytic vs structural cache-model cross-validation",
        module="repro.experiments.validation",
        tags=("methodology",),
        cost_estimate=0.8,
    ),
    ExperimentEntry(
        id="omp-overheads",
        paper_artifact="(extensions)",
        description="EPCC-style OpenMP construct overheads per configuration",
        module="repro.experiments.omp_overheads",
        tags=("extension", "platform"),
        cost_estimate=0.1,
    ),
    ExperimentEntry(
        id="tuning",
        paper_artifact="(future work)",
        description="Self-tuning loop schedules + feedback placement tuner",
        module="repro.experiments.tuning_study",
        tags=("extension", "tuning"),
        cost_estimate=0.4,
    ),
    ExperimentEntry(
        id="efficiency",
        paper_artifact="(conclusions)",
        description="Speedup per resource + co-run degradation matrix",
        module="repro.experiments.efficiency_study",
        tags=("extension", "speedup"),
        cost_estimate=0.3,
    ),
    ExperimentEntry(
        id="class-scaling",
        paper_artifact="(extensions)",
        description="Headline comparisons across problem classes W/A/B/C",
        module="repro.experiments.class_scaling",
        tags=("extension", "sweep"),
        cost_estimate=1.0,
    ),
    ExperimentEntry(
        id="energy",
        paper_artifact="(introduction)",
        description="Energy/EDP ranking of the Table-1 architectures",
        module="repro.experiments.energy_study",
        tags=("extension", "power"),
        cost_estimate=0.2,
    ),
    ExperimentEntry(
        id="sensitivity",
        paper_artifact="(methodology)",
        description="Robustness of the headline findings to calibration",
        module="repro.experiments.sensitivity_study",
        tags=("methodology", "sweep"),
        cost_estimate=1.5,
    ),
    ExperimentEntry(
        id="scaling-curves",
        paper_artifact="(extensions)",
        description="Thread-count scalability curves on the full machine",
        module="repro.experiments.scaling_curves",
        tags=("extension", "speedup"),
        cost_estimate=0.3,
    ),
    ExperimentEntry(
        id="groups",
        paper_artifact="Section 4 methodology",
        description="Within-group comparisons isolating each HT factor",
        module="repro.experiments.group_analysis",
        tags=("paper", "methodology"),
        cost_estimate=0.2,
    ),
    ExperimentEntry(
        id="nextgen",
        paper_artifact="(what-if)",
        description="Private vs chip-shared L2 (Woodcrest-style) findings",
        module="repro.experiments.nextgen",
        tags=("extension", "whatif"),
        cost_estimate=0.5,
    ),
]

EXPERIMENTS: Dict[str, ExperimentEntry] = {e.id: e for e in _ENTRIES}


def get(experiment_id: str) -> ExperimentEntry:
    """Look up an experiment by id (raises ``KeyError``)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        ) from None


def all_tags() -> List[str]:
    """Every tag any entry declares, sorted."""
    return sorted({t for e in _ENTRIES for t in e.tags})


def select(
    only: Optional[Iterable[str]] = None,
    skip: Optional[Iterable[str]] = None,
) -> List[ExperimentEntry]:
    """Filter entries by id-or-tag tokens, preserving registry order.

    ``only`` keeps entries matching any token; ``skip`` then removes
    matches.  Unknown tokens raise ``KeyError`` listing the valid ones.
    """
    def matches(entry: ExperimentEntry, tokens: List[str]) -> bool:
        return any(t == entry.id or t in entry.tags for t in tokens)

    valid = set(EXPERIMENTS) | {t for e in _ENTRIES for t in e.tags}
    only = list(only or [])
    skip = list(skip or [])
    for token in (*only, *skip):
        if token not in valid:
            raise KeyError(
                f"unknown experiment id or tag {token!r}; "
                f"valid ids: {sorted(EXPERIMENTS)}; "
                f"valid tags: {all_tags()}"
            )
    entries = [e for e in _ENTRIES if not only or matches(e, only)]
    return [e for e in entries if not matches(e, skip)]


def execution_waves(
    entries: Optional[Sequence[ExperimentEntry]] = None,
) -> List[List[ExperimentEntry]]:
    """Topological waves over the declared dependencies.

    Wave *n* holds every entry whose (selected) dependencies completed
    in earlier waves; entries within one wave are independent, so the
    pipeline may fan them out concurrently.  Dependencies outside the
    selection are ignored — they are data-reuse hints, not hard
    prerequisites.  Within a wave, entries are ordered most-expensive
    first so pool workers pack well.
    """
    pool = list(_ENTRIES if entries is None else entries)
    selected = {e.id for e in pool}
    done: set = set()
    waves: List[List[ExperimentEntry]] = []
    while pool:
        ready = [
            e for e in pool
            if all(dep in done or dep not in selected for dep in e.requires)
        ]
        if not ready:  # pragma: no cover - needs a dependency cycle
            raise ValueError(
                f"dependency cycle among: {sorted(e.id for e in pool)}"
            )
        ready.sort(key=lambda e: -e.cost_estimate)
        waves.append(ready)
        done.update(e.id for e in ready)
        pool = [e for e in pool if e.id not in done]
    return waves


def run_experiment(
    experiment_id: str, ctx: Optional[RunContext] = None
) -> Any:
    """Import and run an experiment's driver, returning its result."""
    return get(experiment_id).run(ctx)
