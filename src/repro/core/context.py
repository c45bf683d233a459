"""The :class:`RunContext`: one configuration object for a whole campaign.

Before this module existed every experiment driver hand-rolled its own
``Study("B")`` and read parallelism/cache settings from process-wide
globals.  A :class:`RunContext` replaces those ad-hoc conventions with a
single value threaded through every driver:

* the study configuration (problem class, machine-parameter overrides,
  scheduler policy, OpenMP environment) with a **memoized study pool** —
  any two ``ctx.study(...)`` calls with the same effective configuration
  return the *same* :class:`~repro.core.study.Study` instance, so
  workload models and run-cache fingerprints are shared across drivers;
* the sweep parallelism (``jobs``) consumed by the fan-out experiments;
* the run-cache configuration (enabled flag + disk tier directory);
* an optional ``seed`` for the sampling-based structural validation;
* ``results`` — experiment results already computed upstream, keyed by
  registry id, so dependent experiments (and the CSV exporter) consume
  data instead of re-running it.

**The active context.**  The runtime switches a context carries —
batch mode, verification, the fault plan, the budget and the default
job count — are read wherever the work runs through :func:`current`,
one :class:`contextvars.ContextVar`.  ``with ctx.active():`` makes a
context current for a block; each reader falls back to its environment
variable (``REPRO_BATCH``, ``REPRO_VERIFY``, ``REPRO_FAULTS``,
``REPRO_JOBS``) when no context is active or the field is ``None``.
Per-task state lives on the active context too, in fields no caller
sets: the task id, its deadline and cancel token (:meth:`for_task`),
the run-key recorder of :func:`repro.sim.batch.record_run_keys` and the
task's :class:`~repro.sim.batch.BatchStats`.  Because a ContextVar is
per thread (and per :class:`contextvars.Context`), two jobs on two
``repro serve`` worker threads never see each other's state; pool
workers receive the caller's context pickled and activate it in
:func:`repro.sim.parallel.parallel_map`'s worker initializer.
:func:`override` is the test and benchmark form: a copy of the current
context with some fields replaced, active for a block.

Experiment drivers accept a context as their first argument; the
:func:`as_context` coercion keeps older call sites working by wrapping a
bare :class:`~repro.core.study.Study` (or ``None``) on the fly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Set, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.batch import BatchStats
    from repro.supervise.budget import Budget

from repro.core.runcache import configure, study_fingerprint
from repro.core.study import Study
from repro.testing.faults import FaultPlan
from repro.machine.params import MachineParams
from repro.machine.registry import DEFAULT_MACHINE, resolve_machine
from repro.machine.spec import MachineSpec
from repro.npb.common import ProblemClass
from repro.openmp.env import OMPEnvironment
from repro.supervise.cancel import CancelToken

__all__ = ["RunContext", "as_context", "current", "install", "override"]

#: Sentinel distinguishing "inherit from the context" from an explicit
#: ``None`` (= platform default) override.
_INHERIT = object()


def _fresh_batch_stats() -> "BatchStats":
    # Imported on first use: the batched engine is not needed to list
    # experiments, and importing it would slow every CLI start.
    from repro.sim.batch import BatchStats

    return BatchStats()


@dataclass
class RunContext:
    """Shared state for one experiment campaign.

    All fields are optional; the zero-argument form reproduces the
    defaults every driver previously hard-coded (class B, stock
    Paxville, Linux-default scheduler, serial sweeps, cache on).
    """

    problem_class: Union[str, ProblemClass] = "B"
    params: Optional[MachineParams] = None
    #: Machine to simulate: a registry name (``"paxville"``), a spec
    #: file path, or a :class:`~repro.machine.spec.MachineSpec`.
    #: Mutually exclusive with ``params`` (which predates the spec
    #: layer and wins only by never being set together).
    machine: Union[None, str, Path, MachineSpec] = None
    scheduler: str = "linux_default"
    omp: Optional[OMPEnvironment] = None
    #: Worker processes for the sweep experiments (None = global default).
    jobs: Optional[int] = None
    #: RNG seed for sampling-based drivers (None = module defaults).
    seed: Optional[int] = None
    #: Run-cache switches, applied via :meth:`apply_cache_config`.
    cache_enabled: bool = True
    cache_dir: Optional[Path] = None
    #: Fault-injection plan for robustness drills (``None`` defers to
    #: ``REPRO_FAULTS``).
    faults: Optional[FaultPlan] = None
    #: Runtime verification switch for the invariant auditor
    #: (:mod:`repro.verify`).  ``None`` defers to the ``REPRO_VERIFY``
    #: environment variable and the audit-under-pytest default; an
    #: explicit ``True``/``False`` wins.
    verify: Optional[bool] = None
    #: Machine-axis batching for sweep experiments
    #: (:mod:`repro.sim.batch`): ``"auto"`` batches whenever a sweep has
    #: two or more machine lanes and nothing forces scalar runs,
    #: ``"on"`` forces the batched engine even for single lanes,
    #: ``"off"`` disables it.  ``None`` defers to the ``REPRO_BATCH``
    #: environment variable (default ``auto``).
    batch: Optional[str] = None
    #: Wall-time budget (:class:`~repro.supervise.budget.Budget`) for
    #: the campaign and/or each experiment.  Armed budgets use absolute
    #: monotonic deadlines, which pool workers on the same host compare
    #: against the same clock.
    budget: Optional["Budget"] = None
    #: Workloads the benchmark-matrix experiments sweep (names, spec
    #: file paths, or :class:`~repro.workload.spec.WorkloadSpec`
    #: instances for the workload registry).  ``None`` means the
    #: paper's six NAS class-B benchmarks, exactly as before.
    workloads: Optional[Sequence[Union[str, Path]]] = None
    #: Upstream experiment results, keyed by registry id.
    results: Dict[str, Any] = field(default_factory=dict)

    #: Memoized studies keyed by content fingerprint.
    _studies: Dict[str, Study] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Fingerprints of studies accessed since the last reset (the
    #: pipeline uses this to attribute studies to experiments).
    _touched: Set[str] = field(default_factory=set, init=False, repr=False)

    #: Per-task state (see :meth:`for_task`); never set by callers.
    #: ``task_id`` names the task in deadline messages.
    task_id: Optional[str] = field(default=None, init=False, repr=False)
    task_timeout_s: Optional[float] = field(
        default=None, init=False, repr=False
    )
    #: Absolute monotonic deadline of the running task.
    deadline: Optional[float] = field(default=None, init=False, repr=False)
    #: The task's own cancel token (the process token always applies).
    token: Optional[CancelToken] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Called with every ``Study`` run key requested while active.
    run_key_recorder: Optional[Callable[[Tuple[str, ...]], None]] = field(
        default=None, init=False, repr=False, compare=False
    )
    batch_stats: "BatchStats" = field(
        default_factory=_fresh_batch_stats, init=False, repr=False,
        compare=False,
    )

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.batch is not None:
            from repro.sim.batch import BATCH_MODES

            if self.batch not in BATCH_MODES:
                raise ValueError(
                    f"batch mode must be one of {BATCH_MODES}, "
                    f"got {self.batch!r}"
                )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.machine is not None:
            spec = resolve_machine(self.machine)
            if self.params is not None and self.params != spec.to_params():
                raise ValueError(
                    "give either machine= or params=, not both "
                    f"(machine {spec.name!r} disagrees with params)"
                )
            self.machine = spec
            self.params = spec.to_params()

    # ------------------------------------------------------------------
    @classmethod
    def for_study(cls, study: Study) -> "RunContext":
        """A context whose default study *is* the given instance."""
        ctx = cls(
            problem_class=study.problem_class,
            params=study.params,
            scheduler=study.scheduler_name,
            omp=study.omp,
        )
        ctx._studies[study.fingerprint] = study
        return ctx

    # ------------------------------------------------------------------
    def study(
        self,
        problem_class: Union[str, ProblemClass, None] = None,
        params: Any = _INHERIT,
        scheduler: Optional[str] = None,
        omp: Any = _INHERIT,
    ) -> Study:
        """The memoized study for this configuration (+ overrides).

        With no arguments this is *the* shared study of the campaign;
        overrides produce (and memoize) variants — e.g. the ablation
        drivers' perturbed machines or per-class studies.
        """
        pc = self.problem_class if problem_class is None else problem_class
        if not isinstance(pc, ProblemClass):
            pc = ProblemClass.from_str(pc)
        p = self.params if params is _INHERIT else params
        sched = self.scheduler if scheduler is None else scheduler
        o = self.omp if omp is _INHERIT else omp

        fp = study_fingerprint(pc, p, sched, o)
        st = self._studies.get(fp)
        if st is None:
            st = Study(pc, params=p, scheduler=sched, omp=o)
            self._studies[fp] = st
        self._touched.add(fp)
        return st

    def workload_names(self) -> List[str]:
        """The benchmark tokens the matrix experiments should sweep.

        Defaults to the paper's six NAS class-B benchmarks; a context
        with ``workloads`` set returns those tokens instead (validated
        against the registry, so a typo fails here with a did-you-mean
        suggestion rather than deep inside a driver).
        """
        if self.workloads is None:
            return Study.paper_benchmarks()
        from repro.workload.registry import resolve_workload

        out: List[str] = []
        for token in self.workloads:
            resolve_workload(token, self.problem_class)  # validates
            # Keep the token spelling (a name or a path-like string):
            # studies resolve both, so a spec file outside the registry
            # directory stays reachable by the drivers.
            out.append(str(token))
        return out

    def machine_params(self) -> MachineParams:
        """The context's machine parameters (stock Paxville when unset)."""
        return self.machine_spec().to_params()

    def machine_spec(self) -> MachineSpec:
        """The machine being simulated, as a spec.

        Experiments derive their variants from this (via
        :meth:`~repro.machine.spec.MachineSpec.override`) instead of
        hand-editing parameter dataclasses, so a campaign pointed at a
        different ``--machine`` perturbs *that* machine.
        """
        if isinstance(self.machine, MachineSpec):
            return self.machine
        if self.params is not None:
            return MachineSpec.from_params("custom", self.params)
        return resolve_machine(DEFAULT_MACHINE)

    # ------------------------------------------------------------------
    def dependency(self, experiment_id: str) -> Any:
        """An upstream experiment's result, or a clean error."""
        try:
            return self.results[experiment_id]
        except KeyError:
            raise KeyError(
                f"experiment result {experiment_id!r} not in context; "
                f"available: {sorted(self.results)}"
            ) from None

    # ------------------------------------------------------------------
    def apply_cache_config(self) -> None:
        """Push the context's cache switches to the process-wide cache."""
        if not self.cache_enabled:
            configure(enabled=False)
        elif self.cache_dir is not None:
            configure(disk_dir=self.cache_dir, enabled=True)
        else:
            configure(enabled=True)

    @contextlib.contextmanager
    def active(self) -> Iterator["RunContext"]:
        """Make this the :func:`current` context for the block."""
        reset_token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(reset_token)

    def derive(self, **changes: Any) -> "RunContext":
        """A copy with ``changes`` applied.

        Per-task state carries over unless ``changes`` names it, so a
        block nested in a task (a run-key recording, a test override)
        still counts into the task's batch stats and keeps its
        deadline.  The study pool starts empty.
        """
        state = {
            name: changes.pop(name, getattr(self, name))
            for name in _TASK_STATE
        }
        ctx = dataclasses.replace(self, **changes)
        ctx.__dict__.update(state)
        return ctx

    def for_task(
        self,
        task_id: str,
        token: Optional[CancelToken] = None,
        timeout_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> "RunContext":
        """This context narrowed to one task, with fresh batch stats.

        The deadline is ``timeout_s`` from ``now`` when given, else the
        armed budget's per-experiment deadline (none when unbudgeted).
        """
        now = time.monotonic() if now is None else now
        deadline = None
        if timeout_s is not None:
            deadline = now + timeout_s
        elif self.budget is not None and self.budget.armed:
            deadline = self.budget.experiment_deadline(now)
            timeout_s = (self.budget.experiment_timeout_s
                         or self.budget.run_timeout_s)
        return self.derive(
            task_id=task_id, task_timeout_s=timeout_s, deadline=deadline,
            token=token, run_key_recorder=None,
            batch_stats=_fresh_batch_stats(),
        )

    def __getstate__(self) -> Dict[str, Any]:
        # The token and recorder belong to this process; a pool worker
        # keeps the deadline, which is on the host's monotonic clock.
        state = dict(self.__dict__)
        state["token"] = state["run_key_recorder"] = None
        return state

    # ------------------------------------------------------------------
    @property
    def fingerprints(self) -> List[str]:
        """Fingerprints of every study this context has built."""
        return sorted(self._studies)

    def touched_fingerprints(self, reset: bool = False) -> List[str]:
        """Fingerprints of studies accessed since the last reset."""
        out = sorted(self._touched)
        if reset:
            self._touched.clear()
        return out

    # ------------------------------------------------------------------
    def spawn(
        self,
        jobs: Any = _INHERIT,
        results: Optional[Dict[str, Any]] = None,
    ) -> "RunContext":
        """A copy for a worker process: same configuration, optionally
        different parallelism and a trimmed ``results`` payload.

        The study pool is carried over (shallow copy) so workers inherit
        the parent's workload models instead of rebuilding them.
        """
        ctx = dataclasses.replace(
            self,
            jobs=self.jobs if jobs is _INHERIT else jobs,
            results=dict(self.results if results is None else results),
        )
        ctx._studies = dict(self._studies)
        return ctx


#: Per-task fields :meth:`RunContext.derive` carries over.
_TASK_STATE = (
    "task_id", "task_timeout_s", "deadline", "token", "run_key_recorder",
    "batch_stats",
)

_ACTIVE: ContextVar[Optional[RunContext]] = ContextVar(
    "repro_run_context", default=None
)


def current() -> Optional[RunContext]:
    """The active context of this thread or task, if any."""
    return _ACTIVE.get()


def install(ctx: Optional[RunContext]) -> None:
    """Make ``ctx`` active for the rest of this thread — the form of
    :meth:`RunContext.active` a pool worker's initializer needs."""
    _ACTIVE.set(ctx)


@contextlib.contextmanager
def override(**fields: Any) -> Iterator[RunContext]:
    """Activate the current context (a default one when none is active)
    with ``fields`` replaced, for the block — tests and benchmarks."""
    with (current() or RunContext()).derive(**fields).active() as ctx:
        yield ctx


def as_context(obj: Union[None, RunContext, Study] = None) -> RunContext:
    """Coerce an experiment driver's first argument to a context.

    ``None`` becomes a fresh default context; a bare
    :class:`~repro.core.study.Study` (the pre-context calling
    convention, still used by tests and benchmarks) is wrapped via
    :meth:`RunContext.for_study`.
    """
    if obj is None:
        return RunContext()
    if isinstance(obj, RunContext):
        return obj
    if isinstance(obj, Study):
        return RunContext.for_study(obj)
    raise TypeError(
        f"expected RunContext, Study or None, got {type(obj).__name__}"
    )
