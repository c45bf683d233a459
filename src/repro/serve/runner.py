"""Executing a normalized job spec against the engine stack.

The runner is the scheduler's only dependency on the simulation layers
— tests replace it with counting stubs.  It is deliberately *pure*
with respect to the scheduler: ``__call__(spec)`` computes and returns
a JSON-serializable result payload, :meth:`probe` answers a job from
the content-addressed run cache without ever simulating (the warm fast
path that keeps cached submissions out of the worker pool entirely).

Studies are memoized per (machine, problem class, scheduler) so
concurrent jobs against the same configuration share workload models
and the run cache's memory tier.  Cooperative supervision (the per-job
token and deadline the scheduler installs via
:func:`repro.supervise.scope`) reaches the engine through its
:class:`~repro.supervise.observer.SupervisionObserver` — the runner
itself only adds a checkpoint between the runs of a multi-run job.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro import supervise
from repro.core.study import Study
from repro.serve.schema import JobSpec
from repro.sim.results import RunResult

__all__ = ["JobRunner", "MEMORY_TIER_RUNS"]

#: Runs the daemon keeps in the run cache's memory tier (least recently
#: used evicted; ~3.4 KiB each).  Repeat submissions are answered from
#: retained jobs first, so the tier only shares runs across job keys
#: and within experiment jobs; bounding it keeps resident memory flat
#: however many distinct jobs the daemon serves.
MEMORY_TIER_RUNS = 256


def _run_summary(spec: JobSpec, result: RunResult) -> Dict[str, Any]:
    return {
        "kind": "run",
        "workload": spec.workload,
        "config": spec.config,
        "runtime_seconds": result.runtime_seconds,
    }


class JobRunner:
    """Maps job kinds onto the study / experiment-registry layers.

    ``jobs`` is the process parallelism granted to *one* experiment-kind
    job's internal sweeps (via the existing
    :func:`repro.sim.parallel.parallel_map` fan-out); run/speedup jobs
    are single engine runs and ignore it.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._studies: Dict[Tuple[str, str, str], Study] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _study(self, spec: JobSpec) -> Study:
        key = (spec.machine.fingerprint, spec.problem_class, spec.scheduler)
        with self._lock:
            study = self._studies.get(key)
            if study is None:
                study = Study(
                    spec.problem_class,
                    params=spec.machine.to_params(),
                    scheduler=spec.scheduler,
                )
                self._studies[key] = study
            return study

    # ------------------------------------------------------------------
    def probe(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """The job's result if the run cache already holds it, else None.

        Never simulates: a hit here is the scheduler's license to
        answer a submission without queueing it.  Experiment jobs are
        never probe-answerable — their engine runs are cached but the
        driver's aggregation is not.
        """
        if spec.kind == "run":
            result = self._study(spec).cached_result(
                spec.workload, spec.config
            )
            return None if result is None else _run_summary(spec, result)
        if spec.kind == "speedup":
            study = self._study(spec)
            serial = study.cached_result(spec.workload, "serial")
            timed = study.cached_result(spec.workload, spec.config)
            if serial is None or timed is None:
                return None
            return self._speedup_summary(spec, serial, timed)
        return None

    @staticmethod
    def _speedup_summary(
        spec: JobSpec, serial: RunResult, timed: RunResult
    ) -> Dict[str, Any]:
        return {
            "kind": "speedup",
            "workload": spec.workload,
            "config": spec.config,
            "speedup": serial.runtime_seconds / timed.runtime_seconds,
            "serial_runtime_s": serial.runtime_seconds,
            "runtime_s": timed.runtime_seconds,
        }

    # ------------------------------------------------------------------
    def __call__(self, spec: JobSpec) -> Dict[str, Any]:
        """Execute the job and return its JSON-serializable result."""
        if spec.kind == "run":
            study = self._study(spec)
            return _run_summary(
                spec, study.run(spec.workload, spec.config)
            )
        if spec.kind == "speedup":
            study = self._study(spec)
            serial = study.run(spec.workload, "serial")
            supervise.check("between runs")
            timed = study.run(spec.workload, spec.config)
            return self._speedup_summary(spec, serial, timed)
        return self._run_experiment(spec)

    def _run_experiment(self, spec: JobSpec) -> Dict[str, Any]:
        from repro.core.context import RunContext
        from repro.experiments import registry

        # Workload tokens carry their content fingerprint for the dedup
        # key; the context wants registry-resolvable names.
        names = [t.rpartition("@")[0] or t for t in spec.workloads]
        ctx = RunContext(
            problem_class=spec.problem_class,
            machine=spec.machine,
            scheduler=spec.scheduler,
            workloads=names or None,
            jobs=self.jobs,
        )
        entry = registry.get(spec.experiment or "")
        result = entry.run(ctx)
        supervise.check("experiment complete")
        return entry.json_payload(result)
