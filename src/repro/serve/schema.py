"""Wire schemas for the serve daemon: job specs and canonical job keys.

A job submission is a small JSON document naming *what* to compute —
one of three kinds:

* ``run``      — one (workload, configuration) engine run;
* ``speedup``  — a configuration's speedup over serial for a workload;
* ``experiment`` — a full registry experiment (``fig3``, ``table2``,
  ...) with an optional workload selection.

:func:`parse_job` validates a raw payload into a normalized
:class:`JobSpec`: machines resolve through the machine registry,
workloads through the NAS suite and then the workload registry, both by
the one token lookup rule (name, spec-file path, or content
fingerprint; ``docs/MACHINES.md`` "Resolving a token"), and every
resolution lands on the *content* of the thing, not its spelling.
:func:`job_key` then hashes the normalized spec into the dedup key the
scheduler coalesces on — two semantically identical submissions
(parameter order, ``cg`` vs ``CG``, a machine named vs given as a path
vs given as its fingerprint) always produce the same key, and any
parameter that changes the simulation's result changes the key.

For ``run``/``speedup`` jobs the key is built from the study
fingerprint plus the exact run-cache key (:meth:`Study.run_key`), so a
job's dedup identity *is* its run-cache identity: a warm cache entry
answers the job without an engine run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.runcache import study_fingerprint
from repro.experiments import registry as experiment_registry
from repro.machine.configurations import CONFIGURATIONS
from repro.machine.registry import DEFAULT_MACHINE, resolve_machine
from repro.machine.spec import MachineSpec
from repro.npb.common import ProblemClass
from repro.npb.suite import UnknownBenchmarkError, resolve_benchmark
from repro.specfile import SpecError, UnknownSpecError

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "JobSpecError",
    "job_key",
    "parse_job",
]

JOB_KINDS = ("run", "speedup", "experiment")

#: Fields a submission may carry, per kind (everything optional except
#: the kind-specific requireds checked in :func:`parse_job`).
_COMMON_FIELDS = {"kind", "machine", "problem_class", "scheduler"}
_FIELDS_BY_KIND = {
    "run": _COMMON_FIELDS | {"workload", "config"},
    "speedup": _COMMON_FIELDS | {"workload", "config"},
    "experiment": _COMMON_FIELDS | {"experiment", "workloads"},
}


class JobSpecError(ValueError):
    """A malformed or unresolvable job submission (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalized job: everything content-resolved.

    ``machine`` keeps the resolved :class:`MachineSpec` (so the runner
    never re-resolves), ``workload`` the canonical run-key token the
    study layer uses (upper-cased NAS name, or ``name@fingerprint`` for
    registry workloads).
    """

    kind: str
    machine: MachineSpec
    problem_class: str = "B"
    scheduler: str = "linux_default"
    #: run/speedup: canonical workload token + configuration.
    workload: Optional[str] = None
    config: Optional[str] = None
    #: experiment: registry id + optional canonical workload selection.
    experiment: Optional[str] = None
    workloads: Tuple[str, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """The journal/wire form: JSON-serializable, resubmittable."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "machine": self.machine.name,
            "machine_fingerprint": self.machine.short_fingerprint,
            "problem_class": self.problem_class,
            "scheduler": self.scheduler,
        }
        if self.kind in ("run", "speedup"):
            out["workload"] = self.workload
            out["config"] = self.config
        else:
            out["experiment"] = self.experiment
            if self.workloads:
                out["workloads"] = list(self.workloads)
        return out


def _token(field_name: str, token: Any) -> str:
    """A submitted name, path or fingerprint, stripped."""
    if isinstance(token, Path):
        token = str(token)
    if not isinstance(token, str) or not token.strip():
        raise JobSpecError(f"{field_name}: expected a string, got {token!r}")
    return token.strip()


def _resolve_machine_token(token: Any) -> MachineSpec:
    """A machine by the registry's token lookup rule."""
    if token is None:
        token = DEFAULT_MACHINE
    elif not isinstance(token, MachineSpec):
        token = _token("machine", token)
    try:
        return resolve_machine(token)
    except (SpecError, UnknownSpecError) as exc:
        raise JobSpecError(f"machine: {exc}") from None


def _resolve_workload_token(token: Any, problem_class: str) -> str:
    """Canonical run-key token for a workload spelled any which way.

    NAS benchmarks canonicalize to their historical upper-case name
    (the study layer's run-cache spelling); registry workloads to
    ``name@short_fingerprint``.  A registry spec whose *name* is a NAS
    benchmark folds back onto the NAS token, so ``cg``, ``CG``, the CG
    spec's fingerprint, and a path to an equivalent spec file all
    collapse to one key.
    """
    token = _token("workload", token)
    try:
        return resolve_benchmark(token)
    except UnknownBenchmarkError:
        pass
    from repro.workload.registry import resolve_workload

    try:
        spec = resolve_workload(token, problem_class)
    except (SpecError, UnknownSpecError) as exc:
        raise JobSpecError(f"workload: {exc}") from None
    try:
        return resolve_benchmark(spec.name)
    except UnknownBenchmarkError:
        return f"{spec.name}@{spec.short_fingerprint}"


def parse_job(payload: Any) -> JobSpec:
    """Validate and normalize a raw submission into a :class:`JobSpec`.

    Raises :class:`JobSpecError` with a field-dotted message on any
    problem; never partially resolves.
    """
    if not isinstance(payload, dict):
        raise JobSpecError(f"job: expected an object, got {payload!r}")
    kind = payload.get("kind", "speedup")
    if kind not in JOB_KINDS:
        raise JobSpecError(
            f"kind: unknown job kind {kind!r}; "
            f"valid kinds: {', '.join(JOB_KINDS)}"
        )
    unknown = sorted(set(payload) - _FIELDS_BY_KIND[kind])
    if unknown:
        raise JobSpecError(
            f"job: unknown field(s) for kind {kind!r}: "
            f"{', '.join(unknown)}; "
            f"valid: {', '.join(sorted(_FIELDS_BY_KIND[kind]))}"
        )

    raw_class = payload.get("problem_class", "B")
    try:
        problem_class = ProblemClass.from_str(str(raw_class)).value
    except (KeyError, ValueError):
        raise JobSpecError(
            f"problem_class: unknown class {raw_class!r}; "
            f"valid choices: S, W, A, B, C"
        ) from None

    scheduler = payload.get("scheduler", "linux_default")
    if not isinstance(scheduler, str) or not scheduler:
        raise JobSpecError(
            f"scheduler: expected a policy name, got {scheduler!r}"
        )
    from repro.osmodel.scheduler import scheduler_names

    if scheduler not in scheduler_names():
        raise JobSpecError(
            f"scheduler: unknown policy {scheduler!r}; "
            f"valid choices: {', '.join(scheduler_names())}"
        )

    machine = _resolve_machine_token(payload.get("machine"))

    if kind in ("run", "speedup"):
        workload = payload.get("workload")
        if workload is None:
            raise JobSpecError(f"workload: required for kind {kind!r}")
        workload = _resolve_workload_token(workload, problem_class)
        config = payload.get("config", "serial" if kind == "run" else None)
        if config is None:
            raise JobSpecError("config: required for kind 'speedup'")
        if config not in CONFIGURATIONS:
            raise JobSpecError(
                f"config: unknown configuration {config!r}; "
                f"valid choices: {', '.join(sorted(CONFIGURATIONS))}"
            )
        return JobSpec(
            kind=kind, machine=machine, problem_class=problem_class,
            scheduler=scheduler, workload=workload, config=config,
        )

    experiment = payload.get("experiment")
    if experiment is None:
        raise JobSpecError("experiment: required for kind 'experiment'")
    if experiment not in experiment_registry.EXPERIMENTS:
        raise JobSpecError(
            f"experiment: unknown experiment {experiment!r}; "
            f"valid choices: "
            f"{', '.join(sorted(experiment_registry.EXPERIMENTS))}"
        )
    raw_workloads = payload.get("workloads") or []
    if not isinstance(raw_workloads, (list, tuple)):
        raise JobSpecError(
            f"workloads: expected a list, got {raw_workloads!r}"
        )
    workloads = tuple(
        sorted(
            _resolve_workload_token(w, problem_class) for w in raw_workloads
        )
    )
    return JobSpec(
        kind="experiment", machine=machine, problem_class=problem_class,
        scheduler=scheduler, experiment=experiment, workloads=workloads,
    )


#: Study fingerprints are content hashes over the *expanded* machine
#: parameters — not free on a hot submission path.  The machine spec's
#: own fingerprint already addresses that content, so memoize.
_STUDY_FP_MEMO: Dict[Tuple[str, str, str], str] = {}


def _study_fp(spec: JobSpec) -> str:
    memo_key = (spec.machine.fingerprint, spec.problem_class,
                spec.scheduler)
    fp = _STUDY_FP_MEMO.get(memo_key)
    if fp is None:
        fp = study_fingerprint(
            ProblemClass.from_str(spec.problem_class),
            spec.machine.to_params(), spec.scheduler, None,
        )
        _STUDY_FP_MEMO[memo_key] = fp
    return fp


def job_key(spec: JobSpec) -> str:
    """The content-addressed dedup key for a normalized job.

    ``run``/``speedup`` keys embed the study fingerprint (machine
    parameters + problem class + scheduler + OpenMP environment — the
    run cache's address space) and the exact run-cache key, so dedup
    identity and cache identity coincide.  Experiment keys embed the
    machine fingerprint and the canonical workload selection.
    """
    if spec.kind in ("run", "speedup"):
        fp = _study_fp(spec)
        parts: Tuple[str, ...] = (
            spec.kind, fp, "single", spec.workload or "", spec.config or "",
        )
    else:
        parts = (
            "experiment", spec.experiment or "", spec.machine.fingerprint,
            spec.problem_class, spec.scheduler, *spec.workloads,
        )
    digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    return digest[:24]
