"""The named workload registry: specs under ``workloads/`` plus built-ins.

A registered workload is one of the code-defined producers (the eight
NAS benchmarks plus the :mod:`repro.workload.families` kernels, always
available) or a spec file in the workloads directory
(``REPRO_WORKLOADS_DIR``, default ``workloads/`` at the repository
root).  A file whose ``name`` matches a built-in shadows it, and the
listing reports the file as its provenance.  ``--workload`` tokens
follow the one lookup rule of ``docs/MACHINES.md`` "Resolving a token";
workload names are case-insensitive (``cg`` finds ``CG``).

Registrations are *problem-class parameterized*: built-ins are produced
at the requested class, and file specs (which pin their own class) are
listed unchanged.  A file spec may inherit from any registered name via
``base`` — including a built-in producer, which is resolved at the
listing's class.  This module holds only those two workload-specific
steps; the directory, the cache, the raw file pass and the lookup are
:class:`repro.specfile.SpecRegistry`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.npb.common import ProblemClass
from repro.specfile import (
    RawSpecs,
    SpecRegistry,
    UnknownSpecError,
    in_file,
    spec_path,
)
from repro.trace.phase import Workload
from repro.workload.spec import (
    WorkloadSpec,
    WorkloadSpecError,
    load_workload_spec,
)

__all__ = [
    "WORKLOADS_DIR_ENV",
    "UnknownWorkloadError",
    "build_workload",
    "builtin_producers",
    "list_workloads",
    "resolve_workload",
    "workloads_dir",
]

WORKLOADS_DIR_ENV = "REPRO_WORKLOADS_DIR"


class UnknownWorkloadError(UnknownSpecError):
    """An unregistered workload name (the CLI maps this to exit 2)."""

    kind = "workload"


_REGISTRY = SpecRegistry(
    WORKLOADS_DIR_ENV, "workloads", WorkloadSpecError, UnknownWorkloadError,
    fold_case=True,
)


def builtin_producers() -> Dict[str, Callable[[ProblemClass], WorkloadSpec]]:
    """Code-defined producers, available without any spec files on disk."""
    # Imported lazily: the NAS modules themselves use the spec layer, so
    # a module-level import here would be circular.
    from repro.npb import suite
    from repro.workload.families import minigmg, rzbench

    out: Dict[str, Callable[[ProblemClass], WorkloadSpec]] = {}
    for bench in suite.ALL_BENCHMARKS:
        out[bench] = _NasProducer(bench)
    out[minigmg.NAME] = minigmg.spec
    out["triad"] = rzbench.triad_spec
    out["strided-load"] = rzbench.strided_load_spec
    return out


class _NasProducer:
    """Picklable producer closure for one NAS benchmark."""

    def __init__(self, bench: str):
        self.bench = bench

    def __call__(self, problem_class: ProblemClass) -> WorkloadSpec:
        from repro.npb import suite

        return suite.benchmark_spec(self.bench, problem_class)


def workloads_dir() -> Optional[Path]:
    """The spec-file directory (``REPRO_WORKLOADS_DIR``, default
    ``workloads/`` at the repository root), or ``None`` when absent."""
    return _REGISTRY.directory()


def _resolve_class(
    problem_class: Union[ProblemClass, str]
) -> ProblemClass:
    if isinstance(problem_class, ProblemClass):
        return problem_class
    return ProblemClass.from_str(problem_class)


def list_workloads(
    problem_class: Union[ProblemClass, str] = ProblemClass.B,
) -> Dict[str, WorkloadSpec]:
    """Every registered workload at ``problem_class``, keyed by name.

    File-backed specs (with ``source`` set to their path) shadow
    same-named built-ins; two *files* claiming one name is an error.
    """
    pc = _resolve_class(problem_class)
    return _REGISTRY.listing(pc, lambda raws: _build_listing(raws, pc))


def _build_listing(raws: RawSpecs, pc: ProblemClass) -> Dict[str, WorkloadSpec]:
    """Built-ins at ``pc``, then every file; ``base`` may name any of them."""
    out = {
        name: producer(pc)
        for name, producer in builtin_producers().items()
    }
    built: Dict[str, WorkloadSpec] = {}
    building: list = []

    def resolve(name: str) -> WorkloadSpec:
        if name in built:
            return built[name]
        if name in raws:
            if name in building:
                cycle = " -> ".join(building + [name])
                raise WorkloadSpecError(
                    f"base inheritance cycle: {cycle}", ("base",)
                )
            path, data = raws[name]
            building.append(name)
            try:
                with in_file(path, WorkloadSpecError):
                    built[name] = WorkloadSpec.from_dict(
                        data, source=path, resolve=resolve
                    )
            finally:
                building.pop()
            return built[name]
        if name in out:
            return out[name]
        raise WorkloadSpecError(
            f"unknown base workload {name!r} "
            f"(registered: {sorted(set(out) | set(raws))})",
            ("base",),
        )

    for name in raws:
        out[name] = resolve(name)
    return out


def resolve_workload(
    token: Union[str, Path, WorkloadSpec],
    problem_class: Union[ProblemClass, str] = ProblemClass.B,
) -> WorkloadSpec:
    """Resolve a ``--workload`` token to a validated spec.

    The token lookup rule (``docs/MACHINES.md``): a spec instance is
    returned as-is, a path loads that file (its ``base`` resolves at
    ``problem_class``), anything else is a registered name
    (case-insensitive where unambiguous, so ``cg`` finds ``CG``) or a
    full or short fingerprint.
    """
    if isinstance(token, WorkloadSpec):
        return token
    pc = _resolve_class(problem_class)
    path = spec_path(token)
    if path is not None:
        return load_workload_spec(
            path, resolve=lambda name: resolve_workload(name, pc)
        )
    return _REGISTRY.lookup(token, list_workloads(pc))


def build_workload(
    token: Union[str, Path, WorkloadSpec],
    problem_class: Union[ProblemClass, str] = ProblemClass.B,
) -> Workload:
    """Build any registered workload (NAS or otherwise) by token."""
    return resolve_workload(token, problem_class).build()
