"""Declarative workload descriptions: the :class:`WorkloadSpec` layer.

PR 7 made the *machine* half of the simulation declarative; this module
does the same for the workload half.  A :class:`WorkloadSpec` is a
schema-validated, JSON/TOML-loadable, content-fingerprinted description
of a benchmark's phase composition — per-phase work volumes, memory
access mixtures (working-set sizes, strides, reuse windows), branch
behaviour, and the OpenMP construct of each phase — which builds the
:class:`~repro.trace.phase.Workload` the engine consumes.

The schema serializes every :class:`~repro.trace.phase.Phase` field.
Two spellings differ from the dataclasses on purpose:

* ``openmp`` replaces the ``parallel`` bool — a phase is either an
  OpenMP ``"parallel"`` region or ``"serial"`` master-only code, and the
  spec file says which construct it is;
* each ``access_mix`` entry is a ``{"kind": ..., "weight": ...}`` table
  whose remaining keys are the fields of the named pattern class
  (``streaming``, ``random``, ``pointer_chase``, ``stencil``).

Derived workloads use *sparse inheritance*: a spec with a ``base`` key
starts from the named base spec's canonical form, then applies a
``scale`` factor and/or per-phase field overrides.  Inheritance is
flattened at load time — :meth:`WorkloadSpec.to_dict` always emits the
complete, self-contained form, so fingerprints never depend on how a
workload was spelled.

This module holds only the workload schema.  Reading the file, the
:class:`~repro.specfile.SpecError` base, leaf type checks, fingerprints
and ``save`` are shared with the machine layer in :mod:`repro.specfile`.
Spec files live under ``workloads/`` at the repository root (see
:mod:`repro.workload.registry`); ``docs/WORKLOADS.md`` documents the
schema and the ~30-line recipe for adding a workload.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.specfile import (
    CanonicalTree,
    SpecError,
    check_leaf,
    check_table,
    in_file,
    read_spec_file,
)
from repro.trace.patterns import (
    AccessMix,
    AccessPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StreamingPattern,
)
from repro.trace.phase import Phase, Workload

__all__ = [
    "WORKLOAD_SCHEMA_VERSION",
    "WorkloadSpec",
    "WorkloadSpecError",
    "load_workload_spec",
]

#: Bumped on incompatible changes to the on-disk workload-spec layout.
WORKLOAD_SCHEMA_VERSION = 1

#: ``kind`` tag of an access-mix component -> pattern dataclass.
_PATTERN_KINDS: Dict[str, type] = {
    "streaming": StreamingPattern,
    "random": RandomPattern,
    "pointer_chase": PointerChasePattern,
    "stencil": StencilPattern,
}
_KIND_OF_PATTERN = {cls: kind for kind, cls in _PATTERN_KINDS.items()}

#: Spec spelling of :attr:`Phase.parallel` (the OpenMP construct).
_OPENMP_VALUES = ("parallel", "serial")

_TOP_LEVEL_KEYS = (
    "schema",
    "name",
    "description",
    "kind",
    "memory_bound_score",
    "base",
    "workload",
)
_WORKLOAD_KEYS = ("name", "problem_class", "scale", "phases")


class WorkloadSpecError(SpecError):
    """A workload spec failed to load or validate."""


#: The shared leaf and table checkers, raising this layer's error.
_leaf = functools.partial(check_leaf, error=WorkloadSpecError)
_table = functools.partial(check_table, error=WorkloadSpecError)


# ---------------------------------------------------------------------------
# Access-mix components
# ---------------------------------------------------------------------------

def _pattern_to_dict(weight: float, pattern: AccessPattern) -> Dict[str, Any]:
    kind = _KIND_OF_PATTERN.get(type(pattern))
    if kind is None:
        raise WorkloadSpecError(
            f"unserializable access pattern {type(pattern).__name__}"
        )
    out: Dict[str, Any] = {"kind": kind, "weight": float(weight)}
    for f in dataclasses.fields(pattern):
        value = getattr(pattern, f.name)
        out[f.name] = float(value) if f.type == "float" else value
    return out


def _pattern_from_dict(
    entry: Any, path: Sequence[str]
) -> Tuple[float, AccessPattern]:
    table = _table(entry, path)
    kind = table.get("kind")
    if kind not in _PATTERN_KINDS:
        raise WorkloadSpecError(
            f"unknown access pattern kind {kind!r} "
            f"(valid: {sorted(_PATTERN_KINDS)})",
            tuple(path) + ("kind",),
        )
    if "weight" not in table:
        raise WorkloadSpecError("missing required field", tuple(path) + ("weight",))
    weight = _leaf(table["weight"], float, tuple(path) + ("weight",))
    cls = _PATTERN_KINDS[kind]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in table.items():
        if key in ("kind", "weight"):
            continue
        if key not in fields:
            raise WorkloadSpecError(
                f"unknown field for {kind!r} pattern "
                f"(valid: {sorted(fields)})",
                tuple(path) + (key,),
            )
        kwargs[key] = _leaf(value, fields[key].type, tuple(path) + (key,))
    if "footprint_bytes" not in kwargs:
        raise WorkloadSpecError(
            "missing required field", tuple(path) + ("footprint_bytes",)
        )
    try:
        return weight, cls(**kwargs)
    except ValueError as exc:
        raise WorkloadSpecError(str(exc), path) from None


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

_PHASE_FIELDS: Dict[str, dataclasses.Field] = {
    f.name: f for f in dataclasses.fields(Phase)
}
_PHASE_REQUIRED = tuple(
    f.name
    for f in dataclasses.fields(Phase)
    if f.default is dataclasses.MISSING
    and f.default_factory is dataclasses.MISSING
)


def _phase_to_dict(phase: Phase) -> Dict[str, Any]:
    """Serialize one phase to its complete spec table."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(Phase):
        if f.name == "parallel":
            out["openmp"] = "parallel" if phase.parallel else "serial"
        elif f.name == "access_mix":
            out["access_mix"] = [
                _pattern_to_dict(w, p) for w, p in phase.access_mix.components
            ]
        else:
            value = getattr(phase, f.name)
            out[f.name] = float(value) if f.type == "float" else value
    return out


def _phase_from_dict(
    data: Mapping[str, Any],
    path: Sequence[str],
    base: Optional[Mapping[str, Any]] = None,
) -> Phase:
    """Build a phase from a (possibly sparse) spec table.

    ``base`` is the complete serialized table of the phase being
    overridden (derived specs); without it, omitted optional fields take
    the :class:`Phase` defaults.
    """
    table = _table(data, path)
    merged: Dict[str, Any] = dict(base or {})
    merged.update(table)
    kwargs: Dict[str, Any] = {}
    for key, value in merged.items():
        if key == "openmp":
            if value not in _OPENMP_VALUES:
                raise WorkloadSpecError(
                    f"expected one of {_OPENMP_VALUES}, got {value!r}",
                    tuple(path) + ("openmp",),
                )
            kwargs["parallel"] = value == "parallel"
        elif key == "access_mix":
            if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
                raise WorkloadSpecError(
                    f"expected a list of pattern tables, got {value!r}",
                    tuple(path) + ("access_mix",),
                )
            components = tuple(
                _pattern_from_dict(entry, tuple(path) + (f"access_mix[{i}]",))
                for i, entry in enumerate(value)
            )
            try:
                kwargs["access_mix"] = AccessMix(components=components)
            except ValueError as exc:
                raise WorkloadSpecError(
                    str(exc), tuple(path) + ("access_mix",)
                ) from None
        elif key == "parallel":
            raise WorkloadSpecError(
                "use openmp: \"parallel\"|\"serial\" instead of the "
                "parallel bool",
                tuple(path) + ("parallel",),
            )
        elif key in _PHASE_FIELDS:
            kwargs[key] = _leaf(
                value, _PHASE_FIELDS[key].type, tuple(path) + (key,)
            )
        else:
            valid = sorted(
                set(_PHASE_FIELDS) - {"parallel", "access_mix"}
                | {"openmp", "access_mix"}
            )
            raise WorkloadSpecError(
                f"unknown phase field (valid: {valid})", tuple(path) + (key,)
            )
    missing = [name for name in _PHASE_REQUIRED if name not in kwargs]
    if missing:
        raise WorkloadSpecError(
            f"missing required phase fields: {missing}", path
        )
    try:
        return Phase(**kwargs)
    except ValueError as exc:
        raise WorkloadSpecError(str(exc), path) from None


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec(CanonicalTree):
    """A named, validated, fingerprintable workload description.

    ``workload`` is the fully built :class:`~repro.trace.phase.Workload`;
    the metadata mirrors :class:`~repro.npb.common.BenchmarkInfo` so NAS
    benchmarks and file-defined workloads describe themselves uniformly.
    ``source`` records the spec file a registry entry came from (``None``
    for code-defined producers) and is excluded from equality.
    """

    name: str
    workload: Workload
    description: str = ""
    kind: str = "kernel"
    memory_bound_score: float = 0.5
    source: Optional[Path] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        source: Optional[Union[str, Path]] = None,
        resolve: Optional[Callable[[str], "WorkloadSpec"]] = None,
    ) -> "WorkloadSpec":
        """Validate a spec tree and build the workload it describes.

        ``resolve`` maps a ``base`` name to its spec (the registry
        provides it); a spec using ``base`` outside a registry context is
        an error, so standalone trees stay self-contained.
        """
        table = _table(data, (), _TOP_LEVEL_KEYS, what="top-level keys")
        schema = table.get("schema")
        if schema != WORKLOAD_SCHEMA_VERSION:
            raise WorkloadSpecError(
                f"unsupported schema version {schema!r} "
                f"(this build reads version {WORKLOAD_SCHEMA_VERSION})",
                ("schema",),
            )
        name = table.get("name")
        if not isinstance(name, str) or not name:
            raise WorkloadSpecError(
                f"expected a non-empty string, got {name!r}", ("name",)
            )

        base_spec: Optional[WorkloadSpec] = None
        if "base" in table:
            base_name = _leaf(table["base"], str, ("base",))
            if resolve is None:
                raise WorkloadSpecError(
                    "base inheritance needs a registry context "
                    "(load this spec through repro.workload.registry)",
                    ("base",),
                )
            base_spec = resolve(base_name)

        description = _leaf(
            table.get(
                "description",
                base_spec.description if base_spec else "",
            ),
            str,
            ("description",),
        )
        kind = _leaf(
            table.get("kind", base_spec.kind if base_spec else "kernel"),
            str,
            ("kind",),
        )
        if not kind:
            raise WorkloadSpecError("expected a non-empty string", ("kind",))
        score = _leaf(
            table.get(
                "memory_bound_score",
                base_spec.memory_bound_score if base_spec else 0.5,
            ),
            float,
            ("memory_bound_score",),
        )
        if not 0.0 <= score <= 1.0:
            raise WorkloadSpecError(
                f"must be within [0, 1], got {score!r}",
                ("memory_bound_score",),
            )

        wtree = table.get("workload")
        if base_spec is None:
            if wtree is None:
                raise WorkloadSpecError("missing required table", ("workload",))
            workload = cls._build_root_workload(name, wtree)
        else:
            workload = cls._build_derived_workload(name, wtree, base_spec)

        spec = cls(
            name=name,
            workload=workload,
            description=description,
            kind=kind,
            memory_bound_score=score,
            source=Path(source) if source is not None else None,
        )
        return spec

    @staticmethod
    def _build_root_workload(spec_name: str, wtree: Any) -> Workload:
        table = _table(wtree, ("workload",))
        unknown = sorted(set(table) - {"name", "problem_class", "phases"})
        if unknown:
            raise WorkloadSpecError(
                f"unknown keys {unknown} (valid: ['name', 'phases', "
                f"'problem_class']; 'scale' needs a base)",
                ("workload",),
            )
        wname = _leaf(table.get("name", spec_name), str, ("workload", "name"))
        pclass = _leaf(
            table.get("problem_class", "B"), str, ("workload", "problem_class")
        )
        phases_node = table.get("phases")
        if not isinstance(phases_node, Sequence) or isinstance(
            phases_node, (str, bytes)
        ):
            raise WorkloadSpecError(
                f"expected a list of phase tables, got {phases_node!r}",
                ("workload", "phases"),
            )
        phases = tuple(
            _phase_from_dict(entry, ("workload", f"phases[{i}]"))
            for i, entry in enumerate(phases_node)
        )
        try:
            return Workload(name=wname, problem_class=pclass, phases=phases)
        except ValueError as exc:
            raise WorkloadSpecError(str(exc), ("workload",)) from None

    @staticmethod
    def _build_derived_workload(
        spec_name: str, wtree: Any, base_spec: "WorkloadSpec"
    ) -> Workload:
        """Sparse inheritance: start from the base's canonical form."""
        table = _table(
            {} if wtree is None else wtree, ("workload",), _WORKLOAD_KEYS,
            what="keys",
        )
        base_tree = base_spec.to_dict()["workload"]
        wname = _leaf(
            table.get("name", spec_name), str, ("workload", "name")
        )
        pclass = _leaf(
            table.get("problem_class", base_tree["problem_class"]),
            str,
            ("workload", "problem_class"),
        )
        scale = _leaf(
            table.get("scale", 1.0), float, ("workload", "scale")
        )
        if scale <= 0:
            raise WorkloadSpecError(
                f"must be positive, got {scale!r}", ("workload", "scale")
            )

        overrides = table.get("phases", {})
        overrides = _table(overrides, ("workload", "phases"))
        base_phases = {p["name"]: p for p in base_tree["phases"]}
        unknown_phases = sorted(set(overrides) - set(base_phases))
        if unknown_phases:
            raise WorkloadSpecError(
                f"unknown phases {unknown_phases} "
                f"(base {base_spec.name!r} has: {sorted(base_phases)})",
                ("workload", "phases"),
            )
        phases = []
        for entry in base_tree["phases"]:
            pname = entry["name"]
            override = dict(overrides.get(pname, {}))
            override.setdefault("name", pname)
            phase = _phase_from_dict(
                override, ("workload", f"phases[{pname}]"), base=entry
            )
            if scale != 1.0:
                phase = phase.with_scale(scale)
            phases.append(phase)
        try:
            return Workload(
                name=wname, problem_class=pclass, phases=tuple(phases)
            )
        except ValueError as exc:
            raise WorkloadSpecError(str(exc), ("workload",)) from None

    # ------------------------------------------------------------------
    @classmethod
    def from_workload(
        cls,
        workload: Workload,
        name: Optional[str] = None,
        description: str = "",
        kind: str = "kernel",
        memory_bound_score: float = 0.5,
        source: Optional[Union[str, Path]] = None,
    ) -> "WorkloadSpec":
        """Capture a built workload as a spec (the producer path).

        The workload is serialized to its spec tree and re-loaded through
        :meth:`from_dict`, so code-defined producers exercise exactly the
        schema a file would — a producer cannot build a workload its own
        spec form would reject.
        """
        tree = {
            "schema": WORKLOAD_SCHEMA_VERSION,
            "name": name if name is not None else workload.name,
            "description": description,
            "kind": kind,
            "memory_bound_score": memory_bound_score,
            "workload": {
                "name": workload.name,
                "problem_class": workload.problem_class,
                "phases": [_phase_to_dict(p) for p in workload.phases],
            },
        }
        return cls.from_dict(tree, source=source)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical, complete spec tree (inheritance flattened)."""
        return {
            "schema": WORKLOAD_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "memory_bound_score": float(self.memory_bound_score),
            "workload": {
                "name": self.workload.name,
                "problem_class": self.workload.problem_class,
                "phases": [_phase_to_dict(p) for p in self.workload.phases],
            },
        }

    def build(self) -> Workload:
        """The engine-facing workload (already built and validated)."""
        return self.workload

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, str]:
        """One-line listing fields for ``repro workloads``."""
        w = self.workload
        return {
            "kind": self.kind,
            "class": w.problem_class,
            "phases": str(len(w.phases)),
            "instr": f"{w.total_instructions:.1e}",
            "mem": f"{w.mem_intensity:.2f}",
            "ws": human_bytes(w.working_set_bytes),
        }


def human_bytes(n: float) -> str:
    """Format a byte count for listings (``537.1MB``)."""
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0:
            return f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}TB"


def load_workload_spec(
    path: Union[str, Path],
    resolve: Optional[Callable[[str], WorkloadSpec]] = None,
) -> WorkloadSpec:
    """Load and validate a spec file (``.json`` or ``.toml``)."""
    path = Path(path)
    data = read_spec_file(path, WorkloadSpecError)
    with in_file(path, WorkloadSpecError):
        return WorkloadSpec.from_dict(data, source=path, resolve=resolve)
