"""Declarative machine descriptions: the :class:`MachineSpec` layer.

The paper's methodology is "same workloads, different machine
resources".  A :class:`MachineSpec` makes the *machine* side of that
equation data instead of code: a schema-validated, JSON/TOML-loadable,
content-fingerprinted description of everything that parameterizes the
simulation — pipeline, caches, TLBs, branch predictor, bus, and the
OS-contention constants — which converts to the
:class:`~repro.machine.params.MachineParams` dataclasses the engine
consumes.

Derived machines are expressed with the typed :class:`SpecOverride`
mechanism (set or scale one dotted field) rather than ad-hoc
``dataclasses.replace`` edits, so every experiment variant is a
reviewable, serializable delta from a named base spec.

This module holds only the machine schema.  Reading the file,
:class:`~repro.specfile.SpecError`, leaf type checks, fingerprints and
``save`` are shared with the workload layer in :mod:`repro.specfile`.
Spec files live under ``machines/`` at the repository root (see
:mod:`repro.machine.registry`); ``docs/MACHINES.md`` documents the
schema and the ~20-line recipe for adding a machine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.machine.params import (
    CACHE_SCOPES,
    BranchPredictorParams,
    BusParams,
    CacheLevelParams,
    CacheParams,
    ContentionParams,
    CoreClassParams,
    CoreParams,
    MachineParams,
    NumaParams,
    TLBParams,
    TopologyParams,
)
from repro.specfile import (
    CanonicalTree,
    SpecError,
    check_leaf,
    check_table,
    in_file,
    read_spec_file,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "MachineSpec",
    "SpecError",
    "SpecOverride",
    "load_spec",
]

#: Bumped on incompatible changes to the on-disk spec layout.
SPEC_SCHEMA_VERSION = 1

#: Section name -> parameter dataclass for the ``machine`` tree.
_SECTIONS: Dict[str, type] = {
    "core": CoreParams,
    "trace_cache": CacheParams,
    "l1d": CacheParams,
    "l2": CacheParams,
    "itlb": TLBParams,
    "dtlb": TLBParams,
    "branch": BranchPredictorParams,
    "bus": BusParams,
    "contention": ContentionParams,
}
#: Scalar (non-section) fields of the ``machine`` tree.
_SCALARS: Dict[str, type] = {
    "memory_latency_ns": float,
    "l2_scope": str,
}

#: Structured (non-dataclass-section) keys of the ``machine`` tree.
#: ``hierarchy`` is an ordered list of cache levels that replaces the
#: ``l1d``/``l2``/``l2_scope`` trio; ``topology`` declares the machine
#: shape.  Legacy specs (no ``hierarchy`` key) are auto-upgraded to the
#: equivalent explicit form on load, and two-level machines serialize
#: back to the legacy keys, so fingerprints of pre-hierarchy specs are
#: unchanged.
_STRUCTURED_KEYS = ("hierarchy", "topology")

#: Default machine shape (the paper's 2s x 1 x 2c x 2t PowerEdge 2850).
_TOPO_DEFAULT = TopologyParams()


#: Sentinel distinguishing "no value given" from an explicit ``None``.
_UNSET = object()


@dataclass(frozen=True)
class SpecOverride:
    """One typed edit to a machine tree: set or scale a dotted field.

    Exactly one of ``value`` (replace the field) and ``scale`` (multiply
    the numeric field) must be given.  Overrides are applied to the
    serialized tree and the result is re-validated, so an override can
    never produce a machine the schema would have rejected.
    """

    path: Tuple[str, ...]
    value: Any = _UNSET
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.path or not all(
            isinstance(p, str) and p for p in self.path
        ):
            raise SpecError("override path must be non-empty field names")
        if (self.value is _UNSET) == (self.scale is None):
            raise SpecError(
                "override needs exactly one of value= or scale=",
                self.path,
            )

    # ------------------------------------------------------------------
    @classmethod
    def set(cls, dotted: str, value: Any) -> "SpecOverride":
        """``SpecOverride.set("bus.chip_read_bw", 3.2e9)``."""
        return cls(path=tuple(dotted.split(".")), value=value)

    @classmethod
    def scaled(cls, dotted: str, factor: float) -> "SpecOverride":
        """``SpecOverride.scaled("core.mlp", 1.25)``."""
        return cls(path=tuple(dotted.split(".")), scale=factor)

    @property
    def dotted(self) -> str:
        return ".".join(self.path)

    # ------------------------------------------------------------------
    def apply(self, tree: Dict[str, Any]) -> Dict[str, Any]:
        """Return a copy of a ``machine`` tree with this edit applied."""
        out = dict(tree)
        node = out
        for i, key in enumerate(self.path[:-1]):
            child = node.get(key)
            if not isinstance(child, dict):
                raise SpecError(
                    f"not a section (valid: {sorted(node)})",
                    self.path[: i + 1],
                )
            child = dict(child)
            node[key] = child
            node = child
        leaf = self.path[-1]
        if leaf not in node:
            raise SpecError(
                f"unknown field (valid: {sorted(node)})", self.path
            )
        if self.scale is not None:
            current = node[leaf]
            if isinstance(current, bool) or not isinstance(
                current, (int, float)
            ):
                raise SpecError(
                    f"cannot scale non-numeric value {current!r}", self.path
                )
            node[leaf] = current * self.scale
        else:
            node[leaf] = self.value
        return out

    def apply_params(self, params: MachineParams) -> MachineParams:
        """Apply this edit directly to a parameter bundle.

        Unlike the :meth:`apply`/``from_dict`` round trip this skips the
        schema's leaf typing, so a scale can denormalize integer fields
        (``issue_width * 0.8 == 2.4``) — exactly what the sensitivity
        sweeps need when probing the model's analytic response.  Path
        errors still raise :class:`SpecError`.
        """
        node: Any = params
        stack = []
        for i, key in enumerate(self.path[:-1]):
            if not dataclasses.is_dataclass(node) or not hasattr(node, key):
                raise SpecError("not a section", self.path[: i + 1])
            stack.append((node, key))
            node = getattr(node, key)
        leaf = self.path[-1]
        if not dataclasses.is_dataclass(node) or not any(
            f.name == leaf for f in dataclasses.fields(node)
        ):
            raise SpecError("unknown field", self.path)
        if self.scale is not None:
            current = getattr(node, leaf)
            if isinstance(current, bool) or not isinstance(
                current, (int, float)
            ):
                raise SpecError(
                    f"cannot scale non-numeric value {current!r}", self.path
                )
            new_leaf = current * self.scale
        else:
            new_leaf = self.value
        node = dataclasses.replace(node, **{leaf: new_leaf})
        for parent, key in reversed(stack):
            node = dataclasses.replace(parent, **{key: node})
        return node


def _build_section(
    cls: type, data: Mapping[str, Any], base: Any, path: Sequence[str]
) -> Any:
    """Construct one parameter dataclass from a (possibly sparse) dict.

    Omitted fields inherit the *base* instance's values (the Paxville
    defaults for a fresh spec, the parent spec's values for overrides).
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    check_table(data, path, fields)
    kwargs = {}
    for name, f in fields.items():
        if name in data:
            kwargs[name] = check_leaf(data[name], f.type, (*path, name))
        else:
            kwargs[name] = getattr(base, name)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SpecError(str(exc), path) from None


def _check_matrix(
    value: Any, path: Sequence[str]
) -> Tuple[Tuple[float, ...], ...]:
    """Validate a NUMA tier matrix (list of equal-length float rows)."""
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"expected a list of rows, got {value!r}", path)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise SpecError(f"expected a row, got {row!r}", (*path, str(i)))
        rows.append(tuple(
            check_leaf(v, float, (*path, str(i), str(j)))
            for j, v in enumerate(row)
        ))
    return tuple(rows)


def _build_topology_params(
    data: Mapping[str, Any], path: Sequence[str]
) -> TopologyParams:
    """Parse the ``machine.topology`` table (sparse over the default)."""
    check_table(data, path, (
        "sockets", "chips_per_socket", "cores_per_chip",
        "threads_per_core", "core_classes", "numa",
    ))
    kwargs: Dict[str, Any] = {}
    for name in ("sockets", "chips_per_socket", "cores_per_chip",
                 "threads_per_core"):
        if name in data:
            kwargs[name] = check_leaf(data[name], int, (*path, name))
    if "core_classes" in data:
        raw = data["core_classes"]
        if not isinstance(raw, (list, tuple)):
            raise SpecError(
                f"expected a list of core classes, got {raw!r}",
                (*path, "core_classes"),
            )
        classes = []
        for i, entry in enumerate(raw):
            cpath = (*path, "core_classes", str(i))
            check_table(
                entry, cpath, ("name", "chips", "clock_scale", "issue_width_scale")
            )
            if "name" not in entry or "chips" not in entry:
                raise SpecError("needs 'name' and 'chips'", cpath)
            chips = entry["chips"]
            if not isinstance(chips, (list, tuple)) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in chips
            ):
                raise SpecError(
                    f"expected a list of chip indices, got {chips!r}",
                    (*cpath, "chips"),
                )
            try:
                classes.append(CoreClassParams(
                    name=check_leaf(entry["name"], str, (*cpath, "name")),
                    chips=tuple(chips),
                    clock_scale=check_leaf(
                        entry.get("clock_scale", 1.0), float,
                        (*cpath, "clock_scale"),
                    ),
                    issue_width_scale=check_leaf(
                        entry.get("issue_width_scale", 1.0), float,
                        (*cpath, "issue_width_scale"),
                    ),
                ))
            except ValueError as exc:
                raise SpecError(str(exc), cpath) from None
        kwargs["core_classes"] = tuple(classes)
    if "numa" in data:
        raw = data["numa"]
        npath = (*path, "numa")
        check_table(raw, npath, ("latency_scale", "bandwidth_scale"))
        try:
            kwargs["numa"] = NumaParams(
                latency_scale=_check_matrix(
                    raw.get("latency_scale", ()), (*npath, "latency_scale")
                ),
                bandwidth_scale=_check_matrix(
                    raw.get("bandwidth_scale", ()),
                    (*npath, "bandwidth_scale"),
                ),
            )
        except ValueError as exc:
            raise SpecError(str(exc), npath) from None
    try:
        return dataclasses.replace(_TOPO_DEFAULT, **kwargs)
    except ValueError as exc:
        raise SpecError(str(exc), path) from None


def _build_hierarchy(
    levels: Any,
    base: MachineParams,
    topo: TopologyParams,
    path: Sequence[str],
) -> Dict[str, Any]:
    """Parse ``machine.hierarchy`` into the MachineParams cache fields.

    The list is ordered inward-out: level 0 maps onto ``l1d`` (scope
    ``thread``/``core``), level 1 onto ``l2`` (its scope subsumes the
    legacy ``l2_scope`` scalar), and any further levels become
    :class:`~repro.machine.params.CacheLevelParams`.  ``shared_contexts``
    defaults to the context count of the level's scope on this topology.
    """
    if not isinstance(levels, (list, tuple)):
        raise SpecError(f"expected a list of cache levels, got {levels!r}", path)
    if len(levels) < 2:
        raise SpecError("a hierarchy needs at least two levels (L1, L2)", path)
    if len(levels) > 4:
        raise SpecError("at most four data-cache levels are modeled", path)
    parsed = []
    for i, entry in enumerate(levels):
        lpath = (*path, str(i))
        check_table(entry, lpath, (
            "name", "scope", "size_bytes", "line_bytes", "associativity",
            "latency_cycles", "shared_contexts", "write_allocate",
        ))
        scope = entry.get("scope")
        if scope is None:
            scope = "core" if i == 0 else "chip"
        scope = check_leaf(scope, str, (*lpath, "scope"))
        if scope not in CACHE_SCOPES:
            raise SpecError(
                f"must be one of {list(CACHE_SCOPES)}, got {scope!r}",
                (*lpath, "scope"),
            )
        inherit = base.l1d if i == 0 else base.l2
        cache_fields = {
            k: v for k, v in entry.items() if k not in ("name", "scope")
        }
        if "shared_contexts" not in cache_fields:
            try:
                cache_fields["shared_contexts"] = topo.contexts_in_scope(scope)
            except ValueError as exc:
                raise SpecError(str(exc), (*lpath, "scope")) from None
        cache = _build_section(CacheParams, cache_fields, inherit, lpath)
        default_name = ("l1d", "l2", "l3", "l4")[i]
        name = check_leaf(
            entry.get("name", default_name), str, (*lpath, "name")
        )
        parsed.append((name, scope, cache))
    l1_name, l1_scope, l1d = parsed[0]
    if l1_scope not in ("thread", "core"):
        raise SpecError(
            f"the first level is per-core hardware; scope must be "
            f"'thread' or 'core', got {l1_scope!r}",
            (*path, "0", "scope"),
        )
    _, l2_scope, l2 = parsed[1]
    try:
        extra = tuple(
            CacheLevelParams(name=name, cache=cache, scope=scope)
            for name, scope, cache in parsed[2:]
        )
    except ValueError as exc:
        raise SpecError(str(exc), path) from None
    return {
        "l1d": l1d,
        "l1_scope": l1_scope,
        "l2": l2,
        "l2_scope": l2_scope,
        "extra_levels": extra,
    }


@dataclass(frozen=True)
class MachineSpec(CanonicalTree):
    """A named, validated, serializable machine description.

    The ``params`` field holds the fully-built
    :class:`~repro.machine.params.MachineParams`; ``source`` records
    provenance (the spec file path, or ``None`` for built-ins and
    derived specs) and is excluded from equality and the fingerprint.
    """

    name: str
    params: MachineParams
    description: str = ""
    source: Optional[Path] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_params(
        cls,
        name: str,
        params: MachineParams,
        description: str = "",
    ) -> "MachineSpec":
        """Wrap an existing parameter bundle as a (derived) spec."""
        return cls(name=name, params=params, description=description)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], source: Optional[Path] = None
    ) -> "MachineSpec":
        """Build and validate a spec from its serialized form.

        The ``machine`` tree may be sparse: omitted sections and fields
        inherit the Paxville baseline, so a new machine is described by
        its deltas only (see ``docs/MACHINES.md``).
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got {type(data).__name__}")
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"unsupported schema version {schema!r} "
                f"(this build reads version {SPEC_SCHEMA_VERSION})",
                ("schema",),
            )
        check_table(
            data, (), ("schema", "name", "description", "machine"),
            what="top-level key(s)",
        )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise SpecError("a non-empty string is required", ("name",))
        description = data.get("description", "")
        if not isinstance(description, str):
            raise SpecError("expected a string", ("description",))
        machine = data.get("machine", {})
        params = cls._build_params(machine)
        spec = cls(
            name=name, params=params, description=description, source=source
        )
        spec.validate()
        return spec

    @staticmethod
    def _build_params(machine: Mapping[str, Any]) -> MachineParams:
        if not isinstance(machine, Mapping):
            raise SpecError("expected a table", ("machine",))
        check_table(
            machine, ("machine",), {*_SECTIONS, *_SCALARS, *_STRUCTURED_KEYS},
            what="key(s)",
        )
        base = MachineParams()
        kwargs: Dict[str, Any] = {}
        topo = _TOPO_DEFAULT
        if "topology" in machine:
            topo = _build_topology_params(
                machine["topology"], ("machine", "topology")
            )
            kwargs["topo"] = topo
        if "hierarchy" in machine:
            clash = {"l1d", "l2", "l2_scope"} & set(machine)
            if clash:
                raise SpecError(
                    f"'hierarchy' replaces the legacy key(s) "
                    f"{sorted(clash)} — a spec declares one or the other",
                    ("machine", "hierarchy"),
                )
            kwargs.update(_build_hierarchy(
                machine["hierarchy"], base, topo, ("machine", "hierarchy")
            ))
        for section, cls_ in _SECTIONS.items():
            if section in machine:
                kwargs[section] = _build_section(
                    cls_,
                    machine[section],
                    getattr(base, section),
                    ("machine", section),
                )
        for scalar, annotation in _SCALARS.items():
            if scalar in machine:
                kwargs[scalar] = check_leaf(
                    machine[scalar], annotation, ("machine", scalar)
                )
        try:
            return dataclasses.replace(base, **kwargs)
        except ValueError as exc:
            raise SpecError(str(exc), ("machine",)) from None

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cross-field checks beyond per-dataclass invariants.

        Scope/sharer-count consistency lives in the topology-aware
        validator of :class:`~repro.machine.params.MachineParams`
        itself, so it holds on *every* load path (including direct
        parameter construction); this method keeps the spec-level
        checks that need the dotted-path error reporting.
        """
        p = self.params
        if p.memory_latency_ns <= 0:
            raise SpecError(
                "must be positive", ("machine", "memory_latency_ns")
            )
        levels = p.cache_levels()
        for inner, outer in zip(levels, levels[1:]):
            if outer.cache.line_bytes < inner.cache.line_bytes:
                raise SpecError(
                    f"{outer.name} lines must be at least as large as "
                    f"{inner.name} lines",
                    ("machine", outer.name, "line_bytes"),
                )

    # ------------------------------------------------------------------
    # serialization (identity and ``save`` come from CanonicalTree)
    # ------------------------------------------------------------------
    @property
    def flat_l2(self) -> bool:
        """Whether the canonical form has the legacy flat ``l1d``/``l2``/
        ``l2_scope`` fields (two levels, per-core L1) that
        :class:`SpecOverride` paths can edit, rather than a
        ``hierarchy`` list."""
        p = self.params
        return not p.extra_levels and p.l1_scope == "core"

    def to_dict(self) -> Dict[str, Any]:
        """The full serialized form (always complete, never sparse).

        The serialization is *canonical*: a two-level machine with the
        default L1 scope emits exactly the legacy ``l1d``/``l2``/
        ``l2_scope`` keys (so pre-hierarchy spec fingerprints are
        unchanged, and an explicit-hierarchy spec describing the same
        machine canonicalizes — and fingerprints — identically), while
        machines with extra levels or a thread-private L1 emit the
        ``hierarchy`` list instead.  ``topology`` appears only when the
        shape differs from the Paxville default.
        """
        p = self.params
        legacy_form = self.flat_l2
        machine: Dict[str, Any] = {}
        for section in _SECTIONS:
            if not legacy_form and section in ("l1d", "l2"):
                continue
            machine[section] = dataclasses.asdict(getattr(p, section))
        for scalar in _SCALARS:
            if not legacy_form and scalar == "l2_scope":
                continue
            machine[scalar] = getattr(p, scalar)
        if not legacy_form:
            machine["hierarchy"] = [
                {
                    "name": lvl.name,
                    "scope": lvl.scope,
                    **dataclasses.asdict(lvl.cache),
                }
                for lvl in p.cache_levels()
            ]
        if p.topo != _TOPO_DEFAULT:
            topo: Dict[str, Any] = {
                "sockets": p.topo.sockets,
                "chips_per_socket": p.topo.chips_per_socket,
                "cores_per_chip": p.topo.cores_per_chip,
                "threads_per_core": p.topo.threads_per_core,
            }
            if p.topo.core_classes:
                topo["core_classes"] = [
                    {
                        "name": cls.name,
                        "chips": list(cls.chips),
                        "clock_scale": cls.clock_scale,
                        "issue_width_scale": cls.issue_width_scale,
                    }
                    for cls in p.topo.core_classes
                ]
            if p.topo.numa.tiered:
                numa: Dict[str, Any] = {}
                if p.topo.numa.latency_scale:
                    numa["latency_scale"] = [
                        list(row) for row in p.topo.numa.latency_scale
                    ]
                if p.topo.numa.bandwidth_scale:
                    numa["bandwidth_scale"] = [
                        list(row) for row in p.topo.numa.bandwidth_scale
                    ]
                topo["numa"] = numa
            machine["topology"] = topo
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "machine": machine,
        }

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def override(
        self,
        *overrides: SpecOverride,
        name: Optional[str] = None,
        description: Optional[str] = None,
    ) -> "MachineSpec":
        """A new validated spec with the given edits applied.

        The default derived name records the edit chain
        (``paxville+bus.chip_read_bw``) so derived machines stay
        identifiable in manifests and cache listings.
        """
        data = self.to_dict()
        machine = data["machine"]
        for ov in overrides:
            machine = ov.apply(machine)
        derived_name = name if name is not None else "+".join(
            [self.name, *(ov.dotted for ov in overrides)]
        )
        return MachineSpec.from_dict({
            "schema": SPEC_SCHEMA_VERSION,
            "name": derived_name,
            "description": (
                self.description if description is None else description
            ),
            "machine": machine,
        })

    def to_params(self) -> MachineParams:
        """The engine-facing parameter bundle."""
        return self.params

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, str]:
        """Key parameters for one line of ``repro machines`` output."""
        p = self.params
        llc = p.llc
        llc_scope = p.llc_scope
        scope = (
            "private/core" if llc_scope == "core" else f"shared/{llc_scope}"
        )
        llc_name = p.extra_levels[-1].name if p.extra_levels else "l2"
        key = "l2" if llc_name == "l2" else "llc"
        return {
            "clock": f"{p.core.clock_hz / 1e9:.1f}GHz",
            key: f"{llc.size_bytes // 1024 // 1024}MB {scope}",
            "bus": f"{p.bus.chip_read_bw / 1e9:.2f}GB/s",
            "mem": f"{p.memory_latency_ns:.1f}ns",
        }


def load_spec(path: Union[str, Path]) -> MachineSpec:
    """Load and validate a spec file (``.json`` or ``.toml``)."""
    path = Path(path)
    data = read_spec_file(path)
    with in_file(path):
        return MachineSpec.from_dict(data, source=path)
