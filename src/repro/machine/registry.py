"""The named machine registry: specs under ``machines/`` plus built-ins.

A registered machine is a code-defined built-in (always available, even
in an installed package without the repository checkout) or a spec
file in the machines directory (``REPRO_MACHINES_DIR``, default
``machines/`` at the repository root).  A file whose ``name`` matches a
built-in shadows it, and the listing reports the file as its
provenance.  ``--machine`` tokens follow the one lookup rule of
``docs/MACHINES.md`` "Resolving a token"; machine names are
case-sensitive.  The directory, the cache, the raw file pass and the
lookup are :class:`repro.specfile.SpecRegistry`; this module holds only
the built-ins and the build step.

:func:`default_params` is the single place the rest of the codebase gets
"the platform" from: the registry's default machine (``paxville``),
memoized per process.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.machine.params import MachineParams, paxville_params
from repro.machine.spec import MachineSpec, SpecError, load_spec
from repro.specfile import (
    RawSpecs,
    SpecRegistry,
    UnknownSpecError,
    in_file,
    spec_path,
)

__all__ = [
    "DEFAULT_MACHINE",
    "MACHINES_DIR_ENV",
    "UnknownMachineError",
    "builtin_specs",
    "default_params",
    "list_machines",
    "machines_dir",
    "resolve_machine",
]

MACHINES_DIR_ENV = "REPRO_MACHINES_DIR"
DEFAULT_MACHINE = "paxville"


class UnknownMachineError(UnknownSpecError):
    """An unregistered machine name (the CLI maps this to exit 2)."""

    kind = "machine"


#: Machine names are case-sensitive.
_REGISTRY = SpecRegistry(
    MACHINES_DIR_ENV, "machines", SpecError, UnknownMachineError
)


_builtin_cache: Optional[Dict[str, MachineSpec]] = None


def builtin_specs() -> Dict[str, MachineSpec]:
    """Code-defined specs, available without any spec files on disk."""
    global _builtin_cache
    if _builtin_cache is None:
        _builtin_cache = {
            DEFAULT_MACHINE: MachineSpec.from_params(
                DEFAULT_MACHINE,
                paxville_params(),
                description=(
                    "Dual dual-core HT Xeon (Paxville) of the paper's "
                    "Dell PowerEdge 2850"
                ),
            ),
        }
    return dict(_builtin_cache)


def machines_dir() -> Optional[Path]:
    """The spec-file directory (``REPRO_MACHINES_DIR``, default
    ``machines/`` at the repository root), or ``None`` when absent."""
    return _REGISTRY.directory()


def list_machines() -> Dict[str, MachineSpec]:
    """Every registered machine, keyed by spec name.

    File-backed specs (with ``source`` set to their path) shadow
    same-named built-ins; two *files* claiming one name is an error.
    """
    return _REGISTRY.listing(None, _build_listing)


def _build_listing(raws: RawSpecs) -> Dict[str, MachineSpec]:
    out = builtin_specs()
    for name, (path, data) in raws.items():
        with in_file(path):
            out[name] = MachineSpec.from_dict(data, source=path)
    return out


def resolve_machine(
    token: Union[str, Path, MachineSpec]
) -> MachineSpec:
    """Resolve a ``--machine`` token to a validated spec.

    The token lookup rule (``docs/MACHINES.md``): a spec instance is
    returned as-is, a path loads that file, anything else is a
    registered name (case-sensitive) or a full or short fingerprint.
    """
    if isinstance(token, MachineSpec):
        return token
    path = spec_path(token)
    if path is not None:
        return load_spec(path)
    return _REGISTRY.lookup(token, list_machines())


_default_params: Optional[MachineParams] = None


def default_params() -> MachineParams:
    """Parameters of the registry's default machine (memoized).

    This is what "no machine specified" means everywhere: the stock
    Paxville platform, loaded through the spec layer so the file under
    ``machines/`` stays the single source of truth (the code built-in
    guarantees the same contents when the checkout is absent).
    """
    global _default_params
    if _default_params is None:
        _default_params = resolve_machine(DEFAULT_MACHINE).to_params()
    return _default_params
