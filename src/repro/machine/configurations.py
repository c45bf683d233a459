"""The paper's Table-1 processor configurations and comparison groups.

A configuration fixes (a) whether Hyper-Threading is enabled, (b) which
hardware contexts are visible to the OS (the paper masks CPUs via the
``maxcpus=`` boot option plus explicit masking), and (c) how many
application threads the OpenMP program uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.machine.params import MachineParams, paxville_params
from repro.machine.topology import SystemTopology, build_topology


class Architecture(enum.Enum):
    """Architectural class of a configuration (paper Table 1)."""

    SERIAL = "Serial"
    SMT = "SMT"
    CMP = "CMP"
    CMT = "CMT"
    SMP = "SMP"
    SMT_BASED_SMP = "SMT-based SMP"
    CMP_BASED_SMP = "CMP-based SMP"
    CMT_BASED_SMP = "CMT-based SMP"


#: Masked topologies by (HT state, visible contexts, machine shape): a
#: topology is immutable once built, so engines share it.
_TOPOLOGIES: Dict[Tuple, SystemTopology] = {}


@dataclass(frozen=True)
class MachineConfig:
    """One row of the paper's Table 1.

    Attributes:
        name: canonical identifier, e.g. ``"ht_on_4_1"`` (HT state, thread
            count, number of physical chips used).
        ht: Hyper-Threading enabled.
        n_threads: application threads used by a single-program run.
        n_chips: physical chips the configuration may use.
        context_labels: hardware contexts visible to the OS.
        architecture: architectural class.
    """

    name: str
    ht: bool
    n_threads: int
    n_chips: int
    context_labels: Tuple[str, ...]
    architecture: Architecture

    @property
    def paper_label(self) -> str:
        """Label used in the paper's figures, e.g. ``"HTon-2-4-1"``."""
        if self.architecture is Architecture.SERIAL:
            return "Serial"
        state = "HTon" if self.ht else "HToff"
        return f"{state}-2-{self.n_threads}-{self.n_chips}"

    def topology(
        self, params: Optional[MachineParams] = None
    ) -> SystemTopology:
        """The masked topology exposing only this config's contexts,
        built once per HT state, context set and machine shape.

        Args:
            params: machine whose declared ``topology`` section shapes
                the tree (sockets x chips x cores x SMT width).  Omitted,
                the paper's Paxville shape (2 chips x 2 cores) is built —
                the default every Table-1 artifact was produced with.
        """
        shape = None if params is None else params.topo
        key = (self.ht, self.context_labels, shape)
        topo = _TOPOLOGIES.get(key)
        if topo is None:
            full = (
                build_topology(n_chips=2, cores_per_chip=2, ht_enabled=self.ht)
                if params is None
                else params.build_topology(ht_enabled=self.ht)
            )
            if len(_TOPOLOGIES) >= 256:
                _TOPOLOGIES.clear()
            topo = _TOPOLOGIES[key] = full.restrict(list(self.context_labels))
        return topo

    def machine_params(self) -> MachineParams:
        return paxville_params()

    @property
    def n_contexts(self) -> int:
        return len(self.context_labels)


def _cfg(
    name: str,
    ht: bool,
    n_threads: int,
    n_chips: int,
    labels: Tuple[str, ...],
    arch: Architecture,
) -> MachineConfig:
    return MachineConfig(
        name=name,
        ht=ht,
        n_threads=n_threads,
        n_chips=n_chips,
        context_labels=labels,
        architecture=arch,
    )


#: All configurations of Table 1, keyed by canonical name.
CONFIGURATIONS: Dict[str, MachineConfig] = {
    c.name: c
    for c in [
        _cfg("serial", False, 1, 1, ("B0",), Architecture.SERIAL),
        _cfg("ht_on_2_1", True, 2, 1, ("A0", "A1"), Architecture.SMT),
        _cfg("ht_off_2_1", False, 2, 1, ("B0", "B1"), Architecture.CMP),
        _cfg("ht_on_4_1", True, 4, 1, ("A0", "A1", "A2", "A3"), Architecture.CMT),
        _cfg("ht_off_2_2", False, 2, 2, ("B0", "B2"), Architecture.SMP),
        _cfg(
            "ht_on_4_2",
            True,
            4,
            2,
            ("A0", "A1", "A4", "A5"),
            Architecture.SMT_BASED_SMP,
        ),
        _cfg(
            "ht_off_4_2",
            False,
            4,
            2,
            ("B0", "B1", "B2", "B3"),
            Architecture.CMP_BASED_SMP,
        ),
        _cfg(
            "ht_on_8_2",
            True,
            8,
            2,
            ("A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"),
            Architecture.CMT_BASED_SMP,
        ),
    ]
}


#: The paper's Section-4 comparison groups.
COMPARISON_GROUPS: Dict[str, List[str]] = {
    "group1": ["serial", "ht_on_2_1"],
    "group2": ["ht_off_2_1", "ht_on_4_1"],
    "group3": ["ht_on_4_2", "ht_off_2_2"],
    "group4": ["ht_off_4_2", "ht_on_8_2"],
}


def get_config(name: str) -> MachineConfig:
    """Look up a configuration by canonical name (raises ``KeyError``)."""
    try:
        return CONFIGURATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown configuration {name!r}; available: {sorted(CONFIGURATIONS)}"
        ) from None


def multithreaded_configs() -> List[MachineConfig]:
    """All configurations except the serial baseline, in paper order."""
    return [c for c in CONFIGURATIONS.values() if c.name != "serial"]
