"""Physical topology of a chip-multithreaded SMP.

A system is a tree: ``SystemTopology`` -> ``Chip`` -> ``Core`` ->
``HWContext`` (a hardware thread, i.e. a logical CPU as seen by the OS).

Labels follow the paper's Figure 1: with Hyper-Threading enabled the eight
logical processors of the two-chip system are ``A0..A7`` (chip 0 core 0
holds A0/A1, chip 0 core 1 holds A2/A3, chip 1 core 0 holds A4/A5, chip 1
core 1 holds A6/A7); with HT disabled the four logical processors are
``B0..B3`` (chip 0 holds B0/B1, chip 1 holds B2/B3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class HWContext:
    """One hardware thread (logical CPU).

    Attributes:
        label: paper-style label, e.g. ``"A3"`` or ``"B1"``.
        chip: index of the physical chip (package).
        core: index of the core within the chip.
        thread: SMT thread slot within the core (0 or 1).
        cpu_id: flat logical CPU number assigned by the (simulated) OS.
        socket: NUMA node the chip belongs to.  On Paxville each package
            is its own FSB agent behind one UMA memory controller, so
            socket == chip; multi-chip-module or NUMA machines group
            several chips per socket.
    """

    label: str
    chip: int
    core: int
    thread: int
    cpu_id: int
    socket: int = 0

    @property
    def core_key(self) -> Tuple[int, int]:
        """Globally unique (chip, core) pair identifying the physical core."""
        return (self.chip, self.core)

    def shares_core_with(self, other: "HWContext") -> bool:
        """True when both contexts are SMT siblings on the same core."""
        return self.core_key == other.core_key and self is not other

    def shares_chip_with(self, other: "HWContext") -> bool:
        """True when both contexts live on the same physical package."""
        return self.chip == other.chip


@dataclass
class Core:
    """A physical core holding one or two hardware contexts."""

    chip: int
    index: int
    contexts: List[HWContext] = field(default_factory=list)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.chip, self.index)


@dataclass
class Chip:
    """A physical package (socket) holding cores that share one FSB port."""

    index: int
    cores: List[Core] = field(default_factory=list)

    @property
    def contexts(self) -> List[HWContext]:
        return [ctx for core in self.cores for ctx in core.contexts]


@dataclass
class SystemTopology:
    """Complete system: chips, cores and hardware contexts.

    ``contexts`` is ordered by ``cpu_id``; lookup helpers resolve labels and
    sibling relationships.  Topologies are immutable once built.
    """

    chips: List[Chip]
    ht_enabled: bool

    def __post_init__(self) -> None:
        self._by_label: Dict[str, HWContext] = {
            ctx.label: ctx for ctx in self.contexts
        }

    @property
    def contexts(self) -> List[HWContext]:
        return sorted(
            (ctx for chip in self.chips for ctx in chip.contexts),
            key=lambda c: c.cpu_id,
        )

    @property
    def cores(self) -> List[Core]:
        return [core for chip in self.chips for core in chip.cores]

    @property
    def n_chips(self) -> int:
        return len(self.chips)

    @property
    def n_cores(self) -> int:
        return sum(len(chip.cores) for chip in self.chips)

    @property
    def n_contexts(self) -> int:
        return sum(len(chip.contexts) for chip in self.chips)

    @property
    def n_sockets(self) -> int:
        return len({ctx.socket for ctx in self.contexts})

    def context(self, label: str) -> HWContext:
        """Resolve a paper-style label (``"A5"``/``"B2"``) to its context."""
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(
                f"no hardware context labeled {label!r}; "
                f"available: {sorted(self._by_label)}"
            ) from None

    def siblings(self, ctx: HWContext) -> List[HWContext]:
        """SMT siblings sharing the core with ``ctx`` (excluding itself)."""
        return [
            other
            for other in self.contexts
            if other.core_key == ctx.core_key and other.label != ctx.label
        ]

    def core_of(self, ctx: HWContext) -> Core:
        for chip in self.chips:
            for core in chip.cores:
                if core.key == ctx.core_key:
                    return core
        raise KeyError(f"context {ctx.label} not part of this topology")

    def chip_of(self, ctx: HWContext) -> Chip:
        return self.chips[ctx.chip]

    def restrict(self, labels: List[str]) -> "SystemTopology":
        """Return a topology exposing only the given context labels.

        Mirrors the paper's CPU-masking methodology (``maxcpus=`` plus
        explicit masking): the remaining contexts keep their identity so
        that resource-sharing relationships (SMT siblings, shared FSB) are
        preserved.
        """
        keep = set(labels)
        unknown = keep - set(self._by_label)
        if unknown:
            raise KeyError(f"unknown context labels: {sorted(unknown)}")
        chips: List[Chip] = []
        for chip in self.chips:
            new_cores = []
            for core in chip.cores:
                kept = [ctx for ctx in core.contexts if ctx.label in keep]
                if kept:
                    new_cores.append(
                        Core(chip=core.chip, index=core.index, contexts=kept)
                    )
            if new_cores:
                chips.append(Chip(index=chip.index, cores=new_cores))
        return SystemTopology(chips=chips, ht_enabled=self.ht_enabled)


def build_topology(
    n_chips: int = 2,
    cores_per_chip: int = 2,
    ht_enabled: bool = True,
    label_prefix: Optional[str] = None,
    threads_per_core: Optional[int] = None,
    chips_per_socket: int = 1,
) -> SystemTopology:
    """Build a full system topology with paper-style labels.

    Args:
        n_chips: number of physical packages.
        cores_per_chip: cores per package (2 for Paxville).
        ht_enabled: when True each core exposes its SMT contexts and
            labels use the ``A`` prefix; otherwise one context per core,
            ``B`` prefix.
        label_prefix: override the automatic A/B prefix (useful for tests).
        threads_per_core: SMT width of one core when HT is enabled
            (default 2, the paper's Hyper-Threading); HT off always
            exposes one context per core.
        chips_per_socket: chips sharing one NUMA node (1 everywhere
            except multi-chip-module packages).

    Returns:
        A :class:`SystemTopology`.
    """
    prefix = label_prefix if label_prefix is not None else ("A" if ht_enabled else "B")
    if threads_per_core is None:
        threads_per_core = 2
    smt = threads_per_core if ht_enabled else 1
    if smt < 1 or n_chips < 1 or cores_per_chip < 1 or chips_per_socket < 1:
        raise ValueError("topology dimensions must be >= 1")
    chips: List[Chip] = []
    cpu_id = 0
    for c in range(n_chips):
        cores = []
        for k in range(cores_per_chip):
            contexts = []
            for t in range(smt):
                contexts.append(
                    HWContext(
                        label=f"{prefix}{cpu_id}",
                        chip=c,
                        core=k,
                        thread=t,
                        cpu_id=cpu_id,
                        socket=c // chips_per_socket,
                    )
                )
                cpu_id += 1
            cores.append(Core(chip=c, index=k, contexts=contexts))
        chips.append(Chip(index=c, cores=cores))
    return SystemTopology(chips=chips, ht_enabled=ht_enabled)
