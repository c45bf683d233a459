"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.counters.collector import Collector, CounterSet
from repro.counters.timeline import Timeline
from repro.counters.metrics import DerivedMetrics, derive_metrics
from repro.machine.configurations import MachineConfig
from repro.osmodel.process import ProgramSpec


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase trace entry for debugging and ablation studies."""

    program_id: int
    phase_name: str
    wall_seconds: float
    mean_cpi: float
    bus_utilization: float


@dataclass
class ProgramResult:
    """Outcome of one program in a run."""

    spec: ProgramSpec
    runtime_seconds: float
    counters: CounterSet

    @property
    def metrics(self) -> DerivedMetrics:
        return derive_metrics(self.counters)

    @property
    def name(self) -> str:
        return self.spec.workload.name


@dataclass
class RunResult:
    """Outcome of a whole simulation run (one or more programs)."""

    config: MachineConfig
    programs: List[ProgramResult]
    collector: Collector
    phase_log: List[PhaseRecord] = field(default_factory=list)
    timeline: Timeline = field(default_factory=Timeline)

    def __post_init__(self) -> None:
        # A finished run's counters are only read from here on (and may
        # sit in the run cache for the life of the process): pack them.
        self.collector.freeze()
        for p in self.programs:
            p.counters.freeze()

    @property
    def runtime_seconds(self) -> float:
        """Single-program runtime; for multiprogram, the last finisher."""
        return max(p.runtime_seconds for p in self.programs)

    def program(self, program_id: int) -> ProgramResult:
        for p in self.programs:
            if p.spec.program_id == program_id:
                return p
        raise KeyError(f"no program with id {program_id}")

    def metrics(self, program_id: Optional[int] = None) -> DerivedMetrics:
        """Derived metrics for one program (or the whole run)."""
        if program_id is None:
            return derive_metrics(self.collector.total())
        return self.program(program_id).metrics

    def speedup_over(self, serial_runtime: float, program_id: int = 0) -> float:
        """Wall-clock speedup of a program versus a serial baseline."""
        rt = self.program(program_id).runtime_seconds
        if rt <= 0:
            raise ValueError("program runtime must be positive")
        return serial_runtime / rt
