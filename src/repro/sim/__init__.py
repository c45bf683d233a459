"""Simulation engine binding machine + OS + OpenMP + workloads.

:class:`~repro.sim.engine.Engine` executes one or more multithreaded
programs on a machine configuration, phase by phase, resolving cache
sharing, SMT issue contention, branch-predictor pollution and front-side
bus contention as coupled fixed points, and accumulating PMU counters.
Concurrent programs are co-simulated phase-pair by phase-pair, so
asymmetric mixes (the paper's CG/FT workload) interact faithfully.

The engine is a thin step loop over three pluggable pieces: a
:class:`~repro.sim.resolver.ContentionResolver` (the coupled-contention
fixed point), the :class:`~repro.sim.advance.TimeAccountant`
(wall-time projection + PMU accounting), and
:class:`~repro.sim.observer.SimObserver` hooks (timeline, phase log,
and any user-supplied tracing).
"""

from repro import _lazy_exports

#: Public name -> the module that defines it, imported on first access:
#: importing one ``repro.sim`` submodule does not load the engine.
_EXPORTS = {
    "Engine": "repro.sim.engine",
    "Progress": "repro.sim.advance",
    "TimeAccountant": "repro.sim.advance",
    "PhaseEvent": "repro.sim.observer",
    "PhaseLogObserver": "repro.sim.observer",
    "SimObserver": "repro.sim.observer",
    "StepEvent": "repro.sim.observer",
    "TimelineObserver": "repro.sim.observer",
    "ActiveContext": "repro.sim.resolver",
    "ContentionResolver": "repro.sim.resolver",
    "FixedPointResolver": "repro.sim.resolver",
    "ResolvedContext": "repro.sim.resolver",
    "ProgramResult": "repro.sim.results",
    "RunResult": "repro.sim.results",
    "PhaseRecord": "repro.sim.results",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
