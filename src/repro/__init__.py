"""repro — reproduction of *A Comprehensive Analysis of OpenMP
Applications on Dual-Core Intel Xeon SMPs* (Grant & Afsahi, IPDPS 2007)
on a simulated chip-multithreaded SMP.

The package builds the paper's entire experimental platform in software:

* :mod:`repro.machine` — the two-way dual-core Hyper-Threaded Xeon
  (Paxville) topology and the paper's Table-1 processor configurations;
* :mod:`repro.mem`, :mod:`repro.cpu` — caches, TLBs, branch prediction,
  SMT pipeline sharing, front-side bus and hardware prefetcher;
* :mod:`repro.osmodel`, :mod:`repro.openmp` — Linux-style thread
  placement and the OpenMP runtime cost model;
* :mod:`repro.npb` — workload models for the NAS Parallel Benchmarks;
* :mod:`repro.counters` — the VTune-style performance-counter taxonomy;
* :mod:`repro.sim` — the phase-level co-simulation engine;
* :mod:`repro.lmbench` — latency/bandwidth microbenchmarks;
* :mod:`repro.analysis`, :mod:`repro.experiments` — metric derivation and
  one driver per paper table/figure.

Entry point: :class:`repro.core.Study`.
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(namespace, exports):
    """PEP 562 ``__getattr__``/``__dir__`` for a package whose public
    names are re-exported from its submodules: each name's module is
    imported on first access, so importing the package stays cheap."""

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(
            importlib.import_module(module), name
        )
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Public name -> the module that defines it.  ``import repro`` -- and
#: every CLI command that never simulates -- loads neither numpy nor the
#: engine; ``from repro import Study`` imports what ``Study`` needs.
_EXPORTS = {
    "Study": "repro.core.study",
    "Engine": "repro.sim.engine",
    "CONFIGURATIONS": "repro.machine.configurations",
    "get_config": "repro.machine.configurations",
    "ALL_BENCHMARKS": "repro.npb.suite",
    "PAPER_BENCHMARKS": "repro.npb.suite",
    "build_workload": "repro.npb.suite",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
