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

from repro.core import Study
from repro.machine import CONFIGURATIONS, get_config
from repro.npb import ALL_BENCHMARKS, PAPER_BENCHMARKS, build_workload
from repro.sim import Engine

__version__ = "1.0.0"

__all__ = [
    "Study",
    "Engine",
    "CONFIGURATIONS",
    "get_config",
    "ALL_BENCHMARKS",
    "PAPER_BENCHMARKS",
    "build_workload",
    "__version__",
]
