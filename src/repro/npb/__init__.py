"""NAS Parallel Benchmark (OpenMP) workload models.

Each benchmark module provides:

* ``dims(problem_class)`` — the official NPB problem dimensions;
* ``build(problem_class)`` — a :class:`~repro.trace.phase.Workload` whose
  phase descriptors (instruction volume, access mixture, footprints,
  branch behaviour) are derived from those dimensions;
* ``spec(problem_class)`` — the same workload captured as a declarative
  :class:`~repro.workload.spec.WorkloadSpec` (the registry entry).

Real NumPy mini-kernels of the same algorithms at reduced scale live
with the tests (``tests/oracles/npb_kernels.py``), as a check of the
numerics the workload models represent; the simulation never runs them.

The paper experiments with class B of CG, MG, SP, FT, LU and EP
(:data:`~repro.npb.suite.PAPER_BENCHMARKS`); IS and BT complete the suite.
"""

from repro.npb.common import ProblemClass, BenchmarkInfo, FLOP_TO_UOPS
from repro.npb.suite import (
    ALL_BENCHMARKS,
    PAPER_BENCHMARKS,
    UnknownBenchmarkError,
    benchmark_info,
    benchmark_spec,
    build_workload,
    resolve_benchmark,
)

__all__ = [
    "ProblemClass",
    "BenchmarkInfo",
    "FLOP_TO_UOPS",
    "ALL_BENCHMARKS",
    "PAPER_BENCHMARKS",
    "UnknownBenchmarkError",
    "benchmark_info",
    "benchmark_spec",
    "build_workload",
    "resolve_benchmark",
]
