"""Suite registry: build any NAS workload model by name.

Since the :class:`~repro.workload.spec.WorkloadSpec` layer landed, the
eight NAS modules are spec *producers*: :func:`benchmark_spec` captures
each module's built workload as a validated, fingerprintable spec, and
:func:`build_workload` builds through that spec.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Union

from repro.npb import bt, cg, ep, ft, is_, lu, mg, sp
from repro.npb.common import BenchmarkInfo, ProblemClass
from repro.trace.phase import Workload

_MODULES = {
    "CG": cg,
    "MG": mg,
    "FT": ft,
    "EP": ep,
    "IS": is_,
    "SP": sp,
    "LU": lu,
    "BT": bt,
}

#: Every benchmark of the NAS OpenMP suite we model.
ALL_BENCHMARKS: List[str] = sorted(_MODULES)

#: The six class-B benchmarks the paper studies (Section 3.2; names
#: reconstructed from the garbled OCR, see EXPERIMENTS.md §reconstruction).
PAPER_BENCHMARKS: List[str] = ["CG", "MG", "SP", "FT", "LU", "EP"]

class UnknownBenchmarkError(KeyError):
    """An unknown NAS benchmark name (the CLI maps this to exit 2)."""

    def __init__(self, name: str, valid: List[str]):
        import difflib

        self.benchmark = name
        self.valid = list(valid)
        self.suggestion: Optional[str] = next(
            iter(
                difflib.get_close_matches(
                    name.upper(), self.valid, n=1
                )
            ),
            None,
        )
        message = (
            f"unknown benchmark {name!r}; available: {', '.join(valid)}"
        )
        if self.suggestion is not None:
            message += f" (did you mean {self.suggestion!r}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its payload by default
        return self.args[0]


def resolve_benchmark(name: str) -> str:
    """Canonical (upper-case) benchmark key, validated.

    The single unknown-name path: every suite entry point funnels
    through here, so the "did you mean" suggestion is uniform.
    """
    key = name.upper()
    if key not in _MODULES:
        raise UnknownBenchmarkError(name, ALL_BENCHMARKS)
    return key


def _resolve_class(
    problem_class: Union[ProblemClass, str]
) -> ProblemClass:
    if isinstance(problem_class, ProblemClass):
        return problem_class
    return ProblemClass.from_str(problem_class)


# The memo bound is nominal: the whole NAS space is 8 benchmarks x 5
# classes = 40 entries, so 64 is never evicted in practice — it exists
# to cap memory for pathological callers now that workload counts are
# user-extensible.  (Registry-level workloads are *not* cached here:
# repro.workload.registry invalidates on the spec directory's mtime
# signature instead, which an lru_cache cannot express.)
@functools.lru_cache(maxsize=64)
def _spec_cached(key: str, problem_class: ProblemClass):
    return _MODULES[key].spec(problem_class)


def benchmark_spec(
    name: str, problem_class: Union[ProblemClass, str] = ProblemClass.B
):
    """The benchmark as a :class:`~repro.workload.spec.WorkloadSpec`.

    Specs are immutable and depend only on (benchmark, class), so they
    are shared process-wide — every study sees the *same* phase objects,
    which also lets the pure per-mix memoization in
    :mod:`repro.trace.patterns` hit across studies.
    """
    return _spec_cached(resolve_benchmark(name), _resolve_class(problem_class))


def build_workload(
    name: str, problem_class: Union[ProblemClass, str] = ProblemClass.B
) -> Workload:
    """Build a benchmark workload model by name (case-insensitive)."""
    return _spec_cached(
        resolve_benchmark(name), _resolve_class(problem_class)
    ).build()


def benchmark_info(name: str) -> BenchmarkInfo:
    """Static description of a benchmark."""
    return _MODULES[resolve_benchmark(name)].INFO
