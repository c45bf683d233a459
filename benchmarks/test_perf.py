"""Microbenchmarks for the simulation hot paths (pytest-benchmark).

Not part of the default test suite (``testpaths`` excludes this
directory).  Typical usage::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \
        --benchmark-json=/tmp/bench_new.json
    python tools/bench_compare.py BENCH_baseline.json /tmp/bench_new.json

``BENCH_baseline.json`` at the repository root is the committed
reference; ``tools/bench_compare.py`` exits non-zero when a benchmark
regresses more than its threshold (25 % by default), for use as a CI
gate.  Regenerate the baseline with the first command above (writing to
``BENCH_baseline.json``) whenever a deliberate performance change lands.
"""

import numpy as np
import pytest

from repro.core.runcache import RunCache

# Every benchmark here is a sub-second micro-measurement, so the whole
# module doubles as the CI smoke subset (run with --benchmark-disable).
pytestmark = pytest.mark.smoke
from repro.core.study import Study
from repro.machine.params import CacheParams
from repro.machine.registry import resolve_machine
from repro.mem.cache import SetAssocCache
from repro.npb.suite import build_workload
from repro.sim.structural import SharingScenario, StructuralCoSimulator
from tests.oracles.replay import ScalarCoSimulator


@pytest.fixture(scope="module")
def scenario():
    return SharingScenario(
        phase=build_workload("CG", "B").phases[-1], n_threads=4
    )


def test_structural_replay_vectorized(benchmark, scenario):
    sim = StructuralCoSimulator(samples=30000)
    benchmark(sim.measure, scenario)


def test_structural_replay_scalar(benchmark, scenario):
    # The per-access oracle replay: the reference the batched path's
    # speedup is measured against.
    sim = ScalarCoSimulator(samples=30000)
    benchmark.pedantic(sim.measure, args=(scenario,), rounds=3)


def test_cache_batch_run_200k(benchmark):
    params = CacheParams(
        size_bytes=16 * 1024, line_bytes=64, associativity=8,
        latency_cycles=3,
    )
    rng = np.random.default_rng(7)
    addrs = rng.integers(0, 1 << 22, size=200_000, dtype=np.int64)

    def run():
        cache = SetAssocCache(params)
        return cache.run(addrs)

    benchmark(run)


def test_analytic_run_uncached(benchmark):
    study = Study("B")

    # Calling the engine directly bypasses the run cache, so this
    # measures the analytic model itself.
    def run():
        return study.engine("ht_off_4_2").run_single(study.workload("CG"))

    benchmark(run)


def test_analytic_run_spec_machine(benchmark):
    # Same engine path, but with parameters that travelled through the
    # declarative spec layer (registry lookup -> validate -> to_params).
    # Gates the MachineSpec refactor: it must add no steady-state cost
    # over the hand-constructed params of test_analytic_run_uncached.
    study = Study("B", params=resolve_machine("paxville").to_params())

    def run():
        return study.engine("ht_off_4_2").run_single(study.workload("CG"))

    benchmark(run)


def test_analytic_run_three_level(benchmark):
    # Same engine path again, on a three-level (L1/L2/shared-L3) spec.
    # Gates the N-level LevelRates chain: the extra-levels loop must add
    # only its own level's cost on top of test_analytic_run_spec_machine.
    study = Study(
        "B", params=resolve_machine("broadwell-shared-l3").to_params()
    )

    def run():
        return study.engine("ht_off_4_2").run_single(study.workload("CG"))

    benchmark(run)


def test_analytic_run_pair_uncached(benchmark):
    # The multiprogram scalar path: two 4-thread teams on all eight
    # contexts of ht_on_8_2, so every step resolves two programs that
    # share cores, chips and the bus.
    study = Study("B")

    def run():
        return study.engine("ht_on_8_2").run_pair(
            study.workload("CG"), study.workload("FT")
        )

    benchmark(run)


def test_spec_resolve_and_materialize(benchmark):
    # Registry lookup + schema validation + params materialization —
    # the per-invocation overhead `--machine <name>` adds to the CLI.
    def run():
        return resolve_machine("paxville").to_params()

    benchmark(run)


def test_run_cache_hit(benchmark):
    cache = RunCache()
    cache.put("fp", ("single", "CG", "ht_off_4_2"), {"payload": 1})
    benchmark(cache.get, "fp", ("single", "CG", "ht_off_4_2"))
