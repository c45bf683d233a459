"""Metamorphic and property-based laws of the simulator.

Each property asserts a *relation between runs* (or an invariant of a
single run) over randomized-but-valid machines drawn from
``tests/strategies.py`` — not a point check against a golden
number.  The laws:

1.  spec determinism — identical trees produce identical fingerprints
    and parameter bundles;
2.  run determinism — the same (machine, workload, config) always
    produces identical results;
3.  a larger L2 never increases the L2 miss count (single program);
4.  a faster bus never increases runtime;
5.  slower memory never decreases runtime;
6.  a faster clock never increases runtime;
7.  the invariant auditor is clean on every random machine;
8.  instruction conservation holds on every random machine;
9.  structural counter closures hold on every random machine;
10. cache batch replay agrees bit-for-bit with the per-access oracle;
11. TLB batch replay agrees bit-for-bit with the per-access oracle;
12. a workload with no parallel phases is invariant to the team size;
13. a larger last-level cache never increases the last-level miss
    count, whatever the hierarchy depth (2-4 levels);
14. declaring NUMA tiers (remote latency >= local, remote bandwidth
    <= local) never speeds a cross-socket run up;
15. a larger working set (triad elements x2/x4/x8 at fixed repetitions)
    never produces fewer last-level cache misses;
16. a more memory-bound workload (higher mem_ops_per_instr, all else
    equal) never runs faster on a fixed machine.

Profiles: randomized under the ``dev`` Hypothesis profile, fixed-seed
deterministic under ``ci`` (see tests/conftest.py and docs/TESTING.md).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import verify
from repro.core.context import override
from repro.counters.events import Event
from repro.machine.configurations import get_config
from repro.machine.params import CacheParams, TLBParams
from repro.machine.spec import MachineSpec
from repro.mem.cache import SetAssocCache
from repro.mem.tlb import TLB
from repro.npb.suite import build_workload
from repro.sim.engine import Engine
from tests.oracles.replay import cache_run_misses, tlb_run_misses
from tests.strategies import (
    machine_trees,
    nlevel_machine_trees,
    numa_topology_tables,
)

WORKLOAD = build_workload("CG", "B")
CONFIG = get_config("ht_off_2_1")


def _spec(tree):
    return MachineSpec.from_dict({
        "schema": 1,
        "name": "metamorphic",
        "description": "metamorphic test machine",
        "machine": tree,
    })


def _run(tree, workload=WORKLOAD, config=CONFIG):
    return Engine(config, params=_spec(tree).to_params()).run_single(workload)


def _scaled_bus(tree, factor):
    out = dict(tree)
    out["bus"] = {k: v * factor for k, v in tree["bus"].items()}
    return out


class TestSpecLaws:
    @given(machine_trees())
    @settings(max_examples=20)
    def test_identical_trees_identical_specs(self, tree):
        a, b = _spec(tree), _spec(tree)
        assert a.fingerprint == b.fingerprint
        assert a.to_params() == b.to_params()

    @given(machine_trees(), st.floats(1.25, 4.0))
    @settings(max_examples=20)
    def test_distinct_machines_distinct_fingerprints(self, tree, factor):
        assert _spec(tree).fingerprint != _spec(
            _scaled_bus(tree, factor)
        ).fingerprint


class TestMetamorphicRelations:
    @given(machine_trees())
    @settings(max_examples=5)
    def test_run_deterministic(self, tree):
        a, b = _run(tree), _run(tree)
        assert a.runtime_seconds == b.runtime_seconds
        ta, tb = a.collector.total(), b.collector.total()
        for event in Event:
            assert ta[event] == tb[event], event

    @given(machine_trees())
    @settings(max_examples=5)
    def test_larger_l2_never_more_misses(self, tree):
        bigger = dict(tree)
        bigger["l2"] = dict(tree["l2"], size_bytes=tree["l2"]["size_bytes"] * 2)
        base = _run(tree).collector.total()[Event.L2_MISS]
        grown = _run(bigger).collector.total()[Event.L2_MISS]
        assert grown <= base * (1 + 1e-9)

    @given(machine_trees(), st.floats(1.25, 4.0))
    @settings(max_examples=5)
    def test_faster_bus_never_slower(self, tree, factor):
        base = _run(tree).runtime_seconds
        fast = _run(_scaled_bus(tree, factor)).runtime_seconds
        assert fast <= base * (1 + 1e-9)

    @given(machine_trees(), st.floats(1.25, 4.0))
    @settings(max_examples=5)
    def test_slower_memory_never_faster(self, tree, factor):
        slower = dict(tree, memory_latency_ns=tree["memory_latency_ns"] * factor)
        base = _run(tree).runtime_seconds
        slow = _run(slower).runtime_seconds
        assert slow >= base * (1 - 1e-9)

    @given(machine_trees(), st.floats(1.25, 2.0))
    @settings(max_examples=5)
    def test_faster_clock_never_slower(self, tree, factor):
        boosted = dict(tree)
        boosted["core"] = dict(
            tree["core"], clock_hz=tree["core"]["clock_hz"] * factor
        )
        base = _run(tree).runtime_seconds
        fast = _run(boosted).runtime_seconds
        assert fast <= base * (1 + 1e-9)

    @given(machine_trees(), st.sampled_from([2, 4]))
    @settings(max_examples=5)
    def test_serial_workload_invariant_to_team_size(self, tree, threads):
        # Serial phases run on the master thread only (n_work == 1), so
        # on a fixed configuration the requested team size must not
        # change the result at all.  (Across *configurations* the result
        # may differ: topology-dependent CPI terms are legitimate.)
        serial_only = dataclasses.replace(
            WORKLOAD,
            phases=tuple(
                dataclasses.replace(p, parallel=False)
                for p in WORKLOAD.phases
            ),
        )
        engine = Engine(
            get_config("ht_off_4_2"), params=_spec(tree).to_params()
        )
        solo = engine.run_single(serial_only, n_threads=1)
        team = engine.run_single(serial_only, n_threads=threads)
        assert team.runtime_seconds == solo.runtime_seconds


class TestWorkloadRelations:
    """Laws 15-16: relations over the *workload* axis, machines fixed
    per example (drawn from the same spec-schema strategies)."""

    @given(machine_trees(), st.sampled_from([2, 4, 8]))
    @settings(max_examples=5)
    def test_larger_working_set_never_fewer_llc_misses(self, tree, factor):
        from repro.npb.common import ProblemClass
        from repro.workload.families import rzbench

        small = rzbench.triad_build(
            ProblemClass.B, elements=2 ** 18, repetitions=8
        )
        large = rzbench.triad_build(
            ProblemClass.B, elements=2 ** 18 * factor, repetitions=8
        )
        base = _run(tree, workload=small).collector.total()[Event.L2_MISS]
        grown = _run(tree, workload=large).collector.total()[Event.L2_MISS]
        assert grown >= base * (1 - 1e-9)

    @given(machine_trees(), st.floats(0.1, 0.45), st.floats(1.2, 2.0))
    @settings(max_examples=5)
    def test_more_memory_bound_never_faster(self, tree, mem, boost):
        from repro.npb.common import ProblemClass
        from repro.workload.families import rzbench

        lighter = rzbench.triad_build(
            ProblemClass.B, elements=2 ** 20, repetitions=8,
            mem_ops_per_instr=mem,
        )
        heavier = rzbench.triad_build(
            ProblemClass.B, elements=2 ** 20, repetitions=8,
            mem_ops_per_instr=min(mem * boost, 0.9),
        )
        base = _run(tree, workload=lighter).runtime_seconds
        bound = _run(tree, workload=heavier).runtime_seconds
        assert bound >= base * (1 - 1e-9)


class TestHierarchyAndTopologyRelations:
    @given(nlevel_machine_trees())
    @settings(max_examples=5)
    def test_larger_llc_never_more_misses(self, tree):
        hier = tree["hierarchy"]
        bigger = dict(tree)
        bigger["hierarchy"] = [dict(lvl) for lvl in hier]
        bigger["hierarchy"][-1]["size_bytes"] *= 2
        event = {
            2: Event.L2_MISS, 3: Event.L3_MISS, 4: Event.L4_MISS,
        }[len(hier)]
        base = _run(tree).collector.total()[event]
        grown = _run(bigger).collector.total()[event]
        assert grown <= base * (1 + 1e-9)

    @given(machine_trees(), numa_topology_tables())
    @settings(max_examples=5)
    def test_remote_tiers_never_speed_up(self, tree, topo):
        # A cross-socket configuration, so one thread really does reach
        # memory homed on the other socket (single-socket runs see only
        # the unit diagonal and must be bit-identical instead).
        config = get_config("ht_off_2_2")
        tiered = dict(tree, topology=topo)
        base = _run(tree, config=config).runtime_seconds
        remote = _run(tiered, config=config).runtime_seconds
        assert remote >= base * (1 - 1e-9)

    @given(nlevel_machine_trees())
    @settings(max_examples=5)
    def test_auditor_clean_on_nlevel_machines(self, tree):
        before = verify.stats().snapshot()
        with override(verify=True):
            _run(tree)
        delta = verify.stats().since(before)
        assert delta.runs == 1 and delta.violations == 0
        assert delta.checks > 0


class TestInvariantsOnRandomMachines:
    @given(machine_trees())
    @settings(max_examples=5)
    def test_auditor_clean(self, tree):
        before = verify.stats().snapshot()
        with override(verify=True):
            _run(tree)  # the auditor raises on any violation
        delta = verify.stats().since(before)
        assert delta.runs == 1 and delta.violations == 0
        assert delta.checks > 0

    @given(machine_trees())
    @settings(max_examples=5)
    def test_instruction_conservation(self, tree):
        total = _run(tree).collector.total()
        assert total[Event.INSTR_RETIRED] == pytest.approx(
            WORKLOAD.total_instructions, rel=1e-6
        )

    @given(machine_trees())
    @settings(max_examples=5)
    def test_counter_closures(self, tree):
        cs = _run(tree).collector.total()
        assert cs[Event.L1D_MISS] <= cs[Event.L1D_ACCESS] + 1e-6
        assert cs[Event.L2_MISS] <= cs[Event.L2_ACCESS] + 1e-6
        assert cs[Event.L2_ACCESS] == pytest.approx(
            cs[Event.L1D_MISS], rel=1e-9
        )
        assert cs[Event.STALL_CYCLES] <= cs[Event.CYCLES] + 1e-6


class TestVectorizedScalarAgreement:
    @given(
        st.sampled_from([2, 4, 8]),
        st.integers(4, 7).map(lambda e: 2 ** e),
        st.integers(0, 2 ** 32),
        st.integers(200, 600),
    )
    @settings(max_examples=10)
    def test_cache_paths_agree(self, assoc, n_sets, seed, n):
        params = CacheParams(
            size_bytes=64 * assoc * n_sets,
            line_bytes=64,
            associativity=assoc,
            latency_cycles=4.0,
        )
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 22, size=n, dtype=np.int64)
        contexts = rng.integers(0, 4, size=n, dtype=np.int64)

        scalar = SetAssocCache(params)
        batch = SetAssocCache(params)
        flags_scalar = cache_run_misses(scalar, addresses, contexts)
        flags_batch = batch.run_misses(addresses, contexts)
        assert np.array_equal(flags_scalar, flags_batch)
        assert scalar.stats.accesses == batch.stats.accesses
        assert scalar.stats.misses == batch.stats.misses
        # Way ordering within a set may differ between the two paths;
        # the resident *lines* per set must not.
        assert np.array_equal(
            np.sort(scalar._tags, axis=1), np.sort(batch._tags, axis=1)
        )

    @given(
        st.integers(4, 7).map(lambda e: 2 ** e),
        st.integers(0, 2 ** 32),
        st.integers(200, 600),
    )
    @settings(max_examples=10)
    def test_tlb_paths_agree(self, entries, seed, n):
        params = TLBParams(entries=entries, miss_penalty_cycles=30.0)
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 28, size=n, dtype=np.int64)

        scalar = TLB(params)
        batch = TLB(params)
        flags_scalar = tlb_run_misses(scalar, addresses)
        flags_batch = batch.run_misses(addresses)
        assert np.array_equal(flags_scalar, flags_batch)
