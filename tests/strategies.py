"""Hypothesis strategies for random-but-valid machine descriptions.

The metamorphic suite (``tests/test_metamorphic.py``) asserts laws of
the simulator — larger caches never miss more, a faster bus never slows
a run down — over *arbitrary* machines, not just Paxville.  These
strategies generate those machines through
:meth:`~repro.machine.spec.MachineSpec.from_dict`, so every drawn spec
passed the same schema validation a spec file would: cache geometries
are constructed from (line, associativity, power-of-two set count)
triples instead of raw byte sizes, cross-field constraints (L2 lines at
least as large as L1 lines, L2 scope vs sharing) hold by construction,
and anything the schema would reject simply cannot be drawn.

It lives with the tests, not in the package, because it requires
``hypothesis`` (a ``test`` extra) and no product code draws from it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from hypothesis import strategies as st

from repro.machine.spec import MachineSpec
from repro.workload.spec import WorkloadSpec

__all__ = [
    "access_mix_lists",
    "cache_tables",
    "hierarchy_lists",
    "machine_params",
    "machine_specs",
    "machine_trees",
    "nlevel_machine_trees",
    "numa_topology_tables",
    "phase_tables",
    "workload_specs",
    "workload_trees",
]


def _pow2(min_exp: int, max_exp: int) -> st.SearchStrategy[int]:
    return st.integers(min_exp, max_exp).map(lambda e: 2 ** e)


def cache_tables(
    line_bytes: st.SearchStrategy[int],
    associativity: st.SearchStrategy[int],
    n_sets: st.SearchStrategy[int],
    latency_cycles: st.SearchStrategy[float],
) -> st.SearchStrategy[Dict[str, Any]]:
    """A sparse ``machine.<cache>`` table with valid geometry.

    ``size = line * associativity * sets`` with a power-of-two set
    count, so the dataclass invariants (size divisible by line,
    associativity divides the line count) hold for every draw.
    """
    return st.builds(
        lambda line, assoc, sets, lat: {
            "size_bytes": line * assoc * sets,
            "line_bytes": line,
            "associativity": assoc,
            "latency_cycles": lat,
        },
        line_bytes, associativity, n_sets, latency_cycles,
    )


def _core_tables() -> st.SearchStrategy[Dict[str, Any]]:
    return st.fixed_dictionaries({
        "clock_hz": st.floats(1.4e9, 4.2e9),
        "issue_width": st.floats(1.2, 2.4),
        "mlp": st.floats(1.5, 4.0),
    })


def _bus_tables() -> st.SearchStrategy[Dict[str, Any]]:
    # The system-level bandwidth is the chip bandwidth times a
    # saturation factor >= 1 (two chips never stream slower than one).
    return st.builds(
        lambda chip_read, sys_factor, write_frac: {
            "chip_read_bw": chip_read,
            "chip_write_bw": chip_read * write_frac,
            "system_read_bw": chip_read * sys_factor,
            "system_write_bw": chip_read * write_frac * sys_factor,
        },
        st.floats(2.0e9, 8.0e9),
        st.floats(1.05, 1.9),
        st.floats(0.4, 0.7),
    )


def _tlb_tables() -> st.SearchStrategy[Dict[str, Any]]:
    return st.fixed_dictionaries({
        "entries": _pow2(5, 8),
        "miss_penalty_cycles": st.floats(15.0, 60.0),
    })


def machine_trees() -> st.SearchStrategy[Dict[str, Any]]:
    """A sparse ``machine`` tree (the spec file's ``machine`` table).

    L1 lines are fixed at 64 B and L2 lines drawn from {64, 128} B, so
    the cross-field rule "L2 lines at least as large as L1 lines" holds
    by construction; sharing scopes keep the Paxville defaults (the
    schema ties them to the topology).  Omitted sections inherit the
    Paxville baseline, mirroring how spec files are written.
    """
    return st.fixed_dictionaries({
        "core": _core_tables(),
        "l1d": cache_tables(
            line_bytes=st.just(64),
            associativity=st.sampled_from([2, 4, 8]),
            n_sets=_pow2(4, 6),
            latency_cycles=st.floats(2.0, 6.0),
        ),
        "l2": cache_tables(
            line_bytes=st.sampled_from([64, 128]),
            associativity=st.sampled_from([4, 8]),
            n_sets=_pow2(8, 12),
            latency_cycles=st.floats(14.0, 40.0),
        ),
        "itlb": _tlb_tables(),
        "dtlb": _tlb_tables(),
        "bus": _bus_tables(),
        "memory_latency_ns": st.floats(70.0, 280.0),
    })


def hierarchy_lists(
    depth: Optional[st.SearchStrategy[int]] = None,
) -> st.SearchStrategy[list]:
    """An ordered ``machine.hierarchy`` list of 2-4 valid cache levels.

    One line size from {64, 128} B is used for the L2 and every outer
    level (L1 lines stay 64 B), so the "outer lines at least as large
    as inner lines" rule holds by construction.  Scopes widen outward
    (core -> chip -> socket/system) as the schema requires; sharer
    counts are left to the schema's topology-derived defaults.
    """
    def build(d, line, l1, l2_assoc, l2_sets, l2_lat,
              l3_sets, l3_lat, l4_scope, l4_sets, l4_lat):
        levels = [
            {"name": "l1d", "scope": "core", **l1},
            {
                "name": "l2", "scope": "core",
                "size_bytes": line * l2_assoc * l2_sets,
                "line_bytes": line,
                "associativity": l2_assoc,
                "latency_cycles": l2_lat,
            },
        ]
        if d >= 3:
            levels.append({
                "name": "l3", "scope": "chip",
                "size_bytes": line * 8 * l3_sets,
                "line_bytes": line,
                "associativity": 8,
                "latency_cycles": l3_lat,
            })
        if d >= 4:
            levels.append({
                "name": "l4", "scope": l4_scope,
                "size_bytes": line * 16 * l4_sets,
                "line_bytes": line,
                "associativity": 16,
                "latency_cycles": l4_lat,
            })
        return levels

    return st.builds(
        build,
        depth if depth is not None else st.integers(2, 4),
        st.sampled_from([64, 128]),
        cache_tables(
            line_bytes=st.just(64),
            associativity=st.sampled_from([2, 4, 8]),
            n_sets=_pow2(4, 6),
            latency_cycles=st.floats(2.0, 6.0),
        ),
        st.sampled_from([4, 8]),
        _pow2(8, 11),
        st.floats(12.0, 30.0),
        _pow2(11, 13),
        st.floats(32.0, 55.0),
        st.sampled_from(["socket", "system"]),
        _pow2(13, 15),
        st.floats(55.0, 90.0),
    )


def nlevel_machine_trees(
    depth: Optional[st.SearchStrategy[int]] = None,
) -> st.SearchStrategy[Dict[str, Any]]:
    """Sparse ``machine`` trees declaring an explicit N-level hierarchy.

    The ``hierarchy`` key replaces the legacy ``l1d``/``l2`` tables, so
    the draw exercises the declarative form the same way a modern spec
    file would (and the schema's clash check keeps the two exclusive).
    """
    return st.builds(
        lambda tree, hier: {
            **{k: v for k, v in tree.items() if k not in ("l1d", "l2")},
            "hierarchy": hier,
        },
        machine_trees(),
        hierarchy_lists(depth=depth),
    )


def numa_topology_tables() -> st.SearchStrategy[Dict[str, Any]]:
    """A two-socket ``machine.topology`` table with NUMA tiers.

    Off-diagonal latency multipliers are >= 1 and bandwidth multipliers
    in (0, 1], matching the schema's "remote is never better than
    local" invariants; the shape stays the Paxville 2s x 1 x 2c x 2t so
    every Table-1 configuration's labels exist.
    """
    def build(lat, bw):
        return {
            "sockets": 2,
            "chips_per_socket": 1,
            "cores_per_chip": 2,
            "threads_per_core": 2,
            "numa": {
                "latency_scale": [[1.0, lat], [lat, 1.0]],
                "bandwidth_scale": [[1.0, bw], [bw, 1.0]],
            },
        }

    return st.builds(build, st.floats(1.0, 2.5), st.floats(0.4, 1.0))


def machine_specs(
    name: str = "hypothesis-machine",
    trees: Optional[st.SearchStrategy[Dict[str, Any]]] = None,
) -> st.SearchStrategy[MachineSpec]:
    """Random valid :class:`~repro.machine.spec.MachineSpec` instances.

    Every draw goes through :meth:`MachineSpec.from_dict` — the same
    code path as a spec file — so schema validation is part of the
    strategy, not an afterthought in the test.
    """
    return (trees if trees is not None else machine_trees()).map(
        lambda tree: MachineSpec.from_dict({
            "schema": 1,
            "name": name,
            "description": "hypothesis-generated machine",
            "machine": tree,
        })
    )


def machine_params():
    """Random valid engine-facing parameter bundles."""
    return machine_specs().map(lambda spec: spec.to_params())


# ---------------------------------------------------------------------------
# Workload specs (mirrors the machine strategies: every draw goes through
# WorkloadSpec.from_dict, so schema validation is part of the strategy)
# ---------------------------------------------------------------------------

def _streaming_tables() -> st.SearchStrategy[Dict[str, Any]]:
    return st.fixed_dictionaries({
        "kind": st.just("streaming"),
        "footprint_bytes": _pow2(16, 28).map(float),
        "stride_bytes": st.sampled_from([8, 16, 64]),
        "passes": st.floats(1.0, 64.0),
    })


def _random_tables() -> st.SearchStrategy[Dict[str, Any]]:
    return st.fixed_dictionaries({
        "kind": st.just("random"),
        "footprint_bytes": _pow2(12, 26).map(float),
        "partitioned": st.booleans(),
        "shared_fraction": st.floats(0.0, 1.0),
    })


def _stencil_tables() -> st.SearchStrategy[Dict[str, Any]]:
    return st.builds(
        lambda fp, win_frac, hit: {
            "kind": "stencil",
            "footprint_bytes": float(fp),
            "reuse_window_bytes": float(fp) * win_frac,
            "stride_bytes": 8,
            "window_hit_fraction": hit,
        },
        _pow2(18, 28),
        st.floats(0.01, 0.25),
        st.floats(0.3, 0.9),
    )


def access_mix_lists() -> st.SearchStrategy[list]:
    """A valid ``access_mix`` list of 1-2 components.

    Two-component draws use ``(w, 1 - w)`` weights, so the "weights sum
    to 1" invariant holds by construction for every draw.
    """
    component = st.one_of(
        _streaming_tables(), _random_tables(), _stencil_tables()
    )

    def weighted(pair_and_w):
        (a, b), w = pair_and_w
        return [{**a, "weight": w}, {**b, "weight": 1.0 - w}]

    two = st.tuples(
        st.tuples(component, component),
        st.floats(0.05, 0.95),
    ).map(weighted)
    one = component.map(lambda c: [{**c, "weight": 1.0}])
    return st.one_of(one, two)


def phase_tables(
    name: st.SearchStrategy[str] = st.just("phase"),
) -> st.SearchStrategy[Dict[str, Any]]:
    """A complete spec ``phases`` entry satisfying every Phase invariant."""
    return st.fixed_dictionaries({
        "name": name,
        "openmp": st.sampled_from(["parallel", "serial"]),
        "instructions": st.floats(1e6, 1e11),
        "mem_ops_per_instr": st.floats(0.05, 0.7),
        "access_mix": access_mix_lists(),
        "code_footprint_uops": st.floats(1e3, 1e5),
        "code_footprint_bytes": st.floats(4e3, 4e5),
        "branches_per_instr": st.floats(0.01, 0.2),
        "branch_misp_intrinsic": st.floats(0.0, 0.02),
        "branch_sites": st.integers(4, 400),
        "ilp": st.floats(1.0, 3.0),
        "load_fraction": st.floats(0.4, 1.0),
        "imbalance": st.floats(0.0, 0.4),
        "prefetchability": st.floats(0.0, 1.0),
        "barriers": st.integers(0, 64),
        "iterations": st.integers(1, 64),
        "mlp": st.floats(0.0, 8.0),
    })


def workload_trees(
    n_phases: Optional[st.SearchStrategy[int]] = None,
) -> st.SearchStrategy[Dict[str, Any]]:
    """A root-form spec tree (no inheritance) with 1-3 distinct phases."""
    def build(n, phases, pclass):
        named = [
            {**p, "name": f"phase{i}"} for i, p in enumerate(phases[:n])
        ]
        return {
            "schema": 1,
            "name": "hypothesis-workload",
            "description": "hypothesis-generated workload",
            "workload": {"problem_class": pclass, "phases": named},
        }

    return st.builds(
        build,
        n_phases if n_phases is not None else st.integers(1, 3),
        st.lists(phase_tables(), min_size=3, max_size=3),
        st.sampled_from(["S", "W", "A", "B", "C"]),
    )


def workload_specs(
    trees: Optional[st.SearchStrategy[Dict[str, Any]]] = None,
) -> st.SearchStrategy[WorkloadSpec]:
    """Random valid :class:`~repro.workload.spec.WorkloadSpec` instances,
    built through :meth:`WorkloadSpec.from_dict` like a spec file."""
    return (trees if trees is not None else workload_trees()).map(
        WorkloadSpec.from_dict
    )
