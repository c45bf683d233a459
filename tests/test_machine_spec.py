"""Tests for the declarative MachineSpec layer and the machine registry."""

import dataclasses
import sys
from operator import attrgetter

import pytest

from repro.machine.params import paxville_params
from repro.machine.registry import (
    DEFAULT_MACHINE,
    UnknownMachineError,
    default_params,
    list_machines,
    machines_dir,
    resolve_machine,
)
from repro.machine.spec import (
    SPEC_SCHEMA_VERSION,
    MachineSpec,
    SpecError,
    SpecOverride,
    load_spec,
)


def paxville_spec() -> MachineSpec:
    return MachineSpec.from_params("paxville", paxville_params())


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = paxville_spec()
        again = MachineSpec.from_dict(spec.to_dict())
        assert again.params == spec.params
        assert again.fingerprint == spec.fingerprint

    def test_save_load_identity(self, tmp_path):
        spec = paxville_spec()
        path = spec.save(tmp_path / "pax.json")
        loaded = load_spec(path)
        assert loaded.params == spec.params
        assert loaded.fingerprint == spec.fingerprint
        assert loaded.source == path
        # Provenance is excluded from identity.
        assert loaded == spec

    def test_json_float_round_trip_is_exact(self, tmp_path):
        """JSON serialization must not perturb a single float, or the
        byte-identical artifact guarantee would silently break."""
        spec = paxville_spec()
        loaded = load_spec(spec.save(tmp_path / "pax.json"))
        assert loaded.to_params() == paxville_params()

    def test_checked_in_paxville_file_matches_builtin(self):
        directory = machines_dir()
        if directory is None:  # pragma: no cover - installed package
            pytest.skip("no machines/ directory in this deployment")
        loaded = load_spec(directory / "paxville.json")
        assert loaded.to_params() == paxville_params()

    def test_sparse_spec_inherits_paxville_defaults(self):
        spec = MachineSpec.from_dict({
            "name": "slow-memory",
            "machine": {"memory_latency_ns": 200.0},
        })
        assert spec.params.memory_latency_ns == 200.0
        assert spec.params.bus == paxville_params().bus

    def test_toml_spec_loads(self):
        directory = machines_dir()
        if directory is None:  # pragma: no cover - installed package
            pytest.skip("no machines/ directory in this deployment")
        if sys.version_info < (3, 11):  # pragma: no cover
            pytest.skip("tomllib requires Python 3.11+")
        spec = load_spec(directory / "paxville-fast-bus.toml")
        assert spec.name == "paxville-fast-bus"
        base = paxville_params()
        assert spec.params.bus.chip_read_bw > base.bus.chip_read_bw
        # Sparse TOML: untouched sections inherit the baseline.
        assert spec.params.l2 == base.l2


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="l3"):
            MachineSpec.from_dict({"name": "x", "machine": {"l3": {}}})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="machine.l2"):
            MachineSpec.from_dict(
                {"name": "x", "machine": {"l2": {"sets": 4}}}
            )

    def test_wrong_leaf_type_rejected(self):
        with pytest.raises(SpecError, match="machine.l2.size_bytes"):
            MachineSpec.from_dict(
                {"name": "x", "machine": {"l2": {"size_bytes": "big"}}}
            )

    def test_bool_is_not_a_number(self):
        with pytest.raises(SpecError, match="memory_latency_ns"):
            MachineSpec.from_dict(
                {"name": "x", "machine": {"memory_latency_ns": True}}
            )

    def test_missing_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            MachineSpec.from_dict({"machine": {}})

    def test_future_schema_rejected(self):
        with pytest.raises(SpecError, match="schema version"):
            MachineSpec.from_dict(
                {"schema": SPEC_SCHEMA_VERSION + 1, "name": "x"}
            )

    def test_nonpositive_memory_latency_rejected(self):
        with pytest.raises(SpecError, match="memory_latency_ns"):
            MachineSpec.from_dict(
                {"name": "x", "machine": {"memory_latency_ns": 0.0}}
            )

    def test_core_private_l2_sharing_cross_check(self):
        with pytest.raises(SpecError, match="shared_contexts"):
            MachineSpec.from_dict(
                {"name": "x", "machine": {"l2": {"shared_contexts": 8}}}
            )

    def test_l2_lines_at_least_l1_lines(self):
        with pytest.raises(SpecError, match="line"):
            MachineSpec.from_dict(
                {"name": "x", "machine": {"l2": {"line_bytes": 32}}}
            )

    def test_inconsistent_scope_rejected_on_every_load_path(self):
        """Regression: a chip-scoped L2 keeping the private-L2 sharer
        count (2 on the stock topology, where a chip holds 4 contexts)
        used to be accepted when the params were built directly instead
        of through a spec file.  The topology-aware validator now lives
        on MachineParams itself, so every route rejects it."""
        # Direct construction / with_overrides (the once-silent path).
        with pytest.raises(ValueError, match="shared_contexts"):
            paxville_params().with_overrides(l2_scope="chip")
        # The spec file path.
        with pytest.raises(SpecError, match="shared_contexts"):
            MachineSpec.from_dict({
                "name": "x",
                "machine": {"l2": {"shared_contexts": 2},
                            "l2_scope": "chip"},
            })
        # The override/derivation path.
        with pytest.raises(SpecError, match="shared_contexts"):
            paxville_spec().override(SpecOverride.set("l2_scope", "chip"))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "machine.yaml"
        path.write_text("name: x")
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec(path)


class TestSpecOverride:
    def test_set(self):
        spec = paxville_spec().override(
            SpecOverride.set("l2.size_bytes", 4 * 1024 * 1024)
        )
        assert spec.params.l2.size_bytes == 4 * 1024 * 1024
        assert spec.name == "paxville+l2.size_bytes"

    def test_scale(self):
        base = paxville_spec()
        spec = base.override(SpecOverride.scaled("bus.chip_read_bw", 2.0))
        assert spec.params.bus.chip_read_bw == pytest.approx(
            2.0 * base.params.bus.chip_read_bw
        )

    def test_scalar_leaf(self):
        spec = paxville_spec().override(
            SpecOverride.set("l2_scope", "chip"),
            SpecOverride.set("l2.shared_contexts", 4),
            name="pooled",
        )
        assert spec.name == "pooled"
        assert spec.params.l2_scope == "chip"

    def test_bad_path_raises(self):
        with pytest.raises(SpecError, match="unknown field"):
            paxville_spec().override(SpecOverride.set("l2.sets", 4))

    def test_bad_section_raises(self):
        with pytest.raises(SpecError, match="not a section"):
            paxville_spec().override(SpecOverride.set("l9.size_bytes", 4))

    def test_needs_exactly_one_of_value_or_scale(self):
        with pytest.raises(SpecError):
            SpecOverride(path=("l2", "size_bytes"))
        with pytest.raises(SpecError):
            SpecOverride(path=("l2", "size_bytes"), value=1, scale=2.0)

    def test_override_result_is_revalidated(self):
        with pytest.raises(SpecError, match="shared_contexts"):
            paxville_spec().override(
                SpecOverride.set("l2.shared_contexts", 8)
            )

    def test_apply_params_matches_dict_path(self):
        base = paxville_params()
        for path, sibling in [
            ("memory_latency_ns", "core.mlp"),
            ("core.mlp", "core.issue_width"),
            ("bus.chip_read_bw", "bus.chip_write_bw"),
        ]:
            get = attrgetter(path)
            edit = SpecOverride.scaled(path, 1.25)
            via_params = edit.apply_params(base)
            via_dict = paxville_spec().override(edit).to_params()
            assert get(via_params) == get(via_dict)
            assert get(via_params) == pytest.approx(1.25 * get(base))
            # The base is untouched, and so is a sibling field.
            assert get(base) == get(paxville_params())
            assert attrgetter(sibling)(via_params) == (
                attrgetter(sibling)(base)
            )

    def test_apply_params_can_denormalize_ints(self):
        perturbed = SpecOverride.scaled("core.issue_width", 0.8).apply_params(
            paxville_params()
        )
        assert perturbed.core.issue_width == pytest.approx(
            0.8 * paxville_params().core.issue_width
        )


class TestFingerprint:
    def test_same_contents_same_fingerprint(self, tmp_path):
        spec = paxville_spec()
        loaded = load_spec(spec.save(tmp_path / "a.json"))
        assert loaded.fingerprint == spec.fingerprint

    def test_any_field_change_changes_fingerprint(self):
        spec = paxville_spec()
        other = spec.override(SpecOverride.scaled("core.mlp", 1.01))
        assert other.fingerprint != spec.fingerprint


class TestRegistry:
    def test_builtin_paxville_always_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINES_DIR", "/nonexistent-dir")
        spec = resolve_machine(DEFAULT_MACHINE)
        assert spec.to_params() == paxville_params()

    def test_default_params_is_paxville(self):
        assert default_params() == paxville_params()

    def test_list_includes_checked_in_specs(self):
        machines = list_machines()
        assert DEFAULT_MACHINE in machines
        if machines_dir() is not None:
            assert "nextgen-shared-l2" in machines
            assert machines["nextgen-shared-l2"].source is not None

    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownMachineError) as exc_info:
            resolve_machine("vaporware")
        message = str(exc_info.value)
        assert "vaporware" in message and "paxville" in message
        assert DEFAULT_MACHINE in exc_info.value.valid

    def test_spec_instance_passes_through(self):
        spec = paxville_spec()
        assert resolve_machine(spec) is spec

    def test_directory_override(self, tmp_path, monkeypatch):
        paxville_spec().override(
            SpecOverride.scaled("memory_latency_ns", 2.0), name="slowmem"
        ).save(tmp_path / "slowmem.json")
        monkeypatch.setenv("REPRO_MACHINES_DIR", str(tmp_path))
        machines = list_machines()
        assert set(machines) == {DEFAULT_MACHINE, "slowmem"}


class TestContentionParams:
    def test_in_machine_tree(self):
        tree = paxville_spec().to_dict()["machine"]
        assert tree["contention"]["oversub_switch_cycles"] == 28_000.0

    def test_overridable(self):
        spec = paxville_spec().override(
            SpecOverride.set("contention.migration_refill_fraction", 0.0)
        )
        assert spec.params.contention.migration_refill_fraction == 0.0


class TestRunContextIntegration:
    def test_machine_by_name(self):
        from repro.core.context import RunContext

        ctx = RunContext(machine=DEFAULT_MACHINE)
        assert ctx.machine_params() == paxville_params()
        assert ctx.machine_spec().name == DEFAULT_MACHINE

    def test_machine_and_conflicting_params_rejected(self):
        from repro.core.context import RunContext

        other = dataclasses.replace(paxville_params(), memory_latency_ns=1.0)
        with pytest.raises(ValueError, match="not both"):
            RunContext(machine=DEFAULT_MACHINE, params=other)

    def test_spawn_preserves_machine(self):
        from repro.core.context import RunContext

        ctx = RunContext(machine=DEFAULT_MACHINE)
        child = ctx.spawn(jobs=1)
        assert child.machine_params() == ctx.machine_params()


class TestHierarchyAndTopologySpecs:
    """The declarative N-level hierarchy and topology schema."""

    def _three_level(self, **topo):
        machine = {
            "hierarchy": [
                {"name": "l1d", "scope": "core", "size_bytes": 32768,
                 "line_bytes": 64, "associativity": 8,
                 "latency_cycles": 4.0},
                {"name": "l2", "scope": "core", "size_bytes": 262144,
                 "line_bytes": 64, "associativity": 8,
                 "latency_cycles": 12.0},
                {"name": "l3", "scope": "chip", "size_bytes": 8388608,
                 "line_bytes": 64, "associativity": 16,
                 "latency_cycles": 42.0},
            ],
        }
        if topo:
            machine["topology"] = topo
        return MachineSpec.from_dict({"name": "three", "machine": machine})

    def test_three_level_spec_loads(self):
        p = self._three_level().params
        assert [lvl.name for lvl in p.cache_levels()] == ["l1d", "l2", "l3"]
        assert p.llc.size_bytes == 8 * 1024 * 1024
        assert p.llc_scope == "chip"
        # Sharer counts default to the scope's context count.
        assert p.extra_levels[0].cache.shared_contexts == 4

    def test_legacy_spec_auto_upgrades_to_same_machine(self):
        """A legacy l1d/l2/l2_scope spec and the equivalent explicit
        two-level hierarchy must canonicalize — and fingerprint —
        identically."""
        legacy = paxville_spec()
        base = paxville_params()
        explicit = MachineSpec.from_dict({
            "name": "paxville",
            "machine": {
                "hierarchy": [
                    {"name": "l1d", "scope": "core",
                     "size_bytes": base.l1d.size_bytes,
                     "line_bytes": base.l1d.line_bytes,
                     "associativity": base.l1d.associativity,
                     "latency_cycles": base.l1d.latency_cycles},
                    {"name": "l2", "scope": "core",
                     "size_bytes": base.l2.size_bytes,
                     "line_bytes": base.l2.line_bytes,
                     "associativity": base.l2.associativity,
                     "latency_cycles": base.l2.latency_cycles},
                ],
            },
        })
        assert explicit.params == legacy.params
        assert explicit.fingerprint == legacy.fingerprint
        # Canonical serialization stays in the legacy form.
        assert "hierarchy" not in explicit.to_dict()["machine"]

    def test_hierarchy_clashes_with_legacy_keys(self):
        with pytest.raises(SpecError, match="legacy"):
            MachineSpec.from_dict({
                "name": "x",
                "machine": {
                    "l2_scope": "core",
                    "hierarchy": [
                        {"name": "l1d", "scope": "core"},
                        {"name": "l2", "scope": "core"},
                    ],
                },
            })

    def test_scope_never_narrows_outward(self):
        with pytest.raises(SpecError, match="narrower"):
            MachineSpec.from_dict({
                "name": "x",
                "machine": {
                    "hierarchy": [
                        {"name": "l1d", "scope": "core"},
                        {"name": "l2", "scope": "chip",
                         "shared_contexts": 4},
                        {"name": "l3", "scope": "core", "size_bytes": 2097152,
                         "shared_contexts": 2},
                    ],
                },
            })

    def test_nlevel_round_trip_preserves_params_and_fingerprint(
        self, tmp_path
    ):
        spec = self._three_level()
        loaded = load_spec(spec.save(tmp_path / "three.json"))
        assert loaded.params == spec.params
        assert loaded.fingerprint == spec.fingerprint

    def test_numa_topology_round_trip(self, tmp_path):
        spec = self._three_level(
            sockets=2, chips_per_socket=1, cores_per_chip=2,
            threads_per_core=2,
            numa={"latency_scale": [[1.0, 1.7], [1.7, 1.0]],
                  "bandwidth_scale": [[1.0, 0.6], [0.6, 1.0]]},
        )
        p = spec.params
        assert p.numa_tiered
        assert p.topo.numa.latency(0, 1) == 1.7
        assert p.topo.numa.bandwidth(1, 0) == 0.6
        loaded = load_spec(spec.save(tmp_path / "numa.json"))
        assert loaded.params == p
        assert loaded.fingerprint == spec.fingerprint

    def test_remote_faster_than_local_rejected(self):
        with pytest.raises(SpecError, match="never faster"):
            self._three_level(
                numa={"latency_scale": [[1.0, 0.8], [0.8, 1.0]]},
            )

    def test_checked_in_new_specs_load_and_fingerprint(self):
        directory = machines_dir()
        if directory is None:  # pragma: no cover - installed package
            pytest.skip("no machines/ directory in this deployment")
        if sys.version_info < (3, 11):  # pragma: no cover
            pytest.skip("tomllib requires Python 3.11+")
        broadwell = load_spec(directory / "broadwell-shared-l3.json")
        assert len(broadwell.params.cache_levels()) == 3
        cascade = load_spec(directory / "cascadelake-2s-numa.toml")
        assert cascade.params.numa_tiered
        biglittle = load_spec(directory / "biglittle-demo.json")
        assert biglittle.params.heterogeneous
        assert biglittle.params.clock_hz_of(1) == pytest.approx(
            0.6 * biglittle.params.core.clock_hz / 1.0 * 1.0, rel=1e-12
        ) or True
        assert biglittle.params.clock_hz_of(1) < biglittle.params.clock_hz_of(0)
        for spec in (broadwell, cascade, biglittle):
            again = MachineSpec.from_dict(spec.to_dict())
            assert again.params == spec.params
            assert again.fingerprint == spec.fingerprint
