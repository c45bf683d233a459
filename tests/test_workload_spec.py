"""Tests for the declarative workload-spec layer (repro.workload.spec).

Covers the PR's spec-fidelity requirements: NAS producers equal the
legacy builders exactly, JSON/TOML round-trips preserve every float,
fingerprints are stable and spelling-independent, sparse inheritance
flattens at load time, and every error path reports the dotted path of
the offending field.
"""

import json
import sys

import pytest
from hypothesis import given, settings

from repro.npb.common import ProblemClass
from repro.npb.suite import ALL_BENCHMARKS, benchmark_spec
from repro.npb import bt, cg, ep, ft, is_, lu, mg, sp
from repro.testing.strategies import workload_specs, workload_trees
from repro.workload.spec import (
    WORKLOAD_SCHEMA_VERSION,
    WorkloadSpec,
    WorkloadSpecError,
    load_workload_spec,
)

_NAS_MODULES = {
    "BT": bt, "CG": cg, "EP": ep, "FT": ft,
    "IS": is_, "LU": lu, "MG": mg, "SP": sp,
}


def _minimal_tree(**overrides):
    tree = {
        "schema": WORKLOAD_SCHEMA_VERSION,
        "name": "mini",
        "workload": {
            "problem_class": "B",
            "phases": [{
                "name": "only",
                "openmp": "parallel",
                "instructions": 1e9,
                "mem_ops_per_instr": 0.4,
                "access_mix": [{
                    "kind": "streaming",
                    "weight": 1.0,
                    "footprint_bytes": 2 ** 24,
                }],
                "code_footprint_uops": 5000.0,
                "code_footprint_bytes": 12000.0,
                "branches_per_instr": 0.1,
                "branch_misp_intrinsic": 0.01,
                "branch_sites": 40,
                "ilp": 1.5,
            }],
        },
    }
    tree.update(overrides)
    return tree


class TestNasProducers:
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_spec_equals_legacy_build(self, bench):
        """The spec path must reproduce the legacy builder exactly —
        same Workload value, so same runs and same cache keys."""
        legacy = _NAS_MODULES[bench].build(ProblemClass.B)
        assert benchmark_spec(bench, "B").build() == legacy

    @pytest.mark.parametrize("letter", ["S", "W", "A", "B", "C"])
    def test_spec_equals_legacy_all_classes(self, letter):
        pc = ProblemClass.from_str(letter)
        assert benchmark_spec("CG", pc).build() == cg.build(pc)

    def test_metadata_mirrors_benchmark_info(self):
        from repro.npb.suite import benchmark_info

        spec = benchmark_spec("CG", "B")
        info = benchmark_info("CG")
        assert spec.kind == info.kind
        assert spec.memory_bound_score == info.memory_bound_score
        assert spec.description == info.description


class TestRoundTrips:
    @pytest.mark.parametrize("bench", ["CG", "SP"])
    def test_json_round_trip_exact(self, bench, tmp_path):
        spec = benchmark_spec(bench, "B")
        path = spec.save(tmp_path / f"{bench.lower()}.json")
        loaded = load_workload_spec(path)
        assert loaded.fingerprint == spec.fingerprint
        assert loaded.build() == spec.build()
        assert loaded.source == path
        # A second save is byte-identical (canonical form is stable).
        again = loaded.save(tmp_path / "again.json")
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python >= 3.11"
    )
    def test_toml_round_trip_exact(self, tmp_path):
        spec = WorkloadSpec.from_dict(_minimal_tree())
        tree = spec.to_dict()
        lines = [
            f'schema = {tree["schema"]}',
            f'name = "{tree["name"]}"',
            "[workload]",
            f'problem_class = "{tree["workload"]["problem_class"]}"',
        ]
        phase = tree["workload"]["phases"][0]
        lines.append("[[workload.phases]]")
        for key, value in phase.items():
            if key == "access_mix":
                continue
            if isinstance(value, bool):
                lines.append(f"{key} = {str(value).lower()}")
            elif isinstance(value, str):
                lines.append(f'{key} = "{value}"')
            else:
                lines.append(f"{key} = {value!r}")
        for comp in phase["access_mix"]:
            lines.append("[[workload.phases.access_mix]]")
            for key, value in comp.items():
                if isinstance(value, bool):
                    lines.append(f"{key} = {str(value).lower()}")
                elif isinstance(value, str):
                    lines.append(f'{key} = "{value}"')
                else:
                    lines.append(f"{key} = {value!r}")
        path = tmp_path / "mini.toml"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_workload_spec(path)
        assert loaded.fingerprint == spec.fingerprint
        assert loaded.build() == spec.build()

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("nope")
        with pytest.raises(WorkloadSpecError, match="unsupported spec suffix"):
            load_workload_spec(path)

    def test_bad_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(WorkloadSpecError, match="broken.json"):
            load_workload_spec(path)


class TestFingerprints:
    def test_int_and_float_spellings_agree(self):
        a = _minimal_tree()
        b = json.loads(json.dumps(a))
        b["workload"]["phases"][0]["ilp"] = 1.5
        b["workload"]["phases"][0]["instructions"] = int(1e9)  # int spelling
        fa = WorkloadSpec.from_dict(a).fingerprint
        fb = WorkloadSpec.from_dict(b).fingerprint
        assert fa == fb

    def test_source_excluded_from_identity(self, tmp_path):
        spec = WorkloadSpec.from_dict(_minimal_tree())
        path = spec.save(tmp_path / "mini.json")
        loaded = load_workload_spec(path)
        assert loaded == spec
        assert loaded.fingerprint == spec.fingerprint

    def test_distinct_workloads_distinct_fingerprints(self):
        a = WorkloadSpec.from_dict(_minimal_tree())
        tree = _minimal_tree()
        tree["workload"]["phases"][0]["instructions"] = 2e9
        b = WorkloadSpec.from_dict(tree)
        assert a.fingerprint != b.fingerprint

    def test_short_fingerprint_prefixes_full(self):
        spec = WorkloadSpec.from_dict(_minimal_tree())
        assert spec.fingerprint.startswith(spec.short_fingerprint)
        assert len(spec.short_fingerprint) == 12


class TestInheritance:
    def _resolver(self):
        base = benchmark_spec("CG", "B")
        return {"CG": base}, lambda name: {"CG": base}[name]

    def test_scale_applies_to_every_phase(self):
        specs, resolve = self._resolver()
        derived = WorkloadSpec.from_dict(
            {
                "schema": 1,
                "name": "cg-half",
                "base": "CG",
                "workload": {"scale": 0.5},
            },
            resolve=resolve,
        )
        base_wl = specs["CG"].build()
        for ours, theirs in zip(derived.build().phases, base_wl.phases):
            assert ours.instructions == pytest.approx(
                theirs.instructions * 0.5
            )

    def test_phase_override_and_metadata_inheritance(self):
        specs, resolve = self._resolver()
        phase_name = specs["CG"].build().phases[0].name
        derived = WorkloadSpec.from_dict(
            {
                "schema": 1,
                "name": "cg-serialized",
                "base": "CG",
                "workload": {
                    "phases": {phase_name: {"openmp": "serial"}},
                },
            },
            resolve=resolve,
        )
        assert derived.build().phases[0].parallel is False
        # Untouched metadata and phases inherit from the base.
        assert derived.kind == specs["CG"].kind
        assert derived.memory_bound_score == specs["CG"].memory_bound_score
        assert derived.build().phases[1:] == specs["CG"].build().phases[1:]

    def test_to_dict_flattens_inheritance(self):
        _, resolve = self._resolver()
        derived = WorkloadSpec.from_dict(
            {
                "schema": 1,
                "name": "cg-flat",
                "base": "CG",
                "workload": {"scale": 2.0},
            },
            resolve=resolve,
        )
        tree = derived.to_dict()
        assert "base" not in tree
        # The flattened form reloads standalone (no resolver needed) to
        # the same fingerprint.
        assert WorkloadSpec.from_dict(tree).fingerprint == derived.fingerprint

    def test_base_requires_registry_context(self):
        with pytest.raises(WorkloadSpecError, match="registry context"):
            WorkloadSpec.from_dict(
                {"schema": 1, "name": "x", "base": "CG"}
            )

    def test_unknown_override_phase_lists_base_phases(self):
        _, resolve = self._resolver()
        with pytest.raises(WorkloadSpecError, match="unknown phases"):
            WorkloadSpec.from_dict(
                {
                    "schema": 1,
                    "name": "x",
                    "base": "CG",
                    "workload": {"phases": {"no_such_phase": {}}},
                },
                resolve=resolve,
            )


class TestErrorPaths:
    def test_unknown_top_level_key(self):
        with pytest.raises(WorkloadSpecError, match="unknown top-level keys"):
            WorkloadSpec.from_dict(_minimal_tree(bogus=1))

    def test_schema_version_checked(self):
        with pytest.raises(WorkloadSpecError, match="schema"):
            WorkloadSpec.from_dict(_minimal_tree(schema=99))

    def test_parallel_bool_rejected_with_pointer(self):
        tree = _minimal_tree()
        phase = tree["workload"]["phases"][0]
        del phase["openmp"]
        phase["parallel"] = True
        with pytest.raises(WorkloadSpecError, match="openmp"):
            WorkloadSpec.from_dict(tree)

    def test_bad_openmp_value(self):
        tree = _minimal_tree()
        tree["workload"]["phases"][0]["openmp"] = "simd"
        with pytest.raises(
            WorkloadSpecError, match=r"phases\[0\].openmp"
        ):
            WorkloadSpec.from_dict(tree)

    def test_unknown_pattern_kind_has_dotted_path(self):
        tree = _minimal_tree()
        tree["workload"]["phases"][0]["access_mix"][0]["kind"] = "zigzag"
        with pytest.raises(
            WorkloadSpecError, match=r"access_mix\[0\].kind"
        ):
            WorkloadSpec.from_dict(tree)

    def test_missing_required_phase_fields(self):
        tree = _minimal_tree()
        del tree["workload"]["phases"][0]["ilp"]
        with pytest.raises(WorkloadSpecError, match="ilp"):
            WorkloadSpec.from_dict(tree)

    def test_weights_must_sum_to_one(self):
        tree = _minimal_tree()
        tree["workload"]["phases"][0]["access_mix"][0]["weight"] = 0.5
        with pytest.raises(WorkloadSpecError, match="sum to 1"):
            WorkloadSpec.from_dict(tree)

    def test_memory_bound_score_bounded(self):
        with pytest.raises(WorkloadSpecError, match="memory_bound_score"):
            WorkloadSpec.from_dict(_minimal_tree(memory_bound_score=1.5))

    def test_dataclass_invariants_surface_with_path(self):
        tree = _minimal_tree()
        tree["workload"]["phases"][0]["mem_ops_per_instr"] = 1.5
        with pytest.raises(WorkloadSpecError, match="mem_ops_per_instr"):
            WorkloadSpec.from_dict(tree)


class TestPropertyRoundTrip:
    @given(workload_trees())
    @settings(max_examples=25)
    def test_canonical_form_is_a_fixed_point(self, tree):
        spec = WorkloadSpec.from_dict(tree)
        reloaded = WorkloadSpec.from_dict(spec.to_dict())
        assert reloaded.fingerprint == spec.fingerprint
        assert reloaded.build() == spec.build()

    @given(spec=workload_specs())
    @settings(max_examples=25)
    def test_save_load_preserves_identity(self, spec, tmp_path_factory):
        path = tmp_path_factory.mktemp("wl") / "spec.json"
        spec.save(path)
        loaded = load_workload_spec(path)
        assert loaded.fingerprint == spec.fingerprint
        assert loaded.build() == spec.build()
