"""Tests for the named workload registry (repro.workload.registry).

Listing contents, case-insensitive resolution, did-you-mean
suggestions, ``REPRO_WORKLOADS_DIR`` listings, inheritance across files
and built-ins, and the Study integration (content-addressed run-cache
tokens, stale-fingerprint detection).  The rules both registries share
(shadowing, duplicate rejection, edit invalidation, path and
fingerprint tokens) are in ``test_registry_contract.py``.
"""

import json

import pytest

from repro.core.study import Study
from repro.npb.suite import ALL_BENCHMARKS
from repro.workload.registry import (
    UnknownWorkloadError,
    build_workload,
    builtin_producers,
    list_workloads,
    resolve_workload,
)
from repro.workload.spec import WorkloadSpecError


def _write_spec(path, name, base=None, scale=None, description=""):
    tree = {"schema": 1, "name": name, "description": description}
    if base is not None:
        tree["base"] = base
        if scale is not None:
            tree["workload"] = {"scale": scale}
    else:
        tree["workload"] = {
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
        }
    path.write_text(json.dumps(tree))
    return path


class TestBuiltins:
    def test_every_nas_benchmark_plus_families(self):
        names = set(list_workloads("B"))
        assert set(ALL_BENCHMARKS) <= names
        assert {"minigmg", "triad", "strided-load"} <= names

    def test_producers_are_class_parameterized(self):
        small = list_workloads("S")["CG"]
        big = list_workloads("B")["CG"]
        assert small.build().problem_class == "S"
        assert big.build().problem_class == "B"
        assert small.fingerprint != big.fingerprint

    def test_builtin_sources_are_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        for spec in list_workloads("B").values():
            assert spec.source is None

    def test_builtin_producers_cover_listing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        assert set(builtin_producers()) == set(list_workloads("B"))

    def test_checked_in_specs_join_the_listing(self):
        specs = list_workloads("B")
        for name in ("minigmg-c", "triad-l2", "strided-512"):
            assert name in specs
            assert specs[name].source is not None


class TestResolution:
    def test_case_insensitive_nas_names(self):
        assert resolve_workload("cg").name == "CG"
        assert resolve_workload("CG").name == "CG"

    def test_spec_instances_pass_through(self):
        spec = resolve_workload("triad")
        assert resolve_workload(spec) is spec

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownWorkloadError) as info:
            resolve_workload("triadd")
        assert "did you mean 'triad'" in str(info.value)
        assert "minigmg" in str(info.value)

    def test_build_workload_returns_engine_form(self):
        wl = build_workload("minigmg", "B")
        assert wl.name == "minigmg"
        assert len(wl.phases) >= 2


class TestWorkloadsDir:
    def test_file_specs_join_the_listing(self, tmp_path, monkeypatch):
        _write_spec(tmp_path / "custom.json", "custom")
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        specs = list_workloads("B")
        assert "custom" in specs
        assert specs["custom"].source == tmp_path / "custom.json"

    def test_file_can_inherit_from_builtin(self, tmp_path, monkeypatch):
        _write_spec(
            tmp_path / "triad-short.json", "triad-short",
            base="triad", scale=0.25,
        )
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        derived = resolve_workload("triad-short")
        base = resolve_workload("triad")
        assert derived.build().total_instructions == pytest.approx(
            base.build().total_instructions * 0.25
        )

    def test_file_can_inherit_from_file(self, tmp_path, monkeypatch):
        _write_spec(tmp_path / "root.json", "root")
        _write_spec(
            tmp_path / "leaf.json", "leaf", base="root", scale=2.0
        )
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        specs = list_workloads("B")
        assert specs["leaf"].build().total_instructions == pytest.approx(
            specs["root"].build().total_instructions * 2.0
        )

    def test_inheritance_cycle_detected(self, tmp_path, monkeypatch):
        _write_spec(tmp_path / "a.json", "a", base="b", scale=1.0)
        _write_spec(tmp_path / "b.json", "b", base="a", scale=1.0)
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        with pytest.raises(WorkloadSpecError, match="cycle"):
            list_workloads("B")

    def test_unknown_base_lists_registered(self, tmp_path, monkeypatch):
        _write_spec(tmp_path / "x.json", "x", base="no-such", scale=1.0)
        monkeypatch.setenv("REPRO_WORKLOADS_DIR", str(tmp_path))
        with pytest.raises(WorkloadSpecError, match="unknown base workload"):
            list_workloads("B")


class TestStudyIntegration:
    def test_nas_run_keys_unchanged(self):
        st = Study("B")
        assert st.workload_key("cg") == "CG"
        assert st.workload_key("CG") == "CG"

    def test_registry_tokens_are_content_addressed(self):
        st = Study("B")
        spec = resolve_workload("triad")
        token = st.workload_key("triad")
        assert token == f"triad@{spec.short_fingerprint}"
        # The token itself resolves, also in a fresh study.
        assert Study("B").workload(token) == spec.build()

    def test_stale_fingerprint_rejected(self):
        st = Study("B")
        with pytest.raises(RuntimeError, match="changed while its runs"):
            st.workload("triad@000000000000")

    def test_unknown_workload_from_study(self):
        with pytest.raises(UnknownWorkloadError, match="unknown workload"):
            Study("B").workload("no-such-workload")

    def test_registry_workload_runs_and_caches(self):
        # An earlier test's no-cache RunContext may have switched the
        # process-wide cache off; this test is *about* caching.
        from repro.core.runcache import configure

        configure(reset=True, enabled=True)
        st = Study("B")
        first = st.run("strided-load", "ht_off_2_1")
        again = st.run("strided-load", "ht_off_2_1")
        assert first is again  # memoized via the run cache
        assert first.runtime_seconds > 0

    def test_speedup_for_registry_workload(self):
        s = Study("B").speedup("triad", "ht_off_2_2")
        assert 0.1 < s < 16.0


class TestContextIntegration:
    def test_default_workloads_are_paper_benchmarks(self):
        from repro.core.context import RunContext

        assert RunContext().workload_names() == Study.paper_benchmarks()

    def test_explicit_workloads_validated(self):
        from repro.core.context import RunContext

        ctx = RunContext(workloads=["minigmg", "triad"])
        assert ctx.workload_names() == ["minigmg", "triad"]
        bad = RunContext(workloads=["nope"])
        with pytest.raises(UnknownWorkloadError):
            bad.workload_names()

    def test_path_workloads_stay_resolvable_by_studies(self, tmp_path):
        from repro.core.context import RunContext

        path = _write_spec(tmp_path / "custom.json", "custom")
        ctx = RunContext(workloads=[path])
        (token,) = ctx.workload_names()
        # The token round-trips through a Study even though the file is
        # outside the registry directory.
        assert Study("B").workload(token).name == "custom"
