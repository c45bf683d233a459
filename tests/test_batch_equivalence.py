"""Machine-axis batching must be invisible in the results.

The batched engine (:mod:`repro.sim.batch`) promises *byte-identical*
results to the scalar path — every float produced by the same IEEE-754
operation sequence — which is stronger than the fixed-point residual
bound it needs.  These tests pin that promise three ways:

* exhaustively over the paper's benchmark/configuration matrix on the
  stock machine plus perturbed variants;
* property-based, over random-but-valid machine batches drawn from the
  spec-schema strategies (``repro.testing.strategies``);
* end-to-end, over pipeline artifacts written with batching forced on
  versus off.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import verify
from repro.core.context import RunContext
from repro.core.study import Study
from repro.machine.registry import default_params
from repro.sim.batch import run_batched_single
from repro.sim.sensitivity import PERTURBABLE, perturb_params
from repro.machine.spec import MachineSpec
from repro.testing.strategies import machine_params, nlevel_machine_trees


def assert_identical_runs(batched, scalar, tag=""):
    """Full structural equality of two RunResults, floats compared
    exactly (``==``, no tolerance) and dict insertion order included."""
    assert batched.config.name == scalar.config.name, tag
    assert batched.runtime_seconds == scalar.runtime_seconds, tag
    assert len(batched.programs) == len(scalar.programs), tag
    for pb, ps in zip(batched.programs, scalar.programs):
        assert pb.runtime_seconds == ps.runtime_seconds, tag
        cb, cs = pb.counters.as_dict(), ps.counters.as_dict()
        assert list(cb) == list(cs), (tag, "counter insertion order")
        assert cb == cs, tag
    sets_b = {k: v.as_dict() for k, v in batched.collector._sets.items()}
    sets_s = {k: v.as_dict() for k, v in scalar.collector._sets.items()}
    assert list(sets_b) == list(sets_s), (tag, "collector set order")
    assert sets_b == sets_s, tag
    assert batched.phase_log == scalar.phase_log, tag
    assert batched.timeline.samples == scalar.timeline.samples, tag


def _batched_vs_scalar(variants, bench, config):
    """Run one (benchmark, config) over all machine variants both ways
    and compare."""
    batched_studies = [Study("B", params=p) for p in variants]
    results = run_batched_single(
        [st.engine(config) for st in batched_studies],
        [st.workload(bench) for st in batched_studies],
    )
    assert results is not None, (bench, config)
    for params, res in zip(variants, results):
        scalar_study = Study("B", params=params)
        scalar = scalar_study.engine(config).run_single(
            scalar_study.workload(bench)
        )
        assert_identical_runs(res, scalar, f"{bench}/{config}")


class TestMatrixByteIdentity:
    """Stock + perturbed Paxville over the paper's run matrix."""

    @pytest.mark.parametrize("bench", ["cg", "sp", "mg"])
    @pytest.mark.parametrize(
        "config", ["serial", "ht_on_8_2", "ht_off_4_2", "ht_on_4_1"]
    )
    def test_batched_equals_scalar(self, bench, config):
        base = default_params()
        variants = [
            base,
            perturb_params(base, PERTURBABLE[0][1], 0.8),
            perturb_params(base, PERTURBABLE[6][1], 1.25),
        ]
        with verify.verification(False):
            _batched_vs_scalar(variants, bench, config)

    def test_auditor_forces_scalar(self):
        """With the invariant auditor on, the batched driver declines."""
        with verify.verification(True):
            study = Study("B")
            assert run_batched_single(
                [study.engine("serial")], [study.workload("cg")]
            ) is None


class TestRandomMachineBatches:
    """Property: any batch of schema-valid machines resolves
    identically batched and scalar."""

    @given(
        st.lists(machine_params(), min_size=2, max_size=3),
        st.sampled_from(["cg", "sp"]),
        st.sampled_from(["serial", "ht_on_8_2", "ht_off_4_2"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_equals_scalar(self, variants, bench, config):
        with verify.verification(False):
            _batched_vs_scalar(variants, bench, config)


class TestPipelineArtifacts:
    """End-to-end: artifacts written with batch=on are byte-identical
    to batch=off, and the manifest accounts for what ran batched."""

    def _run(self, tmp_path, mode):
        from repro.experiments.pipeline import run_pipeline, write_artifacts

        out = tmp_path / mode
        # verify=False on the context: the pipeline re-applies the
        # runtime switches itself, so a surrounding context manager
        # would be overwritten (and the auditor forces scalar runs).
        ctx = RunContext(
            cache_enabled=False, batch=mode, jobs=1, verify=False
        )
        pipeline = run_pipeline(ctx, only=["class-scaling"])
        assert pipeline.ok
        write_artifacts(pipeline, out)
        return out, pipeline

    def test_artifacts_byte_identical(self, tmp_path):
        out_off, _ = self._run(tmp_path, "off")
        out_on, on_pipe = self._run(tmp_path, "on")
        for name in ("class-scaling.txt", "class-scaling.json"):
            assert (out_on / name).read_bytes() == \
                (out_off / name).read_bytes(), name
        stats = on_pipe.manifest["experiments"]["class-scaling"]["batch"]
        assert stats["batched_machines"] == 3
        assert stats["scalar_fallbacks"] == 1  # the recording lane
        assert on_pipe.manifest["schema"] >= 3
        assert on_pipe.manifest["batch_mode"] == "on"


class TestNLevelMachineBatches:
    """Uniform N-level machines take the batched path and stay
    byte-identical; non-uniform machines (heterogeneous cores, NUMA
    tiers) decline to the scalar engine."""

    @given(
        # One depth per batch: lanes with mismatched hierarchy depth
        # legitimately decline to scalar, which is tested separately.
        st.integers(3, 4).flatmap(lambda d: st.lists(
            nlevel_machine_trees(depth=st.just(d)),
            min_size=2, max_size=3,
        )),
        st.sampled_from(["cg", "sp"]),
        st.sampled_from(["serial", "ht_on_8_2", "ht_off_4_2"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_batched_equals_scalar_three_levels(
        self, trees, bench, config
    ):
        variants = [
            MachineSpec.from_dict({
                "schema": 1, "name": f"nlevel-{i}", "machine": tree,
            }).to_params()
            for i, tree in enumerate(trees)
        ]
        with verify.verification(False):
            _batched_vs_scalar(variants, bench, config)

    def test_checked_in_three_level_spec_batches(self):
        from repro.machine.registry import resolve_machine

        params = resolve_machine("broadwell-shared-l3").to_params()
        with verify.verification(False):
            _batched_vs_scalar([params, params], "cg", "ht_off_4_2")

    @pytest.mark.parametrize(
        "machine", ["biglittle-demo", "cascadelake-2s-numa"]
    )
    def test_non_uniform_machines_decline(self, machine):
        from repro.machine.registry import resolve_machine

        study = Study("B", params=resolve_machine(machine).to_params())
        with verify.verification(False):
            assert run_batched_single(
                [study.engine("ht_off_4_2")], [study.workload("cg")]
            ) is None

    def test_mixed_depth_lanes_decline(self):
        from repro.machine.registry import resolve_machine

        two = Study("B", params=default_params())
        three = Study(
            "B", params=resolve_machine("broadwell-shared-l3").to_params()
        )
        with verify.verification(False):
            assert run_batched_single(
                [two.engine("serial"), three.engine("serial")],
                [two.workload("cg"), three.workload("cg")],
            ) is None
