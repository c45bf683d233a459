"""Tests for the shared-L2 what-if study and the L2 scope plumbing."""

import pytest

from repro.cli import main
from repro.core.context import RunContext
from repro.core.study import Study
from repro.experiments import nextgen
from repro.machine.configurations import get_config
from repro.npb.suite import build_workload
from repro.sim.engine import Engine


class TestSharedL2Params:
    def test_scope_and_size(self):
        p = nextgen.shared_l2_params(4)
        assert p.l2_scope == "chip"
        assert p.l2.size_bytes == 4 * 1024 * 1024

    def test_stock_is_private(self):
        from repro.machine.params import paxville_params

        assert paxville_params().l2_scope == "core"


class TestL2ScopeEffects:
    def test_pooled_l2_helps_capacity_bound_code(self):
        """With one thread per core, a chip-shared 2 MB L2 gives each
        thread the whole pool: SP's reuse window fits earlier."""
        sp = build_workload("SP", "B")
        private = Engine(get_config("ht_off_2_1")).run_single(sp)
        shared = Engine(
            get_config("ht_off_2_1"), params=nextgen.shared_l2_params(2)
        ).run_single(sp)
        assert shared.runtime_seconds < private.runtime_seconds

    def test_cross_core_contention_appears_in_multiprogram(self):
        """Two different programs on one chip now fight for one L2: the
        memory-bound victim's L2 miss rate rises versus private L2s."""
        cg = build_workload("CG", "B")
        ft = build_workload("FT", "B")
        private = Engine(get_config("ht_off_2_1")).run_pair(cg, ft)
        shared = Engine(
            get_config("ht_off_2_1"), params=nextgen.shared_l2_params(2)
        ).run_pair(cg, ft)
        m_priv = private.program(0).metrics
        m_shared = shared.program(0).metrics
        # Same pool size as the sum of privates, but now contended.
        assert m_shared.l2_miss_rate != m_priv.l2_miss_rate


class TestNextGenStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return nextgen.run(benchmarks=["CG", "SP", "EP", "MG"])

    def test_covers_variants(self, result):
        assert result.variants == [
            "private_1MB_per_core", "shared_2MB_per_chip",
            "shared_4MB_per_chip",
        ]

    def test_pooling_never_hurts_averages(self, result):
        assert (
            result.avg_4_2["shared_2MB_per_chip"]
            >= result.avg_4_2["private_1MB_per_core"] * 0.99
        )
        assert (
            result.avg_4_2["shared_4MB_per_chip"]
            >= result.avg_4_2["shared_2MB_per_chip"] * 0.99
        )

    def test_sp_finding_survives_the_generation(self, result):
        """The paper's group-4 exception is not a private-L2 artifact."""
        for v in result.variants:
            assert "SP" in result.ht8_winners[v]

    def test_report_renders(self, result):
        text = nextgen.report(result)
        assert "private vs chip-shared L2" in text


class TestNextGenFollowsTheMachine:
    def test_variants_derive_from_the_context_machine(self):
        """Under ``--machine paxville-fast-bus`` the private row is that
        machine's table and the shared rows re-scope that machine's L2."""
        ctx = RunContext(machine="paxville-fast-bus", jobs=1)
        result = nextgen.run(ctx, problem_class="S")
        own = ctx.study(problem_class="S").speedup_table().values
        assert result.speedups["private_1MB_per_core"] == own
        assert own != Study("S").speedup_table().values
        shared = nextgen.shared_l2_params(2, ctx.machine_spec())
        assert result.speedups["shared_2MB_per_chip"] == (
            Study("S", params=shared).speedup_table().values
        )

    def test_machine_without_a_flat_l2_reports_shared_rows_not_applicable(
        self, tmp_path, capsys
    ):
        """An N-level hierarchy has no flat L2 to re-scope: the shared
        rows say why they are empty, the private row is that machine's
        own table, and run-all still completes."""
        shared = ["shared_2MB_per_chip", "shared_4MB_per_chip"]
        ctx = RunContext(machine="cascadelake-2s-numa", jobs=1)
        result = nextgen.run(ctx, benchmarks=["CG"], problem_class="S")
        text = nextgen.report(result)
        for variant in shared:
            assert f"{variant}: {nextgen.NOT_APPLICABLE}" in text
        # No stock-Paxville number stands in for any row.
        rows = [line.split() for line in text.splitlines()]
        assert [r for r in rows if r and r[0] in shared] == [
            [variant, "-", "-", "-", "-"] for variant in shared
        ]
        own = ctx.study(problem_class="S").speedup_table(["CG"]).values
        assert result.speedups == {"private_1MB_per_core": own}
        assert own != Study("S").speedup_table(["CG"]).values

        out = tmp_path / "out"
        assert main([
            "run-all", "--only", "nextgen", "--machine",
            "cascadelake-2s-numa", "--workload", "CG", "--no-cache",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert nextgen.NOT_APPLICABLE in (out / "nextgen.txt").read_text()
