"""The paper's qualitative findings, as an executable contract.

Every readable claim of the evaluation section is asserted here against
the full class-B study (see EXPERIMENTS.md for the paper-vs-measured
record, including the documented deviations).
"""

from pathlib import Path

import pytest

from repro.analysis import findings
from repro.core.study import Study
from repro.experiments import (
    fig2_single_program,
    fig3_speedup,
    fig4_multiprogram,
    fig5_crossproduct,
    table2_avg_speedup,
)
from repro.machine.configurations import Architecture


@pytest.fixture(scope="module")
def study():
    return Study("B")


@pytest.fixture(scope="module")
def fig2(study):
    return fig2_single_program.run(study)


@pytest.fixture(scope="module")
def fig3(study):
    return fig3_speedup.run(study)


@pytest.fixture(scope="module")
def table2(study):
    return table2_avg_speedup.run(study)


class TestSection41WallClock:
    def test_top_two_architectures(self, table2):
        """'The CMP-based SMP and CMT-based SMP configurations have the
        highest average speedup across all of the applications.'"""
        assert findings.top_two(table2.averages) == findings.PAPER_TOP_TWO

    def test_smt_is_weakest(self, table2):
        """A single HT core (group 1) trails every other architecture."""
        avgs = table2.averages
        assert min(avgs, key=lambda a: avgs[a]) is Architecture.SMT

    def test_ht_on_both_chips_costs_a_few_percent(self, table2):
        """'...reduces computational speed and results in a slowdown of
        approximately 6.7% versus HT off.'"""
        assert 0.01 < findings.ht8_slowdown(table2.averages) < 0.15

    def test_sp_is_the_only_app_faster_at_ht_on_8_2(self, fig3):
        """'Except for the [SP] benchmark, the performance of the HT on
        -8- case is worse than the HT off -4- case.'"""
        assert findings.F1.holds(fig3.table), findings.ht8_winners(fig3.table)

    def test_ht_beneficial_on_one_processor(self, fig3):
        """'HT is of benefit when enabled for smaller numbers of
        processors': most apps run faster on HT on 2-2-1 than serial."""
        gains = [
            b
            for b in fig3.table.benchmarks
            if fig3.table.get(b, "ht_on_2_1") > 1.0
        ]
        assert len(gains) >= 4  # all but EP in our model

    def test_cmt_within_reach_of_cmp_smp(self, table2):
        """Paper: 3.6% slowdown.  Our model shows a larger gap (driven by
        EP's HT-hostile x87 saturation); assert the documented band."""
        assert findings.cmt_gap(table2.averages) < 0.35


def test_experiments_md_verdicts_agree_with_findings(fig3, table2):
    """EXPERIMENTS.md's fig3/table2 "paper claims vs measured" verdicts
    (✓/✗) are what :mod:`repro.analysis.findings` measures, so editing
    either side without the other fails.  A ratio agrees with the paper
    within a factor of two of the paper's value."""

    def in_band(measured, paper):
        return paper / 2 <= measured <= paper * 2

    avgs = table2.averages
    measured = {
        "CMP-based SMP and CMT-based SMP have the highest average speedups":
            findings.top_two(avgs) == findings.PAPER_TOP_TWO,
        "HT on both chips costs ~6.7 % vs HT off (2-8-2 vs 2-4-2)":
            in_band(findings.ht8_slowdown(avgs), findings.PAPER_HT8_SLOWDOWN),
        "Except one benchmark (SP), HT on 2-8-2 is worse than HT off 2-4-2":
            findings.F1.holds(fig3.table),
        "CMT within 3.6 % of CMP-based SMP":  # the documented deviation
            in_band(findings.cmt_gap(avgs), findings.PAPER_CMT_GAP),
    }
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    section = text.split("## fig3 / table2")[1].split("\n## ")[0]
    documented = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[2][:1] in ("✓", "✗"):
            documented[cells[0]] = cells[2].startswith("✓")
    # Not a findings-module claim: test_ht_beneficial_on_one_processor.
    documented.pop("HT benefits single-processor configurations (<4)")
    assert documented == measured


class TestSection41Counters:
    def test_l1_miss_rates_flat_across_configs(self, fig2):
        """'The L1 cache miss rates are flat across the different
        configurations.'"""
        panel = fig2.panels["l1_miss_rate"]
        for bench, row in panel.items():
            ht_off = [row[c] for c in ("ht_off_2_1", "ht_off_2_2",
                                       "ht_off_4_2")]
            assert max(ht_off) - min(ht_off) < 0.02

    def test_ht_on_raises_l2_miss_rate(self, fig2):
        """'...the HT on configurations having a higher miss rate than
        the HT off configurations' (groups 2/3).'"""
        panel = fig2.panels["l2_miss_rate"]
        for bench in ("CG", "MG"):
            assert panel[bench]["ht_on_4_1"] > panel[bench]["ht_off_2_1"]

    def test_itlb_misses_rise_with_complexity(self, fig2):
        """'ITLB misses rise significantly between the different groups.'"""
        panel = fig2.panels["itlb_miss_rate"]
        for bench in ("CG", "MG", "SP", "FT", "LU"):
            assert panel[bench]["ht_on_8_2"] > panel[bench]["serial"]

    def test_dtlb_misses_flat(self, fig2):
        """'DTLB misses are relatively flat across all groups': total
        DTLB misses stay within a few x of serial (no group-to-group
        explosion like the ITLB's).  FT shows the largest excursion in
        our model (its pencil block straddles the halved HT reach)."""
        panel = fig2.panels["dtlb_normalized"]
        for bench, row in panel.items():
            vals = [v for v in row.values() if v > 0]
            if not vals:
                continue
            assert max(vals) <= 4.0  # within a few x of serial

    def test_ht_on_stalls_more_within_groups(self, fig2):
        """'Group 2, 3 and 4 show similar patterns with the HT on
        configurations having more stalled cycles than the HT off
        configurations.'"""
        panel = fig2.panels["stall_fraction"]
        for bench in ("CG", "MG", "SP", "FT", "LU"):
            assert panel[bench]["ht_on_4_1"] > panel[bench]["ht_off_2_1"]
            assert panel[bench]["ht_on_4_2"] > panel[bench]["ht_off_2_2"]
            assert panel[bench]["ht_on_8_2"] > panel[bench]["ht_off_4_2"]

    def test_branch_prediction_excellent_except_known_outliers(self, fig2):
        """'Branch prediction rates are excellent ... with the exception
        of the HT on configurations from groups 2 and 3 for [CG] and HT
        on -8- for [SP].'"""
        panel = fig2.panels["branch_prediction_rate"]
        # Outliers dip visibly:
        assert panel["CG"]["ht_on_4_1"] < panel["CG"]["ht_off_2_1"] - 0.02
        assert panel["CG"]["ht_on_4_2"] < panel["CG"]["ht_off_2_2"] - 0.02
        assert panel["SP"]["ht_on_8_2"] < panel["SP"]["ht_off_4_2"] - 0.02
        # Non-outliers stay excellent:
        for bench in ("MG", "FT", "LU"):
            for cfg in fig2.config_order:
                assert panel[bench][cfg] > 0.95

    def test_cg_poor_branch_prediction_drives_high_cpi(self, fig2):
        """'...the high CPIs of the HT on configurations from groups 2
        and 3 running the [CG] benchmark correlate directly to very poor
        branch prediction rates.'"""
        cpi = fig2.panels["cpi"]
        assert cpi["CG"]["ht_on_4_1"] > cpi["CG"]["ht_off_2_1"]
        assert cpi["CG"]["ht_on_4_2"] > cpi["CG"]["ht_off_2_2"]

    def test_light_configs_prefetch_heavily(self, fig2):
        """'...is the only group that has the memory bandwidth capacity
        left over to perform any kind of prefetching activities' —
        the serial/lightly-loaded cases prefetch, the loaded ones don't."""
        panel = fig2.panels["prefetch_bus_fraction"]
        prefetching = sum(
            1 for b in ("MG", "SP", "FT", "LU", "BT")
            if b in panel and panel[b]["serial"] > 0.3
        )
        loaded = [
            panel[b]["ht_off_4_2"] for b in ("CG", "MG", "SP", "FT", "LU")
        ]
        assert all(v < 0.1 for v in loaded)
        # at least 3 of the probed benchmarks prefetch heavily when light
        assert prefetching >= 3

    def test_sp_detail_group4(self, fig2, fig3):
        """SP at HT on 2-8-2 versus HT off 2-4-2: lower L2 miss rate,
        fewer total bus accesses, higher CPI — yet faster (paper §4.1.7)."""
        l2 = fig2.panels["l2_miss_rate"]["SP"]
        cpi = fig2.panels["cpi"]["SP"]
        assert l2["ht_on_8_2"] < l2["ht_off_4_2"]
        assert cpi["ht_on_8_2"] > cpi["ht_off_4_2"]
        assert "SP" in findings.ht8_winners(fig3.table)

    def test_mg_trace_cache_advantage_at_8_threads(self, fig2):
        """'...with the 8- configuration having a major advantage of
        35.6% miss rate versus the HT off -4-'s miss rate of 87.3% for
        [MG].'"""
        tc = fig2.panels["tc_miss_rate"]["MG"]
        assert tc["ht_off_4_2"] > 0.7
        assert tc["ht_on_8_2"] < 0.6 * tc["ht_off_4_2"]


class TestSection42Multiprogram:
    @pytest.fixture(scope="class")
    def fig4(self, study):
        return fig4_multiprogram.run(study)

    def test_complementary_mix_beats_homogeneous(self, fig4):
        """'...a tangible performance benefit to running compute bound
        and memory bound applications separately' — CG and FT both do
        better in the CG/FT mix than against their own copies."""
        better_cg = 0
        for cfg in fig4.config_order:
            cg_mixed = fig4.speedups["CG/FT"][cfg][0]
            cg_self = fig4.speedups["CG/CG"][cfg][0]
            better_cg += cg_mixed > cg_self
        # Memory-bound side: CG prefers the compute-bound partner on
        # every architecture (it gets the bus to itself).
        assert better_cg >= 6
        # Compute-bound side: in our bus-centric model FT mildly prefers
        # a second FT over the bus-hungry CG (documented deviation from
        # the paper's blanket both-benefit claim) — but the mix must
        # never be catastrophic for it.
        for cfg in fig4.config_order:
            ft_mixed = fig4.speedups["CG/FT"][cfg][1]
            ft_self = fig4.speedups["FT/FT"][cfg][0]
            assert ft_mixed > 0.75 * ft_self

    def test_ht_on_8_2_competitive_for_cg_ft(self, fig4):
        """Paper: 'The HT on -8- configuration is the fastest for the
        [CG]/FT test but only by a small margin.'  In our model the four
        dedicated cores of HT off 2-4-2 keep a modest edge over the 4+4
        mixed SMT contexts (documented deviation, EXPERIMENTS.md); the
        loaded HT configuration must still be the best *HT-on* choice
        and land within ~20% of the overall winner."""
        combined = {
            cfg: sum(fig4.speedups["CG/FT"][cfg])
            for cfg in fig4.config_order
        }
        best = max(combined, key=combined.get)
        assert best in ("ht_on_8_2", "ht_off_4_2")
        ht_on = {c: v for c, v in combined.items() if c.startswith("ht_on")}
        assert max(ht_on, key=ht_on.get) == "ht_on_8_2"
        assert combined["ht_on_8_2"] / combined[best] > 0.8

    def test_ht_on_l2_worse_in_multiprogram(self, fig4):
        """'In general, all of the HT on configurations have a worse L2
        miss rate than their HT off equivalents.'"""
        panel = fig4.panels["l2_miss_rate"]
        row = panel["CG (CG/FT)"]
        # Groups 2 and 3 (the paper notes exceptions elsewhere).
        assert row["ht_on_4_1"] > row["ht_off_2_1"]
        assert row["ht_on_4_2"] > row["ht_off_2_2"]

    def test_ft_ft_trace_cache_favours_ht_on(self, fig4):
        """'...with the HT on configurations having an advantage in the
        FT/FT workload' (same code on both siblings).'"""
        tc = fig4.panels["tc_miss_rate"]["FT/FT"]
        assert tc["ht_on_4_1"] < tc["ht_off_2_1"]

    def test_mixed_workload_trace_cache_favours_ht_off(self, fig4):
        """'The trace cache miss rate finds the HT off configurations for
        both groups 2 and 3 are better than the HT on configurations for
        the [CG]/FT workload.'"""
        tc = fig4.panels["tc_miss_rate"]["CG (CG/FT)"]
        assert tc["ht_on_4_1"] > tc["ht_off_2_1"]


class TestSection43CrossProduct:
    @pytest.fixture(scope="class")
    def fig5(self, study):
        return fig5_crossproduct.run(study)

    def test_cmp_based_smp_wins_majority(self, fig5):
        """'...the HT off -4- (CMP-based SMP) architecture provides the
        overall best performance for the majority of program pairs.'"""
        wins = fig5.best_config_count()
        best = max(wins, key=wins.get)
        assert best == "ht_off_4_2"
        assert wins["ht_off_4_2"] > sum(wins.values()) / 2

    def test_ht_on_has_large_upper_whiskers(self, fig5):
        """'...which accounts for the large whiskers on the results for
        the HT on architectures.'"""
        ht_on = fig5.stats["ht_on_8_2"]
        ht_off = fig5.stats["ht_off_4_2"]
        assert (ht_on.maximum - ht_on.q3) > (ht_off.maximum - ht_off.q3)

    def test_samples_cover_all_pairs(self, fig5):
        # 21 unordered pairs x 2 program samples.
        assert all(len(s) == 42 for s in fig5.samples.values())
