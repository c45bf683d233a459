"""Tests for the front-side-bus / prefetcher contention model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.params import BusParams
from repro.mem.bus import (
    BusLoad,
    BusModel,
    PREFETCH_WASTE,
    resolve_lite_lanes,
)


def model(**over):
    return BusModel(BusParams(**over), n_chips_total=2)


def load(key="A0", chip=0, demand=1e9, rf=0.8, pf=0.5):
    return BusLoad(key=key, chip=chip, demand_bytes_per_sec=demand,
                   read_fraction=rf, prefetchability=pf)


class TestStreamingBandwidth:
    def test_paper_numbers(self):
        m = model()
        assert m.streaming_bandwidth(1, "read") == pytest.approx(3.57e9)
        assert m.streaming_bandwidth(1, "write") == pytest.approx(1.77e9)
        assert m.streaming_bandwidth(2, "read") == pytest.approx(4.43e9)
        assert m.streaming_bandwidth(2, "write") == pytest.approx(2.06e9)

    def test_controller_caps_two_chips(self):
        m = model()
        assert m.streaming_bandwidth(2, "read") < 2 * m.streaming_bandwidth(
            1, "read"
        )

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            model().streaming_bandwidth(1, "copy")


class TestResolve:
    def test_empty(self):
        assert model().resolve([]) == {}

    def test_light_load_low_latency(self):
        out = model().resolve([load(demand=1e8)])
        o = out["A0"]
        assert o.latency_multiplier < 1.2
        assert o.utilization < 0.2

    def test_heavy_load_saturates(self):
        out = model().resolve([load(demand=1e10)])
        assert out["A0"].utilization > 1.0
        assert out["A0"].latency_multiplier > 1.5

    def test_latency_monotone_in_demand(self):
        m = model()
        mults = [
            m.resolve([load(demand=d)])["A0"].latency_multiplier
            for d in (1e8, 5e8, 1e9, 2e9, 3e9)
        ]
        assert mults == sorted(mults)

    def test_prefetch_coverage_with_headroom(self):
        out = model().resolve([load(demand=2e8, pf=1.0)])
        assert out["A0"].prefetch_coverage > 0.5

    def test_prefetch_gated_at_saturation(self):
        out = model().resolve([load(demand=8e9, pf=1.0)])
        assert out["A0"].prefetch_coverage == pytest.approx(0.0, abs=0.02)

    def test_unprefetchable_gets_no_coverage(self):
        out = model().resolve([load(demand=2e8, pf=0.0)])
        assert out["A0"].prefetch_coverage == 0.0

    def test_prefetch_transactions_accounting(self):
        out = model().resolve([load(demand=2e8, pf=1.0)])["A0"]
        miss_tps = 2e8 / 128
        expected_demand = miss_tps * (1 - out.prefetch_coverage)
        expected_pf = miss_tps * out.prefetch_coverage * (1 + PREFETCH_WASTE)
        assert out.demand_tps == pytest.approx(expected_demand)
        assert out.prefetch_tps == pytest.approx(expected_pf)
        assert 0.0 < out.prefetch_access_fraction < 1.0

    def test_two_chips_share_system_capacity(self):
        m = model()
        one = m.resolve([load(key="A0", chip=0, demand=2.2e9, pf=0.0)])
        two = m.resolve([
            load(key="A0", chip=0, demand=2.2e9, pf=0.0),
            load(key="A4", chip=1, demand=2.2e9, pf=0.0),
        ])
        # 2.2 GB/s fits one chip, but 4.4 across both exceeds the
        # controller's 4.43 read capacity once snoops are added.
        assert two["A0"].utilization > one["A0"].utilization
        assert two["A0"].utilization > 0.9

    def test_snoop_overhead_grows_with_agents(self):
        m = model()
        per_agent = 4e8
        u2 = m.resolve([
            load(key=f"A{i}", chip=0, demand=per_agent, pf=0.0)
            for i in range(2)
        ])["A0"].utilization
        u4_split = m.resolve([
            load(key=f"A{i}", chip=i % 2, demand=per_agent / 2, pf=0.0)
            for i in range(4)
        ])
        # Same total demand on the controller: halving each chip's
        # share barely helps, because the cross-chip agents' reflected
        # snoops occupy the controller (10 %/agent vs 2 % same-chip).
        assert max(o.utilization for o in u4_split.values()) > 0.9 * u2

    def test_cross_chip_snoop_costlier_than_local(self):
        m = model()
        # Two agents on one chip vs one per chip, equal total demand that
        # stresses the *system* capacity.
        same = m.resolve([
            load(key="A0", chip=0, demand=2e9, pf=0.0),
            load(key="A1", chip=0, demand=2e9, pf=0.0),
        ])
        split = m.resolve([
            load(key="A0", chip=0, demand=2e9, pf=0.0),
            load(key="A4", chip=1, demand=2e9, pf=0.0),
        ])
        # Splitting chips gains chip-port capacity but pays reflected
        # snoops at the controller; both effects must be present.
        assert same["A0"].utilization != split["A0"].utilization

    def test_write_heavy_mix_has_less_capacity(self):
        m = model()
        reads = m.resolve([load(demand=1.5e9, rf=1.0, pf=0.0)])["A0"]
        writes = m.resolve([load(demand=1.5e9, rf=0.0, pf=0.0)])["A0"]
        assert writes.utilization > reads.utilization


class TestProperties:
    @given(st.floats(min_value=1e6, max_value=2e10))
    @settings(max_examples=30, deadline=None)
    def test_multiplier_at_least_one(self, demand):
        out = model().resolve([load(demand=demand)])
        assert out["A0"].latency_multiplier >= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1e6, max_value=1e10))
    @settings(max_examples=30, deadline=None)
    def test_coverage_bounded(self, pf, demand):
        out = model().resolve([load(demand=demand, pf=pf)])
        cov = out["A0"].prefetch_coverage
        assert 0.0 <= cov <= BusParams().prefetch_max_coverage + 1e-9


# ----------------------------------------------------------------------
# The class-indexed kernel
# ----------------------------------------------------------------------

demands = st.one_of(st.just(0.0), st.floats(min_value=1e6, max_value=1e10))
fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def class_steps(draw):
    """A step collapsed into classes the way the resolver's classifier
    collapses one: each chip carries one of a few member sequences
    (several chips may repeat a sequence), a class lives in exactly one
    sequence, and a sequence may list a class more than once.

    Returns ``(chip_members, class_chip, per-class inputs)``.
    """
    n_seqs = draw(st.integers(1, 3))
    seqs, next_class = [], 0
    for _ in range(n_seqs):
        ids = list(range(next_class, next_class + draw(st.integers(1, 3))))
        next_class = ids[-1] + 1
        repeats = draw(st.lists(st.sampled_from(ids), max_size=2))
        seqs.append(tuple(draw(st.permutations(ids + repeats))))
    n_chips = draw(st.integers(n_seqs, 4))
    chip_seq = draw(st.permutations(
        list(range(n_seqs))
        + draw(st.lists(st.integers(0, n_seqs - 1),
                        min_size=n_chips - n_seqs,
                        max_size=n_chips - n_seqs))
    ))
    chip_members = tuple(seqs[i] for i in chip_seq)
    class_chip = tuple(
        next(c for c, members in enumerate(chip_members) if k in members)
        for k in range(next_class)
    )

    def per_class(elements):
        return draw(st.lists(elements, min_size=next_class,
                             max_size=next_class))

    inputs = dict(
        demand=per_class(demands),
        read_frac=per_class(fractions),
        prefetchability=per_class(fractions),
        bw_scale=per_class(st.one_of(
            st.just(1.0), st.floats(min_value=0.3, max_value=1.0))),
        cov=per_class(st.floats(min_value=0.0, max_value=0.85)),
    )
    return chip_members, class_chip, inputs


buses = st.floats(min_value=0.25, max_value=4.0).map(
    lambda s: BusModel(BusParams(
        chip_read_bw=3.57e9 * s, chip_write_bw=1.77e9 * s,
        system_read_bw=4.43e9 * s, system_write_bw=2.06e9 * s,
    ))
)


def bits(values):
    return [float(v).hex() for v in values]


def solve(bus, chip_members, class_chip, inputs):
    classes = bus.prepare(
        chip_members, class_chip, inputs["demand"], inputs["read_frac"],
        inputs["prefetchability"], inputs["bw_scale"],
    )
    return bus.resolve_lite(classes, inputs["demand"], inputs["cov"])


class TestClassKernel:
    @given(class_steps(), buses)
    @settings(max_examples=200, deadline=None)
    def test_classes_equal_one_class_per_context(self, step, bus):
        """Collapsing contexts into classes is bit-identical to solving
        every context as its own class."""
        chip_members, class_chip, inputs = step
        of_context = [k for members in chip_members for k in members]
        expanded_members, start = [], 0
        for members in chip_members:
            expanded_members.append(
                tuple(range(start, start + len(members))))
            start += len(members)
        expanded_chip = tuple(
            c for c, members in enumerate(chip_members) for _ in members
        )
        expanded = {
            name: [values[k] for k in of_context]
            for name, values in inputs.items()
        }
        got = solve(bus, chip_members, class_chip, inputs)
        want = solve(bus, tuple(expanded_members), expanded_chip, expanded)
        for got_k, want_i in zip(got, want):
            assert bits(got_k[k] for k in of_context) == bits(want_i)

    @given(class_steps(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lane_loop_runs_the_kernel_per_live_lane(self, step, data):
        """Live lanes get exactly the per-lane kernel's values; frozen
        lanes are left alone."""
        chip_members, class_chip, inputs = step
        n_lanes = data.draw(st.integers(1, 5))
        lane_buses = [data.draw(buses) for _ in range(n_lanes)]
        K = len(class_chip)
        demand = np.array([
            data.draw(st.lists(demands, min_size=K, max_size=K))
            for _ in range(n_lanes)
        ]).reshape(n_lanes, K)
        live = np.array(data.draw(st.lists(
            st.booleans(), min_size=n_lanes, max_size=n_lanes)))
        classes = [
            bus.prepare(chip_members, class_chip, list(demand[l]),
                        inputs["read_frac"], inputs["prefetchability"],
                        inputs["bw_scale"])
            for l, bus in enumerate(lane_buses)
        ]
        mult = np.full((n_lanes, K), -1.0)
        cov = np.tile(np.array(inputs["cov"]).reshape(1, K), (n_lanes, 1))
        util = np.full((n_lanes, K), -2.0)
        before = [a.copy() for a in (mult, cov, util)]
        want = [
            bus.resolve_lite(classes[l], demand[l].tolist(), inputs["cov"])
            for l, bus in enumerate(lane_buses)
        ]
        resolve_lite_lanes(lane_buses, classes, demand, live, mult, cov,
                           util)
        for l in range(n_lanes):
            for j, arr in enumerate((mult, cov, util)):
                expect = want[l][j] if live[l] else before[j][l]
                assert bits(arr[l]) == bits(expect), (l, j)

    def test_prepare_counts_only_agents_with_demand(self):
        """A zero-demand context is no bus agent: it adds no snoop
        traffic to its chip or the others."""
        bus = model()
        idle = bus.prepare(((0, 1), (2,)), (0, 0, 1), [1e9, 0.0, 1e9],
                           [0.8] * 3, [0.5] * 3, [1.0] * 3)
        alone = bus.prepare(((0,), (1,)), (0, 1), [1e9, 1e9],
                            [0.8] * 2, [0.5] * 2, [1.0] * 2)
        assert idle.snoop_chip == alone.snoop_chip
        assert idle.snoop_sys == alone.snoop_sys
