"""Tests for the performance-counter model."""

import pytest

from repro.counters.collector import Collector, CounterSet
from repro.counters.events import Event, RATE_DEFINITIONS
from repro.counters.metrics import derive_metrics


class TestCounterSet:
    def test_add_and_get(self):
        cs = CounterSet()
        cs.add(Event.CYCLES, 100.0)
        cs.add(Event.CYCLES, 50.0)
        assert cs[Event.CYCLES] == 150.0
        assert cs[Event.INSTR_RETIRED] == 0.0

    def test_negative_rejected(self):
        cs = CounterSet()
        with pytest.raises(ValueError):
            cs.add(Event.CYCLES, -1.0)

    def test_merge(self):
        a = CounterSet({Event.CYCLES: 10.0})
        b = CounterSet({Event.CYCLES: 5.0, Event.INSTR_RETIRED: 2.0})
        m = a.merge(b)
        assert m[Event.CYCLES] == 15.0
        assert m[Event.INSTR_RETIRED] == 2.0
        assert a[Event.CYCLES] == 10.0  # merge is pure

    def test_ratio(self):
        cs = CounterSet({Event.L1D_MISS: 5.0, Event.L1D_ACCESS: 50.0})
        assert cs.ratio(Event.L1D_MISS, Event.L1D_ACCESS) == 0.1
        assert cs.ratio(Event.L2_MISS, Event.L2_ACCESS) == 0.0


class TestFrozenCounterSet:
    """A finished run's sets are packed (shared schema + array('d'))
    without changing a single value or the public API."""

    COUNTS = {Event.INSTR_RETIRED: 3.0, Event.CYCLES: 0.1 + 0.2,
              Event.L1D_MISS: 1e-300, Event.L1D_ACCESS: 7.5}

    def test_frozen_equals_dict_form_and_keeps_order(self):
        frozen = CounterSet(self.COUNTS).freeze()
        assert frozen == CounterSet(self.COUNTS)
        assert list(frozen.as_dict().items()) == list(self.COUNTS.items())
        for ev, v in self.COUNTS.items():
            assert frozen[ev] == v and frozen.get(ev) == v
        assert frozen[Event.L2_MISS] == 0.0
        assert frozen.ratio(Event.L1D_MISS, Event.L1D_ACCESS) == \
            self.COUNTS[Event.L1D_MISS] / 7.5
        merged = frozen.merge(CounterSet({Event.CYCLES: 1.0}))
        assert merged == CounterSet(self.COUNTS).merge(
            CounterSet({Event.CYCLES: 1.0}))
        assert frozen.freeze() is frozen

    def test_sets_with_one_event_order_share_a_schema(self):
        a = CounterSet(self.COUNTS).freeze()
        b = CounterSet({ev: 2 * v for ev, v in self.COUNTS.items()}).freeze()
        assert a._schema is b._schema
        assert a != b

    def test_add_on_a_frozen_set_unpacks_it(self):
        cs = CounterSet(self.COUNTS).freeze()
        cs.add(Event.CYCLES, 1.0)
        cs.add(Event.L2_MISS, 2.0)
        assert cs[Event.CYCLES] == self.COUNTS[Event.CYCLES] + 1.0
        assert list(cs.as_dict())[-1] is Event.L2_MISS

    def test_pickle_round_trip_keeps_the_shared_schema(self):
        import pickle

        frozen = CounterSet(self.COUNTS).freeze()
        back = pickle.loads(pickle.dumps(frozen))
        assert back == frozen and back._schema is frozen._schema
        assert list(back.as_dict().items()) == list(self.COUNTS.items())

    def test_run_results_survive_the_disk_tier(self, tmp_path):
        from repro.core.runcache import RunCache
        from repro.core.study import Study

        result = Study("S").run("CG", "ht_on_4_1")
        counters = result.programs[0].counters
        assert counters._counts is None  # frozen once the run finished
        RunCache(disk_dir=tmp_path).put("fp", ("CG",), result)
        back = RunCache(disk_dir=tmp_path).get("fp", ("CG",))
        assert back.programs[0].counters == counters
        assert list(back.programs[0].counters.as_dict().items()) == \
            list(counters.as_dict().items())
        assert back.collector.total() == result.collector.total()
        assert back.metrics() == result.metrics()

    def test_a_fresh_interpreter_reads_disk_tier_counters(self, tmp_path):
        """Events hash by identity, so a result unpickled in another
        process must key its counters by that process's members."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.core.runcache import RunCache
        from repro.core.study import Study

        result = Study("S").run("CG", "ht_on_4_1")
        counters = result.programs[0].counters
        assert counters.get(Event.L2_MISS) > 0
        RunCache(disk_dir=tmp_path / "cache").put("fp", ("CG",), result)
        expected = [[ev.value, v.hex()] for ev, v in counters.as_dict().items()]
        code = (
            "import json, sys\n"
            "from repro.core.runcache import RunCache\n"
            "from repro.counters.collector import CounterSet\n"
            "from repro.counters.events import Event\n"
            "cache_dir, expected = sys.argv[1], json.loads(sys.argv[2])\n"
            "back = RunCache(disk_dir=cache_dir).get('fp', ('CG',))\n"
            "got = back.programs[0].counters\n"
            "want = CounterSet({Event(n): float.fromhex(h)\n"
            "                   for n, h in expected})\n"
            "assert got == want\n"
            "assert got.get(Event.L2_MISS) == want.get(Event.L2_MISS) > 0\n"
            "print(json.dumps([[e.value, v.hex()]\n"
            "                  for e, v in got.as_dict().items()]))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "cache"),
             json.dumps(expected)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


class TestCollector:
    def test_program_aggregation(self):
        c = Collector()
        c.add(0, "A0", Event.CYCLES, 10.0)
        c.add(0, "A1", Event.CYCLES, 20.0)
        c.add(1, "A2", Event.CYCLES, 40.0)
        assert c.for_program(0)[Event.CYCLES] == 30.0
        assert c.for_program(1)[Event.CYCLES] == 40.0
        assert c.total()[Event.CYCLES] == 70.0

    def test_context_aggregation(self):
        c = Collector()
        c.add(0, "A0", Event.CYCLES, 10.0)
        c.add(1, "A0", Event.CYCLES, 5.0)
        assert c.for_context("A0")[Event.CYCLES] == 15.0

    def test_add_many(self):
        c = Collector()
        c.add_many(0, "A0", {Event.CYCLES: 1.0, Event.INSTR_RETIRED: 2.0})
        assert c.total()[Event.INSTR_RETIRED] == 2.0

    def test_enumeration(self):
        c = Collector()
        c.add(2, "B1", Event.CYCLES, 1.0)
        c.add(0, "B0", Event.CYCLES, 1.0)
        assert list(c.programs()) == [0, 2]
        assert list(c.contexts()) == ["B0", "B1"]


class TestDerivedMetrics:
    def make_counters(self):
        return CounterSet({
            Event.CYCLES: 1000.0,
            Event.INSTR_RETIRED: 500.0,
            Event.STALL_CYCLES: 400.0,
            Event.L1D_ACCESS: 200.0,
            Event.L1D_MISS: 20.0,
            Event.L2_ACCESS: 20.0,
            Event.L2_MISS: 10.0,
            Event.TC_DELIVER: 80.0,
            Event.TC_MISS: 8.0,
            Event.ITLB_ACCESS: 10.0,
            Event.ITLB_MISS: 1.0,
            Event.DTLB_ACCESS: 200.0,
            Event.DTLB_MISS: 4.0,
            Event.BRANCH_RETIRED: 50.0,
            Event.BRANCH_MISPRED: 2.0,
            Event.BUS_TRANS_DEMAND: 9.0,
            Event.BUS_TRANS_PREFETCH: 3.0,
        })

    def test_all_rates(self):
        m = derive_metrics(self.make_counters())
        assert m.cpi == pytest.approx(2.0)
        assert m.l1_miss_rate == pytest.approx(0.1)
        assert m.l2_miss_rate == pytest.approx(0.5)
        assert m.tc_miss_rate == pytest.approx(0.1)
        assert m.itlb_miss_rate == pytest.approx(0.1)
        assert m.stall_fraction == pytest.approx(0.4)
        assert m.branch_prediction_rate == pytest.approx(0.96)
        assert m.prefetch_bus_fraction == pytest.approx(0.25)
        assert m.dtlb_misses == pytest.approx(4.0)

    def test_normalized_dtlb(self):
        m = derive_metrics(self.make_counters())
        serial = derive_metrics(CounterSet({Event.DTLB_MISS: 2.0}))
        assert m.normalized_dtlb(serial) == pytest.approx(2.0)

    def test_normalized_dtlb_zero_baseline(self):
        m = derive_metrics(self.make_counters())
        empty = derive_metrics(CounterSet())
        assert m.normalized_dtlb(empty) == 0.0

    def test_empty_counters_all_zero(self):
        m = derive_metrics(CounterSet())
        assert m.cpi == 0.0
        assert m.prefetch_bus_fraction == 0.0


class TestEventTaxonomy:
    def test_rate_definitions_reference_events(self):
        for num, den in RATE_DEFINITIONS.values():
            assert isinstance(num, Event) and isinstance(den, Event)

    def test_numerator_classification(self):
        assert Event.L1D_MISS.is_ratio_numerator
        assert not Event.L1D_ACCESS.is_ratio_numerator
