"""Unit tests for the chaos soak harness (``tools/soak.py``).

The soak's end-to-end loop (subprocess run-all under randomized faults)
runs in CI as its own chaos-drill job; these tests pin the harness'
deterministic pieces so a refactor of the soak cannot silently change
what the drill asserts.
"""

import random
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import soak  # noqa: E402  (needs the tools/ path above)

from repro.testing import faults  # noqa: E402


SELECTED = ["fig2", "fig3", "table2"]


class TestDrawFault:
    def test_same_seed_draws_identical_plans(self):
        a = [soak.draw_fault(random.Random(7), SELECTED) for _ in range(20)]
        b = [soak.draw_fault(random.Random(7), SELECTED) for _ in range(20)]
        assert a == b

    def test_all_kinds_reachable(self):
        rng = random.Random(0)
        kinds = {soak.draw_fault(rng, SELECTED)[0] for _ in range(300)}
        assert kinds == {
            "none", "fail-experiment", "sigkill-self", "hang",
            "cache-corrupt", "worker-death", "slow-cache",
            "sigint", "sigterm", "sigkill",
        }

    def test_every_faults_token_parses(self):
        # Whatever the soak injects must be a spec run-all accepts —
        # a typo here would make the drill exit 2 and look like a pass
        # of the "terminal state" invariant for the wrong reason.
        rng = random.Random(1)
        for _ in range(300):
            _, opts = soak.draw_fault(rng, SELECTED)
            if opts["faults"]:
                faults.parse_plan(opts["faults"])

    def test_fail_experiment_targets_a_selected_id(self):
        rng = random.Random(2)
        for _ in range(200):
            kind, opts = soak.draw_fault(rng, SELECTED)
            if kind == "fail-experiment":
                plan = faults.parse_plan(opts["faults"])
                assert set(plan.fail_experiments) <= set(SELECTED)

    def test_hang_rides_with_an_experiment_timeout(self):
        rng = random.Random(3)
        for _ in range(200):
            kind, opts = soak.draw_fault(rng, SELECTED)
            if kind == "hang":
                assert "--experiment-timeout" in opts["extra_args"]

    def test_signal_kinds_carry_a_delay(self):
        rng = random.Random(4)
        for _ in range(200):
            kind, opts = soak.draw_fault(rng, SELECTED)
            if kind in ("sigint", "sigterm", "sigkill"):
                assert opts["signal"] is not None
                assert 0.05 <= opts["delay"] <= 0.6
            else:
                assert opts["signal"] is None


class TestEnvAndSpec:
    def test_env_strips_ambient_supervision_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "experiment:fig2")
        monkeypatch.setenv("REPRO_JOURNAL", "0")
        env = soak._env(None)
        for key in ("REPRO_FAULTS", "REPRO_JOURNAL"):
            assert key not in env
        assert soak._env("hang:0:30")["REPRO_FAULTS"] == "hang:0:30"

    def test_spec_describes_the_draw(self):
        assert soak._spec("none", {"faults": None, "signal": None,
                                   "delay": 0.0}) == "none"
        desc = soak._spec("hang", {"faults": "hang:1:30", "signal": None,
                                   "delay": 0.0})
        assert desc == "hang faults=hang:1:30"


class TestRowComparison:
    ROW = {
        "status": "ok", "wave": 0, "result": {"speedup": 2.0},
        "wall_time_s": 1.23, "cache": {"hits": 4},
    }

    def test_strip_provenance_drops_only_timing_keys(self):
        stripped = soak.strip_provenance(self.ROW)
        assert stripped == {
            "status": "ok", "wave": 0, "result": {"speedup": 2.0},
        }

    def test_rows_match_modulo_provenance(self):
        noisy = dict(self.ROW, wall_time_s=9.9, cache={})
        soak.check_rows_match(
            {"experiments": {"fig2": noisy}},
            {"experiments": {"fig2": self.ROW}},
        )

    def test_diverging_result_fails(self):
        wrong = dict(self.ROW, result={"speedup": 1.0})
        with pytest.raises(soak.SoakFailure, match="diverges"):
            soak.check_rows_match(
                {"experiments": {"fig2": wrong}},
                {"experiments": {"fig2": self.ROW}},
            )

    def test_missing_row_fails(self):
        with pytest.raises(soak.SoakFailure, match="lacks row"):
            soak.check_rows_match(
                {"experiments": {}},
                {"experiments": {"fig2": self.ROW}},
            )
