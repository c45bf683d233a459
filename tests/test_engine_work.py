"""How much work an uncached engine run does, counted in model calls.

Two rules keep the engine's speed honest:

* no hidden memory tier: with the run cache off, every ``Study.run`` /
  ``Study.run_pair`` call simulates, so N identical calls resolve N
  times as many steps as one call (a memo of phase-derived numbers that
  outlived a run would show up here as fewer resolves);
* prework runs the hierarchy model once per contention-equivalence
  class, never for a class member or a sibling whose class
  representative already ran.
"""

import pytest

from repro.core import runcache
from repro.core.context import override
from repro.core.study import Study
from repro.mem.hierarchy import HierarchyModel
from repro.sim.resolver import FixedPointResolver


@pytest.fixture
def no_cache():
    runcache.configure(reset=True, enabled=False)
    yield
    runcache.configure(reset=True)


def _counting(monkeypatch, cls, name):
    """Count calls of ``cls.name`` (still calling through)."""
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("call", [
    lambda s: s.run("CG", "ht_on_8_2"),
    lambda s: s.run("SP", "ht_off_4_2"),
    lambda s: s.run_pair("MG", "FT", "ht_on_4_2"),
])
def test_identical_uncached_calls_resolve_every_time(
    no_cache, monkeypatch, call
):
    resolves = _counting(monkeypatch, FixedPointResolver, "resolve")
    study = Study("S")
    first = call(study)
    once = len(resolves)
    assert once > 0
    runs = 4
    for _ in range(runs - 1):
        assert call(study) == first
    assert len(resolves) == runs * once


@pytest.mark.parametrize("config, pair", [
    ("ht_on_8_2", False),
    ("ht_on_4_1", False),
    ("ht_on_8_2", True),
    ("ht_on_4_2", True),
])
def test_prework_evaluates_the_hierarchy_once_per_class(
    monkeypatch, config, pair
):
    evaluations = _counting(monkeypatch, HierarchyModel, "evaluate")
    per_step = []
    resolve = FixedPointResolver.resolve

    def checked(self, active):
        before = len(evaluations)
        resolved = resolve(self, active)
        classes = {r.class_index for r in resolved.values()}
        per_step.append((len(evaluations) - before, len(classes),
                         len(active)))
        return resolved

    monkeypatch.setattr(FixedPointResolver, "resolve", checked)
    study = Study("S")
    engine = study.engine(config)
    with override(verify=False):
        if pair:
            engine.run_pair(study.workload("MG"), study.workload("FT"))
        else:
            engine.run_single(study.workload("CG"))
    assert per_step
    for evaluated, classes, _ in per_step:
        assert evaluated == classes
    # The HT steps collapse: some step has more busy contexts than
    # evaluations (every sibling shares its representative's rates).
    assert any(evaluated < n_active for evaluated, _, n_active in per_step)
