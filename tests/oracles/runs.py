"""Exact equality of two :class:`~repro.sim.results.RunResult` objects.

The engine promises byte-identical results for the same run however it
is reached (shared engines across threads, the class-collapsed resolver
against its per-context oracle), which is stronger than equal runtimes:
every float must match with ``==`` and every dict must keep its
insertion order, because the rendered artifacts depend on both.
"""


def assert_identical_runs(got, want, tag=""):
    """Full structural equality of two RunResults, floats compared
    exactly (``==``, no tolerance) and dict insertion order included."""
    assert got.config.name == want.config.name, tag
    assert got.runtime_seconds == want.runtime_seconds, tag
    assert len(got.programs) == len(want.programs), tag
    for pg, pw in zip(got.programs, want.programs):
        assert pg.runtime_seconds == pw.runtime_seconds, tag
        cg, cw = pg.counters.as_dict(), pw.counters.as_dict()
        assert list(cg) == list(cw), (tag, "counter insertion order")
        assert cg == cw, tag
    sets_g = {k: v.as_dict() for k, v in got.collector._sets.items()}
    sets_w = {k: v.as_dict() for k, v in want.collector._sets.items()}
    assert list(sets_g) == list(sets_w), (tag, "collector set order")
    assert sets_g == sets_w, tag
    assert got.phase_log == want.phase_log, tag
    assert got.timeline.samples == want.timeline.samples, tag
