"""The per-layer metrics: their definitions, the end-to-end metric each
should move, and the self-time report.

Every ``*_ms`` metric is the layer's mean self time per call, in
milliseconds; self time is a span's duration minus the time its child
spans cover (:func:`perfbench.trace.self_times`).  Counts are totals
for the traced phase of one run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from perfbench.trace import LayerStats, family

EXPERIMENTS = (
    "ablations", "class-scaling", "efficiency", "energy", "fig2", "fig3",
    "fig4", "fig5", "groups", "nextgen", "omp-overheads", "scaling-curves",
    "sec3-lmbench", "sensitivity", "table2", "tuning", "validation",
)

#: Span-name prefix -> the end-to-end metrics (and workloads) a change
#: to that layer should move.  Longest prefix wins.
TARGETS: Dict[str, str] = {
    "workload.build": "cold_s/warm_s on runall; setup_s on analytic",
    "core.study": "cold_s on runall",
    "core.runcache": "warm_s/cold_s on runall; submit_ms_p50 on serve",
    "sim.engine": "run_ms_p50 on analytic; cold_s on runall",
    "sim.resolver": "run_ms_p50 on analytic",
    "mem.bus": "run_ms_p50/run_ms_p99 on analytic",
    "cpu.pipeline": "run_ms_p50/run_ms_p99 on analytic",
    "sim.advance": "run_ms_p50/run_ms_p99 on analytic",
    "sim.batch": "cold_s on runall",
    "mem.bus.lanes": "cold_s on runall",
    "experiments.pipeline": "cold_s/warm_s on runall",
    "supervise.journal": "cold_s on runall",
    "serve.app": "submit_ms_p50/jobs_per_s on serve",
    "serve.schema": "submit_ms_p50 on serve",
    "serve.scheduler": "jobs_per_s/job_ms_p99 on serve",
    "serve.runner.probe": "submit_ms_p50 on serve",
    "serve.runner.execute": "job_ms_p99 on serve",
    "serve.store": "submit_ms_p99/jobs_per_s on serve",
    "bench": "(harness health)",
}

#: ``(name, unit, better)`` for every per-layer metric, in report order.
#: BENCHMARK.json's ``per_layer`` lists exactly these.
METRICS: List[Tuple[str, str, str]] = [
    ("workload.build_calls", "count", "lower"),
    ("workload.build_ms", "ms", "lower"),
    ("core.study.run_calls", "count", "lower"),
    ("core.study.run_ms", "ms", "lower"),
    ("core.runcache.get_calls", "count", "lower"),
    ("core.runcache.memory_hits", "count", "higher"),
    ("core.runcache.disk_hits", "count", "higher"),
    ("core.runcache.misses", "count", "lower"),
    ("core.runcache.hit_ratio", "ratio", "higher"),
    ("core.runcache.quarantined", "count", "lower"),
    ("core.runcache.get_ms", "ms", "lower"),
    ("core.runcache.put_ms", "ms", "lower"),
    ("core.runcache.disk_bytes", "bytes", "lower"),
    ("sim.engine.run_calls", "count", "lower"),
    ("sim.engine.run_ms", "ms", "lower"),
    ("sim.engine.steps_per_run", "count", "lower"),
    ("sim.resolver.resolve_calls", "count", "lower"),
    ("sim.resolver.prework_ms", "ms", "lower"),
    ("sim.resolver.fixed_point_ms", "ms", "lower"),
    ("sim.resolver.iters_per_resolve", "count", "lower"),
    ("mem.bus.resolve_lite_ms", "ms", "lower"),
    ("mem.bus.build_outcomes_ms", "ms", "lower"),
    ("cpu.pipeline.breakdown_ms", "ms", "lower"),
    ("sim.advance.accumulate_ms", "ms", "lower"),
    ("sim.advance.phase_wall_time_ms", "ms", "lower"),
    ("sim.batch.resolve_lanes_calls", "count", "lower"),
    ("sim.batch.lanes_per_call", "count", "higher"),
    ("sim.batch.resolve_lanes_ms", "ms", "lower"),
    ("mem.bus.lanes_ms", "ms", "lower"),
    ("sim.batch.run_batched_single_ms", "ms", "lower"),
    ("sim.batch.batched_machines", "count", "higher"),
    ("sim.batch.scalar_fallbacks", "count", "lower"),
    ("sim.batch.deduplicated", "count", "higher"),
    *[(f"experiments.pipeline.experiment_ms.{e}", "ms", "lower")
      for e in EXPERIMENTS],
    ("experiments.pipeline.write_ms", "ms", "lower"),
    ("supervise.journal.appends", "count", "lower"),
    ("supervise.journal.append_ms", "ms", "lower"),
    ("serve.app.requests.post", "count", "lower"),
    ("serve.app.requests.get", "count", "lower"),
    ("serve.app.polls_per_job", "count", "lower"),
    ("serve.app.http_ms", "ms", "lower"),
    ("serve.app.server_share", "ratio", "higher"),
    ("serve.schema.parse_ms", "ms", "lower"),
    ("serve.schema.job_key_ms", "ms", "lower"),
    ("serve.scheduler.submit_ms.cache", "ms", "lower"),
    ("serve.scheduler.submit_ms.dedup", "ms", "lower"),
    ("serve.scheduler.submit_ms.executed", "ms", "lower"),
    ("serve.scheduler.coalesced_ratio", "ratio", "higher"),
    ("serve.scheduler.engine_calls", "count", "lower"),
    ("serve.runner.probe_ms", "ms", "lower"),
    ("serve.runner.probe_hit_ratio", "ratio", "higher"),
    ("serve.runner.execute_ms", "ms", "lower"),
    ("serve.store.journal_appends", "count", "lower"),
    ("serve.store.appends_per_job", "count", "lower"),
    ("serve.store.journal_append_ms", "ms", "lower"),
    ("bench.gen.late_ms_p99", "ms", "lower"),
    ("bench.trace.overhead", "ratio", "lower"),
]

def target_of(span_name: str) -> str:
    best = ""
    for prefix in TARGETS:
        if (span_name == prefix or span_name.startswith(prefix + ".")) and \
                len(prefix) > len(best):
            best = prefix
    return TARGETS.get(best, "-")


def _mean_ms(st: LayerStats) -> float:
    return st.self_ns / st.calls / 1e6 if st.calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(stats: Mapping[str, LayerStats],
            facts: Mapping[str, float]) -> Dict[str, float]:
    """Every metric of :data:`METRICS` from the aggregated spans and the
    facts gathered outside them (cache counters, manifest, ``/stats``,
    client-side counts); absent layers read 0."""
    def fam(prefix: str) -> LayerStats:
        return family(dict(stats), prefix)

    build = fam("workload.build")
    study = fam("core.study.run")
    get = fam("core.runcache.get")
    engine = fam("sim.engine.run")
    resolve = fam("sim.resolver.resolve")
    lanes = fam("sim.batch.resolve_lanes")
    post, getreq = fam("serve.app.post"), fam("serve.app.get")
    http = LayerStats()
    http.add(post)
    http.add(getreq)
    probe = fam("serve.runner.probe")
    appends = fam("serve.store.journal_append")
    out: Dict[str, float] = {
        "workload.build_calls": build.calls,
        "workload.build_ms": _mean_ms(build),
        "core.study.run_calls": study.calls,
        "core.study.run_ms": _mean_ms(study),
        "core.runcache.get_calls": get.calls,
        "core.runcache.get_ms": _mean_ms(get),
        "core.runcache.put_ms": _mean_ms(fam("core.runcache.put")),
        "sim.engine.run_calls": engine.calls,
        "sim.engine.run_ms": _mean_ms(engine),
        "sim.engine.steps_per_run": _ratio(resolve.spans, engine.calls),
        "sim.resolver.resolve_calls": resolve.spans,
        "sim.resolver.prework_ms": _mean_ms(fam("sim.resolver.prework")),
        "sim.resolver.fixed_point_ms": _mean_ms(resolve),
        "sim.resolver.iters_per_resolve": _ratio(
            fam("mem.bus.resolve_lite").spans, resolve.spans),
        "mem.bus.resolve_lite_ms": _mean_ms(fam("mem.bus.resolve_lite")),
        "mem.bus.build_outcomes_ms": _mean_ms(fam("mem.bus.build_outcomes")),
        "cpu.pipeline.breakdown_ms": _mean_ms(fam("cpu.pipeline.breakdown")),
        "sim.advance.accumulate_ms": _mean_ms(fam("sim.advance.accumulate")),
        "sim.advance.phase_wall_time_ms": _mean_ms(
            fam("sim.advance.phase_wall_time")),
        "sim.batch.resolve_lanes_calls": lanes.calls,
        "sim.batch.lanes_per_call": _ratio(lanes.attr_sum, lanes.calls),
        "sim.batch.resolve_lanes_ms": _mean_ms(lanes),
        "mem.bus.lanes_ms": _mean_ms(fam("mem.bus.lanes")),
        "sim.batch.run_batched_single_ms": _mean_ms(
            fam("sim.batch.run_batched_single")),
        "experiments.pipeline.write_ms": _mean_ms(
            fam("experiments.pipeline.write")),
        "supervise.journal.appends": fam("supervise.journal.append").calls,
        "supervise.journal.append_ms": _mean_ms(
            fam("supervise.journal.append")),
        "serve.app.requests.post": post.calls,
        "serve.app.requests.get": getreq.calls,
        "serve.app.http_ms": _mean_ms(http),
        "serve.schema.parse_ms": _mean_ms(fam("serve.schema.parse")),
        "serve.schema.job_key_ms": _mean_ms(fam("serve.schema.job_key")),
        "serve.runner.probe_ms": _mean_ms(probe),
        "serve.runner.probe_hit_ratio": _ratio(
            fam("serve.runner.probe.hit").calls, probe.calls),
        "serve.runner.execute_ms": _mean_ms(fam("serve.runner.execute")),
        "serve.store.journal_appends": appends.calls,
        "serve.store.journal_append_ms": _mean_ms(appends),
    }
    for source in ("cache", "dedup", "executed"):
        out[f"serve.scheduler.submit_ms.{source}"] = _mean_ms(
            fam(f"serve.scheduler.submit.{source}"))
    for name, _, _ in METRICS:
        if name in facts:
            out[name] = facts[name]
        out.setdefault(name, 0.0)
    return {name: float(out[name]) for name, _, _ in METRICS}


def table(stats: Mapping[str, LayerStats], e2e_ms: float,
          title: str) -> List[str]:
    """The self-time table of one traced phase, largest share first.
    ``e2e_ms`` is the phase's end-to-end time the shares refer to."""
    rows = sorted(stats.items(), key=lambda kv: -kv[1].self_ns)
    lines = [
        f"  {title}  (end-to-end {e2e_ms:.1f} ms)",
        f"    {'layer':34s} {'calls':>8s} {'self ms':>10s} {'share':>7s} "
        f"{'ms/call':>9s}  moves",
    ]
    for name, st in rows:
        self_ms = st.self_ns / 1e6
        lines.append(
            f"    {name:34s} {st.calls:8d} {self_ms:10.1f} "
            f"{_ratio(self_ms, e2e_ms):7.1%} "
            f"{_ratio(self_ms, st.calls):9.4f}  {target_of(name)}"
        )
    if not rows:
        lines.append("    (no spans)")
    return lines
