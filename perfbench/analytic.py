"""The ``analytic`` workload: a seeded stream of uncached engine runs.

The run cache is off, so every ``Study.run`` / ``Study.run_pair`` call
simulates.  The measuring child (:mod:`perfbench.child`) is a fresh
process; set-up is timed from its spawn until it has built every draw's
study, workload and engine, and repeated :data:`SETUP_REPEATS` times.
Every reported time is scaled to the reference host's speed
(:mod:`perfbench.calibrate`); the raw wall times are printed beside.
"""

from __future__ import annotations

import json
import time

from perfbench import calibrate, layers, trace
from perfbench.common import (
    Outcome, child_env, finish, fresh_dir, median, python_cmd, remove_dir,
    spawn_until,
)

SETUP_REPEATS = 3


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    tmp = fresh_dir("analytic-")
    try:
        return _run(seed, seconds, traced, tmp)
    finally:
        remove_dir(tmp)


def _run(seed: int, seconds: float, traced: bool, tmp) -> Outcome:
    env = child_env(tmp)
    base = python_cmd("-m", "perfbench.child", "analytic", "--seed", str(seed),
                      "--seconds", str(seconds))
    out_path = tmp / "result.json"
    spans_path = tmp / "spans.json.gz"
    cmd = base + ["--out", str(out_path)]
    if traced:
        cmd += ["--trace", "1", "--trace-out", str(spans_path)]
    setup_only = [] if traced else [base + ["--setup-only"]] * (SETUP_REPEATS - 1)
    setups = []
    with calibrate.Sampler() as cal:
        for argv in setup_only + [cmd]:
            proc, took, _ = spawn_until(argv, env, "ready")
            ready = time.perf_counter()
            setups.append(took * cal.factor(ready - took, ready))
            rc = finish(proc)

    oc = Outcome()
    if rc != 0 or not out_path.exists():
        oc.attempted, oc.failed = 1, 1
        oc.checks["child exited 0"] = False
        return oc
    res = json.loads(out_path.read_text())
    meas = res["untraced"]
    lat = meas["latency_ms"]
    oc.attempted = meas["calls"]
    oc.failed = meas["failed"] + meas["mismatched"] + res["fig3_mismatched"]
    oc.checks["repeat runs give identical results"] = meas["mismatched"] == 0
    oc.checks["paper-matrix runs reproduce results/fig3.json"] = (
        res["fig3_mismatched"] == 0 and res["fig3_checked"] > 0
    )
    # Each block: (start, end, p50 ms, tail ms, calls/s), raw and scaled.
    raw_blocks = meas["blocks"]
    scaled = []
    for t0, t1, p50, tail, rate in raw_blocks:
        k = cal.factor(t0, t1)
        scaled.append((p50 * k, tail * k, rate / k))
    norm = [median([b[j] for b in scaled]) for j in range(3)]
    raw = [median([b[j] for b in raw_blocks]) for j in (2, 3, 4)]
    blocks = f"median of {len(raw_blocks)} block(s)"
    tail_name = meas["block_tail_name"]
    oc.named = [
        ("run_ms_p50", norm[0], "ms", lat["n"], blocks),
        (tail_name, norm[1], "ms", lat["n"], blocks),
        ("calls_per_s", norm[2], "1/s", lat["n"], blocks),
        ("raw_run_ms_p50", raw[0], "ms", lat["n"], f"{blocks}; raw wall"),
        (f"raw_{tail_name}", raw[1], "ms", lat["n"], f"{blocks}; raw wall"),
        ("raw_calls_per_s", raw[2], "1/s", lat["n"], f"{blocks}; raw wall"),
        ("host_speed", cal.host_speed(), "x", len(cal.samples),
         "reference chunk time over this run's"),
    ]
    oc.metrics = {
        "typical_ms": norm[0],
        "tail_ms": norm[1],
        "throughput_per_s": norm[2],
        "peak_rss_mib": res["maxrss_mib"],
        "setup_s": median(setups),
    }
    oc.facts = {
        "draw_space": res["draw_space"], "fig3_checked": res["fig3_checked"],
        "setup_samples": len(setups), "host_speed": cal.host_speed(),
    }
    if traced:
        _add_layers(oc, res, spans_path)
    return oc


def _add_layers(oc: Outcome, res: dict, spans_path) -> None:
    doc = trace.load(spans_path)
    boundary = res["traced_phase_start_ns"]
    setup_spans = [s for s in doc["spans"] if s[3] < boundary]
    phase_spans = [s for s in doc["spans"] if s[3] >= boundary]
    setup_stats = trace.aggregate(setup_spans)
    stats = trace.aggregate(phase_spans)
    meas = res["traced"]
    overhead = meas["block_p50_ms"] / res["untraced"]["block_p50_ms"]
    all_stats: dict = {}
    trace.merge(all_stats, stats)
    trace.merge(all_stats, setup_stats)
    oc.layers = layers.compute(all_stats, {"bench.trace.overhead": overhead})
    oc.lines += layers.table(setup_stats, res["traced_setup_s"] * 1e3,
                             "traced set-up")
    oc.lines += layers.table(stats, meas["sum_ms"],
                             f"traced calls (n={meas['calls']})")
    oc.lines.append(
        f"  tracing overhead: run_ms_p50 traced/untraced = {overhead:.3f}"
    )
