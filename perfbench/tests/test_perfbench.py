"""The benchmark's own tests: statistics, tracing arithmetic, the
artifact check, and a tiny-length smoke run of every workload.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, layers, trace  # noqa: E402
from perfbench.common import (  # noqa: E402
    child_env, fresh_dir, python_cmd, remove_dir, summarize, tail_percentile,
)
from perfbench.runall import compare_artifacts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None), (1, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    s = summarize([float(x) for x in range(1, 1001)])
    assert s["n"] == 1000
    assert s["p50"] == pytest.approx(500.5)
    assert s["tail_pct"] == 99.0
    assert s["tail"] == pytest.approx(990.01)
    assert summarize([3.0, 1.0, 2.0]) == {
        "n": 3, "p50": 2.0, "tail_pct": None, "tail": None, "max": 3.0}


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def test_typical_chunk_time_drops_the_slowest_tenth():
    assert calibrate.typical([1.0] * 9 + [100.0]) == 1.0
    assert calibrate.typical([1.0, 3.0]) == 1.0


def test_factor_scales_by_the_chunks_inside_the_window():
    cal = calibrate.Sampler()
    ref = calibrate.REF_CHUNK_MS
    cal.samples = [(t / 10, ref) for t in range(100)]       # 0.0 .. 9.9 s
    cal.samples += [(20 + t / 10, 2 * ref) for t in range(100)]
    assert cal.factor(1.0, 5.0) == pytest.approx(1.0)
    half = 0.5 ** calibrate.SLOPE
    assert cal.factor(21.0, 25.0) == pytest.approx(half)
    # Too few samples inside: the nearest ones stand in.
    assert cal.factor(29.95, 29.96) == pytest.approx(half)
    assert cal.host_speed() == pytest.approx(
        ref / calibrate.typical([ms for _, ms in cal.samples]))


def test_sampler_times_chunks_while_the_block_runs():
    with calibrate.Sampler() as cal:
        time.sleep(0.2)
    assert len(cal.samples) >= 3
    assert all(ms > 0 for _, ms in cal.samples)
    assert not cal._thread.is_alive()


# ----------------------------------------------------------------------
# Self-time arithmetic on a synthetic span tree
# ----------------------------------------------------------------------
def _span(sid, parent, name, start, end, attr=None):
    return (sid, parent, name, start, end, 0, 0, attr)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, 0, "root", 0, 100),
        _span(2, 1, "a", 10, 40),
        _span(3, 1, "b", 30, 60),      # overlaps a: covered 10..60
        _span(4, 2, "c", 15, 20),
        _span(5, 1, "d", 90, 120),     # clipped to the parent: 90..100
        _span(6, 99, "orphan", 0, 7),  # parent unknown: all self
    ]
    assert trace.self_times(spans) == [40, 25, 30, 5, 30, 7]


def test_aggregate_counts_outermost_calls_and_sums_self_time():
    spans = [
        _span(1, 0, "build", 0, 50),
        _span(2, 1, "build", 10, 30),  # nested entry of the same layer
        _span(3, 0, "lanes", 60, 70, attr=4),
        _span(4, 0, "lanes", 70, 75, attr=2),
    ]
    stats = trace.aggregate(spans)
    assert stats["build"].calls == 1 and stats["build"].spans == 2
    assert stats["build"].self_ns == 50
    assert stats["build"].total_ns == 50
    assert stats["lanes"].calls == 2 and stats["lanes"].attr_sum == 6
    m = layers.compute({"sim.batch.resolve_lanes": stats["lanes"]}, {})
    assert m["sim.batch.lanes_per_call"] == 3.0
    assert m["sim.batch.resolve_lanes_calls"] == 2.0
    assert m["sim.batch.resolve_lanes_ms"] == pytest.approx(7.5e-6)


def test_tracer_records_parents_and_correlation_ids():
    tracer = trace.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, trace.Wrap("m:inner", "layer.inner"))

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tracer.wrap(
        outer, trace.Wrap("m:outer", "layer.outer", root=True))
    assert traced_outer(1) == 4
    inner_span, outer_span = tracer.spans
    assert inner_span[2] == "layer.inner" and outer_span[2] == "layer.outer"
    assert inner_span[1] == outer_span[0]
    assert inner_span[5] == outer_span[5] == outer_span[0]


# ----------------------------------------------------------------------
# Correctness checks fire on a deliberately altered artifact
# ----------------------------------------------------------------------
def test_artifact_check_fires_on_an_altered_artifact(tmp_path):
    expected, out = tmp_path / "expected", tmp_path / "out"
    expected.mkdir()
    out.mkdir()
    for name in ("fig3.txt", "fig3.json", "fig3_speedup.csv",
                 "manifest.json"):
        shutil.copy(ROOT / "results" / name, expected / name)
        shutil.copy(ROOT / "results" / name, out / name)
    (out / "manifest.json").write_text("{}")  # excluded from the check
    assert compare_artifacts(out, expected) == []
    data = bytearray((out / "fig3.txt").read_bytes())
    data[-2] ^= 1
    (out / "fig3.txt").write_bytes(bytes(data))
    (out / "fig3_speedup.csv").unlink()
    assert compare_artifacts(out, expected) == ["fig3_speedup.csv", "fig3.txt"]


# ----------------------------------------------------------------------
# The metric lists and the traced launcher
# ----------------------------------------------------------------------
def test_benchmark_json_per_layer_matches_the_layer_table():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == layers.METRICS


def test_launcher_traces_a_cli_command():
    tmp = fresh_dir("test-launch-")
    try:
        out = tmp / "spans.json.gz"
        proc = subprocess.run(
            python_cmd("-m", "perfbench.child", "cli", "--trace-out",
                       str(out), "--", "speedup", "CG", "ht_on_4_1",
                       "--problem-class", "S"),
            cwd=ROOT, env=child_env(tmp), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = trace.load(out)
        names = {s[2] for s in doc["spans"]}
        assert {"core.study.run", "sim.engine.run", "workload.build",
                "sim.resolver.resolve"} <= names
        engine_runs = [s for s in doc["spans"] if s[2] == "sim.engine.run"]
        assert all(s[5] == s[0] for s in engine_runs)
    finally:
        remove_dir(tmp)


# ----------------------------------------------------------------------
# Tiny-length smoke runs through the one command
# ----------------------------------------------------------------------
def _bench(workload, trace_flag=0, seconds="1"):
    proc = subprocess.run(
        python_cmd("perfbench/run.py", "--workload", workload, "--seed", "7",
                   "--seconds", seconds, "--trace", str(trace_flag)),
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["analytic", "runall", "serve"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = _bench(workload)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_ratio" in proc.stdout


def test_traced_analytic_smoke_has_engine_layers_and_no_batch():
    proc, result = _bench("analytic", trace_flag=1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["sim.engine.run_calls"] > 0
    assert metrics["sim.resolver.iters_per_resolve"] > 0
    assert all(v == 0 for k, v in metrics.items() if k.startswith("sim.batch"))
    assert "traced calls" in proc.stdout
