"""The ``runall`` workload: the full ``repro run-all`` matrix as a user
runs it, cold into an empty ``--out`` and then warm into the same one.

Each command is a fresh process, timed from spawn to exit.  A run
repeats cold/warm pairs (each pair in a new directory) while another
pair fits in ``--seconds``.  Every artifact must be byte-identical to
the committed ``results/`` (the manifest is excluded).  Reported times
are scaled to the reference host's speed (:mod:`perfbench.calibrate`);
the raw wall times are printed beside.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import calibrate, layers, trace
from perfbench.common import (
    ROOT, Outcome, child_env, fresh_dir, median, python_cmd, remove_dir,
    run_timed,
)

SETUP_REPEATS = 3
RESULTS = ROOT / "results"
RUN_ALL_ARGS = ["run-all", "--csv", "--batch", "auto", "--jobs", "1"]


def compare_artifacts(out: Path, expected_dir: Path = RESULTS) -> List[str]:
    """Names of artifacts that are missing, unexpected or differ from
    ``expected_dir`` byte for byte (the manifest is excluded)."""
    def names(d: Path) -> set:
        return {p.name for p in d.iterdir()
                if p.is_file() and p.name != "manifest.json"}

    expected, got = names(expected_dir), names(out)
    bad = sorted(expected ^ got)
    bad += [n for n in sorted(expected & got)
            if (expected_dir / n).read_bytes() != (out / n).read_bytes()]
    return bad


def _disk_bytes(cache_dir: Path) -> int:
    if not cache_dir.is_dir():
        return 0
    return sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())


class _Runner:
    """Runs and checks ``run-all`` commands, counting operations."""

    def __init__(self, tmp: Path, cal: calibrate.Sampler):
        self.tmp = tmp
        self.cal = cal
        self.env = child_env(tmp)
        self.attempted = self.failed = 0
        self.mismatches: List[str] = []

    def command(self, out: Path, trace_out: Optional[Path] = None
                ) -> Tuple[float, float]:
        """Run one command; its wall time and that time scaled to the
        reference host's speed."""
        args = RUN_ALL_ARGS + ["--out", str(out)]
        if trace_out is None:
            cmd = python_cmd("-m", "repro", *args)
        else:
            cmd = python_cmd("-m", "perfbench.child", "cli", "--trace-out",
                             str(trace_out), "--", *args)
        rc, took, err = run_timed(cmd, self.env)
        ended = time.perf_counter()
        self.attempted += 1
        bad = compare_artifacts(out) if rc == 0 else [f"exit code {rc}"]
        if bad:
            self.failed += 1
            self.mismatches.extend(bad)
            print(f"runall: {out.name}: {', '.join(bad[:5])}\n{err}",
                  flush=True)
        return took, took * self.cal.factor(ended - took, ended)

    def pair(self, tag: str, traced: bool = False) -> Dict[str, object]:
        out = self.tmp / tag
        spans = {p: self.tmp / f"{tag}-{p}.json.gz" for p in ("cold", "warm")}
        cold, cold_n = self.command(out, spans["cold"] if traced else None)
        disk = _disk_bytes(out / ".cache")
        manifest = json.loads((out / "manifest.json").read_text()) \
            if (out / "manifest.json").exists() else {}
        warm, warm_n = self.command(out, spans["warm"] if traced else None)
        return {"cold": cold, "warm": warm, "cold_n": cold_n,
                "warm_n": warm_n, "disk_bytes": disk, "manifest": manifest,
                "spans": spans}


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    # The matrix is fixed; the seed only names the run.
    del seed
    tmp = fresh_dir("runall-")
    try:
        with calibrate.Sampler() as cal:
            return _run(seconds, traced, _Runner(tmp, cal))
    finally:
        remove_dir(tmp)


def _run(seconds: float, traced: bool, runner: _Runner) -> Outcome:
    oc = Outcome()
    setups = []
    for _ in range(0 if traced else SETUP_REPEATS):
        rc, took, _ = run_timed(python_cmd("-m", "repro", "list"), runner.env)
        ended = time.perf_counter()
        runner.attempted += 1
        runner.failed += rc != 0
        setups.append(took * runner.cal.factor(ended - took, ended))

    t0 = time.perf_counter()
    pairs = [runner.pair("p0")]
    spent = time.perf_counter() - t0
    while not traced and spent + spent / len(pairs) <= seconds:
        pairs.append(runner.pair(f"p{len(pairs)}"))
        spent = time.perf_counter() - t0

    cold = [p["cold_n"] for p in pairs]
    warm = [p["warm_n"] for p in pairs]
    oc.attempted, oc.failed = runner.attempted, runner.failed
    oc.checks["artifacts byte-identical to results/"] = not runner.mismatches
    raw = "median; raw wall"
    oc.named = [
        ("cold_s", median(cold), "s", len(cold), "median"),
        ("warm_s", median(warm), "s", len(warm), "median"),
        ("raw_cold_s", median([p["cold"] for p in pairs]), "s", len(cold), raw),
        ("raw_warm_s", median([p["warm"] for p in pairs]), "s", len(warm), raw),
        ("host_speed", runner.cal.host_speed(), "x",
         len(runner.cal.samples), "reference chunk time over this run's"),
    ]
    n_exp = len(pairs[0]["manifest"].get("experiments", {}))
    oc.metrics = {
        "typical_ms": median(warm) * 1e3,
        "tail_ms": median(cold) * 1e3,
        "throughput_per_s": 2 * n_exp / (median(cold) + median(warm)),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if setups:
        oc.metrics["setup_s"] = median(setups)
    oc.facts = {"pairs": len(pairs), "experiments": n_exp,
                "setup_samples": len(setups),
                "host_speed": runner.cal.host_speed()}
    if traced:
        _add_layers(oc, pairs[0], runner.pair("traced", traced=True))
    return oc


def _add_layers(oc: Outcome, plain: Dict, tp: Dict) -> None:
    merged: Dict[str, trace.LayerStats] = {}
    cache = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "quarantined": 0}
    for phase in ("cold", "warm"):
        doc = trace.load(tp["spans"][phase])
        stats = trace.aggregate(doc["spans"])
        trace.merge(merged, stats)
        for key in cache:
            cache[key] += doc["cache"].get(key, 0)
        oc.lines += layers.table(stats, tp[phase] * 1e3, f"traced {phase}")
    manifest = plain["manifest"]
    facts: Dict[str, float] = {
        f"core.runcache.{k}": v for k, v in cache.items()
    }
    lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
    facts["core.runcache.hit_ratio"] = (
        (lookups - cache["misses"]) / lookups if lookups else 0.0
    )
    facts["core.runcache.disk_bytes"] = tp["disk_bytes"]
    for exp_id, row in manifest.get("experiments", {}).items():
        facts[f"experiments.pipeline.experiment_ms.{exp_id}"] = (
            row.get("wall_time_s", 0.0) * 1e3
        )
    for metric, key in (("batched_machines", "batched_machines"),
                        ("scalar_fallbacks", "scalar_fallbacks"),
                        ("deduplicated", "deduplicated_machines")):
        facts[f"sim.batch.{metric}"] = sum(
            row.get("batch", {}).get(key, 0)
            for row in manifest.get("experiments", {}).values()
        )
    overhead = (tp["cold"] + tp["warm"]) / (plain["cold"] + plain["warm"])
    facts["bench.trace.overhead"] = overhead
    oc.layers = layers.compute(merged, facts)
    oc.lines.append(
        f"  tracing overhead: (cold_s+warm_s) traced/untraced = {overhead:.3f}"
    )
