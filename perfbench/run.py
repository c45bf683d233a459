#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload serve --trace 1  # per-layer tables

It prints each end-to-end metric by name with its unit and sample
count, the correctness checks, and (``--trace 1``) the per-layer
self-time tables; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed and no operation failed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import analytic, runall, serve  # noqa: E402
from perfbench.common import (  # noqa: E402
    ROOT, WORK, Outcome, SetupError, host_fingerprint, require_program,
)

WORKLOADS = {"analytic": analytic.run, "runall": runall.run,
             "serve": serve.run}


def _spec() -> Dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    return json.loads(path.read_text())


def _measure(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    try:
        return WORKLOADS[name](seed, seconds, traced)
    except Exception:  # the run fails as a whole, reported, never hidden
        traceback.print_exc()
        oc = Outcome(attempted=1, failed=1)
        oc.checks["workload completed"] = False
        return oc


def _report(name: str, oc: Outcome, spec: Dict, args, traced: bool) -> Dict:
    """Print the human report for one workload; return its metrics in
    the result-line form."""
    mode = "traced" if traced else "untraced"
    print(f"== {name} (seed {args.seed}, {args.seconds:g} s, {mode}) ==")
    for metric, value, unit, n, note in oc.named:
        print(f"  {metric:20s} {value:14.4f} {unit:5s} (n={n}{', ' if note else ''}{note})")
    if "setup_s" in oc.metrics:
        print(f"  {'setup_s':20s} {oc.metrics['setup_s']:14.4f} {'s':5s} "
              f"(n={oc.facts.get('setup_samples', 1)}, median)")
    if "peak_rss_mib" in oc.metrics:
        print(f"  {'peak_rss_mib':20s} {oc.metrics['peak_rss_mib']:14.4f} "
              f"{'MiB':5s} (n=1)")
    ratio = oc.failed / oc.attempted if oc.attempted else 0.0
    print(f"  {'error_ratio':20s} {ratio:14.4f} {'':5s} "
          f"({oc.failed} failed of {oc.attempted})")
    for check, ok in oc.checks.items():
        print(f"  check: {'ok  ' if ok else 'FAIL'} {check}")
    for line in oc.lines:
        print(line)
    if traced:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = oc.layers
        nonzero = [(n, u) for n, u in wanted if values.get(n)]
        print("  per-layer metrics (non-zero):")
        for n, u in nonzero:
            print(f"    {n:48s} {values[n]:14.4f} {u}")
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = oc.metrics
        print("  end-to-end metrics:")
        for n, u in wanted:
            print(f"    {n:20s} {values.get(n, 0.0):14.4f} {u}")
    return {n: {"value": float(values.get(n, 0.0)), "unit": u}
            for n, u in wanted}


def _save(name: str, oc: Outcome, metrics: Dict, args, traced: bool,
          host: Dict) -> Path:
    """The compact result: summary statistics and counts only."""
    doc = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(traced), "host": host, "correct": oc.correct,
        "attempted": oc.attempted, "failed": oc.failed, "checks": oc.checks,
        "named": [list(x) for x in oc.named], "metrics": metrics,
        "facts": oc.facts,
    }
    path = WORK / "results" / f"{name}-seed{args.seed}-trace{int(traced)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, default=str))
    return path


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = _spec()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    host = host_fingerprint()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    correct, attempted, failed = True, 0, 0
    all_metrics: Dict[str, Dict] = {}
    for name in names:
        t0 = time.perf_counter()
        oc = _measure(name, args.seed, args.seconds, traced)
        metrics = _report(name, oc, spec, args, traced)
        path = _save(name, oc, metrics, args, traced, host)
        print(f"  result saved to {path.relative_to(ROOT)} "
              f"({time.perf_counter() - t0:.1f} s)")
        correct &= oc.correct
        attempted += oc.attempted
        failed += oc.failed
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
