#!/usr/bin/env python3
"""Compare two pytest-benchmark JSON files and flag regressions.

Usage::

    python tools/bench_compare.py BASELINE.json NEW.json [--threshold 0.25]
    python tools/bench_compare.py BENCH_baseline.json /tmp/bench_new.json

Benchmarks are matched by name; a benchmark regresses when its new
median exceeds the baseline median by more than ``--threshold``
(fractional, default 0.25 = 25 %).  Exit status is 1 when any benchmark
regresses, so the script can gate CI.  Benchmarks present in only one
file are reported but never fail the comparison (they have nothing to
regress against).

Medians are compared rather than means because benchmark distributions
on shared machines are long-tailed: one noisy outlier inflates a mean
but barely moves a median.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict


def load_medians(path: Path) -> Dict[str, float]:
    """Map benchmark name -> median seconds from a pytest-benchmark
    JSON report."""
    with open(path) as fh:
        data = json.load(fh)
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in data.get("benchmarks", [])
    }


def compare(
    baseline: Dict[str, float],
    new: Dict[str, float],
    threshold: float,
) -> int:
    """Print a comparison table; return the number of regressions."""
    regressions = 0
    width = max((len(n) for n in baseline | new), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'new':>12}  "
          f"{'ratio':>7}  verdict")
    for name in sorted(baseline | new):
        old_t, new_t = baseline.get(name), new.get(name)
        if old_t is None or new_t is None:
            which = "new run" if old_t is None else "baseline"
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  {'-':>7}  "
                  f"only in {which} (skipped)")
            continue
        ratio = new_t / old_t if old_t else float("inf")
        if ratio > 1.0 + threshold:
            verdict = f"REGRESSION (> +{threshold:.0%})"
            regressions += 1
        elif ratio < 1.0 - threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {old_t * 1e3:>10.3f}ms  "
              f"{new_t * 1e3:>10.3f}ms  {ratio:>6.2f}x  {verdict}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmarks regress vs a baseline."
    )
    parser.add_argument("baseline", type=Path,
                        help="pytest-benchmark JSON baseline")
    parser.add_argument("new", type=Path,
                        help="pytest-benchmark JSON from the new code")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    args = parser.parse_args(argv)
    threshold = args.threshold
    if threshold < 0:
        parser.error("--threshold must be >= 0")

    try:
        baseline = load_medians(args.baseline)
        new = load_medians(args.new)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read benchmark report: {exc}")
    regressions = compare(baseline, new, threshold)
    if regressions:
        print(f"\n{regressions} benchmark(s) regressed beyond "
              f"{threshold:.0%}.")
        return 1
    print("\nNo regressions beyond the threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
