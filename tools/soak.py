#!/usr/bin/env python3
"""Chaos soak harness: crash/kill/hang ``run-all`` loops, assert recovery.

Usage::

    python tools/soak.py --iterations 10 --seed 0
    python tools/soak.py --iterations 3 --seed 7 --only fig2 --verbose

Each iteration runs ``python -m repro run-all`` in a subprocess under a
randomized fault drawn from a seeded menu — in-process fault injection
(``REPRO_FAULTS``: experiment failure, SIGKILL at a wave boundary,
hung pool worker, cache corruption, worker death, slow cache I/O) and
external signals (SIGINT / SIGTERM / SIGKILL after a short delay) —
then asserts the supervision invariants the paper-reproduction pipeline
promises:

1. **Every terminal state is machine-readable.**  However the run died,
   the output directory holds a loadable ``manifest.json`` (the final
   one, or the last checkpoint a killed run rewrote) — or nothing at
   all, when the kill landed before the first checkpoint.
2. **Recovery is clean.**  A fault-free ``run-all --resume`` (or a
   fresh run, when no manifest was written) exits 0, produces a
   complete manifest covering every selected experiment, and leaves no
   checkpoint temp file behind.
3. **Recovery is correct.**  The recovered manifest's experiment rows
   match an uninterrupted reference run's rows, modulo wall-clock
   timings and cache provenance (which legitimately depend on process
   history).

The harness exits 0 only when every iteration upholds all three, so it
can gate CI directly (the chaos-drill job runs
``--iterations 10 --seed 0``).  The fault sequence is fully determined
by ``--seed``; a failing iteration's fault plan and output directory
are printed for local replay.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

#: Wall-time cap per subprocess: a run that outlives this hung in a way
#: supervision should have reaped, which is itself a soak failure.
RUN_TIMEOUT_S = 120.0

#: Provenance keys that legitimately differ between a recovered run and
#: the uninterrupted reference (timings; cache counters depend on
#: process history).
ROW_PROVENANCE = ("wall_time_s", "cache")


class SoakFailure(AssertionError):
    """One iteration violated a supervision invariant."""


# ----------------------------------------------------------------------
# fault menu
def draw_fault(rng: random.Random, selected: List[str]) -> Tuple[str, Dict]:
    """One randomized fault: (description, run options).

    Options: ``faults`` (REPRO_FAULTS value or None), ``signal``
    (signal to deliver externally, or None), ``delay`` (seconds before
    delivering it), ``extra_args`` (additional run-all flags).
    """
    kind = rng.choice([
        "none", "fail-experiment", "sigkill-self", "hang",
        "cache-corrupt", "worker-death", "slow-cache",
        "sigint", "sigterm", "sigkill",
    ])
    opts: Dict = {"faults": None, "signal": None, "delay": 0.0,
                  "extra_args": []}
    if kind == "fail-experiment":
        opts["faults"] = f"experiment:{rng.choice(selected)}"
    elif kind == "sigkill-self":
        opts["faults"] = f"sigkill-self:{rng.randrange(2)}"
    elif kind == "hang":
        # A worker that sleeps far past the watchdog window.  Serial
        # hosts never enter the pool (the hang hook is child-only), so
        # this degrades to a clean run there; pooled hosts must trip
        # the hung-worker watchdog and finish serially.
        opts["faults"] = f"hang:{rng.randrange(len(selected))}:30"
        opts["extra_args"] = ["--experiment-timeout", "5"]
    elif kind == "cache-corrupt":
        opts["faults"] = f"cache-corrupt:{rng.randrange(3)}"
    elif kind == "worker-death":
        opts["faults"] = f"worker-death:{rng.randrange(len(selected))}"
    elif kind == "slow-cache":
        opts["faults"] = "slow-cache:2"
    elif kind in ("sigint", "sigterm", "sigkill"):
        opts["signal"] = {
            "sigint": signal.SIGINT,
            "sigterm": signal.SIGTERM,
            "sigkill": signal.SIGKILL,
        }[kind]
        opts["delay"] = rng.uniform(0.05, 0.6)
    return kind, opts


def _spec(kind: str, opts: Dict) -> str:
    parts = [kind]
    if opts["faults"]:
        parts.append(f"faults={opts['faults']}")
    if opts["signal"] is not None:
        parts.append(f"delay={opts['delay']:.2f}s")
    return " ".join(parts)


# ----------------------------------------------------------------------
# subprocess driving
def _env(faults: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The soak controls fault/supervision state explicitly; nothing may
    # leak in from the caller's shell.
    for var in ("REPRO_FAULTS", "REPRO_JOURNAL", "REPRO_VERIFY"):
        env.pop(var, None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def run_once(
    out_dir: Path,
    only: str,
    opts: Dict,
    resume: bool = False,
) -> int:
    """One ``run-all`` subprocess; returns its exit code (negative =
    killed by that signal, per :class:`subprocess.Popen` convention)."""
    cmd = [
        sys.executable, "-m", "repro", "run-all",
        "--only", only, "--out", str(out_dir), "--jobs", "2",
        *opts.get("extra_args", []),
    ]
    if resume:
        cmd.append("--resume")
    proc = subprocess.Popen(
        cmd, env=_env(opts.get("faults")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        if opts.get("signal") is not None:
            try:
                proc.wait(timeout=opts["delay"])
            except subprocess.TimeoutExpired:
                proc.send_signal(opts["signal"])
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SoakFailure(
            f"run-all did not terminate within {RUN_TIMEOUT_S}s "
            f"(supervision should have reaped it); out={out_dir}"
        )


# ----------------------------------------------------------------------
# invariants
def check_terminal_state(out_dir: Path) -> str:
    """Invariant 1: whatever survived must be loadable.

    Returns which artifact anchors recovery: ``manifest``, or
    ``nothing`` (killed before the first checkpoint — a fresh run, not
    a resume, is the recovery path then).
    """
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        return "nothing"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SoakFailure(
            f"terminal manifest is unreadable: {manifest_path}: {exc}"
        )
    if not isinstance(manifest, dict) or "experiments" not in manifest:
        raise SoakFailure(
            f"terminal manifest is not a run manifest: {manifest_path}"
        )
    return "manifest"


def check_recovery(
    out_dir: Path, only: str, selected: List[str], anchor: str
) -> Dict:
    """Invariants 2: a fault-free recovery run completes the matrix."""
    code = run_once(
        out_dir, only,
        {"faults": None, "signal": None, "extra_args": []},
        resume=(anchor != "nothing"),
    )
    if code != 0:
        raise SoakFailure(
            f"recovery run exited {code} (expected 0); out={out_dir}"
        )
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise SoakFailure(f"recovery left no manifest in {out_dir}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("status") != "complete":
        raise SoakFailure(
            f"recovered manifest status is {manifest.get('status')!r}, "
            f"expected 'complete'"
        )
    missing = [
        e for e in selected
        if manifest["experiments"].get(e, {}).get("status") != "ok"
    ]
    if missing:
        raise SoakFailure(
            f"recovered manifest is missing ok rows for: {missing}"
        )
    if (out_dir / "manifest.json.tmp").exists():
        raise SoakFailure(
            "recovery finished but left its checkpoint temp file behind"
        )
    return manifest


def strip_provenance(row: Dict) -> Dict:
    return {k: v for k, v in row.items() if k not in ROW_PROVENANCE}


def check_rows_match(manifest: Dict, reference: Dict) -> None:
    """Invariant 3: recovered rows == reference rows, modulo provenance."""
    for exp_id, ref_row in reference["experiments"].items():
        got = manifest["experiments"].get(exp_id)
        if got is None:
            raise SoakFailure(f"recovered manifest lacks row {exp_id!r}")
        if strip_provenance(got) != strip_provenance(ref_row):
            raise SoakFailure(
                f"recovered row for {exp_id!r} diverges from the "
                f"uninterrupted reference:\n  got {strip_provenance(got)}"
                f"\n  ref {strip_provenance(ref_row)}"
            )


# ----------------------------------------------------------------------
def soak(
    iterations: int,
    seed: int,
    only: str,
    root: Path,
    verbose: bool = False,
) -> int:
    """Run the soak; returns the number of failed iterations."""
    rng = random.Random(seed)
    say = print if verbose else (lambda *a, **k: None)

    # Uninterrupted reference run: the correctness yardstick.
    ref_dir = root / "reference"
    code = run_once(
        ref_dir, only, {"faults": None, "signal": None, "extra_args": []}
    )
    if code != 0:
        print(f"reference run failed (exit {code}); cannot soak",
              file=sys.stderr)
        return 1
    reference = json.loads((ref_dir / "manifest.json").read_text())
    selected = sorted(reference["experiments"])
    say(f"reference: {len(selected)} experiment(s): {', '.join(selected)}")

    failures = 0
    for i in range(iterations):
        kind, opts = draw_fault(rng, selected)
        out_dir = root / f"iter{i:03d}"
        label = _spec(kind, opts)
        try:
            code = run_once(out_dir, only, opts)
            anchor = check_terminal_state(out_dir)
            manifest = check_recovery(out_dir, only, selected, anchor)
            check_rows_match(manifest, reference)
        except SoakFailure as exc:
            failures += 1
            print(f"iter {i:03d} FAIL [{label}]: {exc}", file=sys.stderr)
            continue
        print(f"iter {i:03d} ok   [{label}] exit={code} anchor={anchor}")
        shutil.rmtree(out_dir, ignore_errors=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos-soak run-all: kill it, hang it, corrupt its "
                    "cache — then assert the manifest checkpoint always "
                    "recovers cleanly."
    )
    parser.add_argument("--iterations", type=int, default=10,
                        help="fault iterations to run (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-menu RNG seed (default 0); the "
                             "fault sequence is fully determined by it")
    parser.add_argument("--only", default="fig2,fig3,table2",
                        help="experiment selection for each run "
                             "(default fig2,fig3,table2: two real "
                             "dependency waves, fast)")
    parser.add_argument("--root", type=Path, default=None,
                        help="working directory (default: a fresh "
                             "temporary directory, removed on success)")
    parser.add_argument("--verbose", action="store_true",
                        help="narrate reference/selection details")
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be >= 1")

    root = args.root
    cleanup = root is None
    if root is None:
        root = Path(tempfile.mkdtemp(prefix="repro-soak-"))
    root.mkdir(parents=True, exist_ok=True)
    try:
        failures = soak(
            args.iterations, args.seed, args.only, root,
            verbose=args.verbose,
        )
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"\nsoak: {failures}/{args.iterations} iteration(s) "
              f"violated a supervision invariant", file=sys.stderr)
        return 1
    print(f"\nsoak: {args.iterations} iteration(s) clean "
          f"(seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
