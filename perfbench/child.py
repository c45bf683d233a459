"""Code that runs inside the benchmark's child processes.

``python3 -m perfbench.child analytic ...``
    The ``analytic`` workload: builds its draw space, prints ``ready``
    on stdout when set-up is done, measures a seeded stream of uncached
    ``Study.run`` / ``Study.run_pair`` calls and writes a JSON result.
``python3 -m perfbench.child reference IN OUT``
    Computes ``Study`` answers for the serve jobs listed in ``IN``.
``python3 -m perfbench.child cli --trace-out PATH -- ARGS...``
    Installs the tracer, then runs ``repro.cli.main(ARGS)`` and writes
    the spans and run-cache counters to ``PATH`` when it returns.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import trace
from perfbench.common import ROOT, median, summarize, tail_of

#: The ``analytic`` draw space (see BENCHMARK.json for why).
MACHINES = ("paxville", "broadwell-shared-l3", "cascadelake-2s-numa",
            "biglittle-demo")
CLASSES = ("W", "B")
BENCHMARKS = ("BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP",
              "minigmg", "triad")
#: Every round of this many draws holds exactly one concurrent pair, at a
#: seeded position; the rest are single runs.
PAIR_ROUND = 10
#: The traced phase stops after this many calls, bounding span memory.
TRACED_CALL_CAP = 1500
#: Calls per block (a block's p99 has 10 calls beyond it).
BLOCK_CALLS = 1000


class DrawSpace:
    """Every (machine, class) study with the workloads and
    configurations that resolved at set-up."""

    def __init__(self) -> None:
        from repro.core.study import Study
        from repro.machine.configurations import CONFIGURATIONS
        from repro.machine.registry import resolve_machine

        self.studies: Dict[Tuple[str, str], Any] = {}
        self.singles: List[Tuple[Tuple[str, str], str, str]] = []
        self.pairs: List[Tuple[Tuple[str, str], str]] = []
        self.benches: Dict[Tuple[str, str], List[str]] = {}
        self.dropped = 0
        self._draws = 0
        self._pair_slot = 0
        for machine in MACHINES:
            params = resolve_machine(machine).to_params()
            for cls in CLASSES:
                sk = (machine, cls)
                study = Study(cls, params=params)
                self.studies[sk] = study
                ok = []
                for bench in BENCHMARKS:
                    try:
                        study.workload(bench)
                    except Exception:  # unresolvable here: never drawn
                        self.dropped += 1
                        continue
                    ok.append(bench)
                self.benches[sk] = ok
                for name, cfg in CONFIGURATIONS.items():
                    try:
                        study.engine(name)
                    except Exception:
                        self.dropped += 1
                        continue
                    self.singles.extend((sk, b, name) for b in ok)
                    if cfg.n_contexts >= 2 and len(ok) >= 2:
                        self.pairs.append((sk, name))

    def draw(self, rng: random.Random) -> Tuple[str, Tuple[str, str], Tuple[str, ...], str]:
        """One call: ``(kind, study key, workloads, config)``."""
        slot = self._draws % PAIR_ROUND
        self._draws += 1
        if slot == 0:
            self._pair_slot = rng.randrange(PAIR_ROUND)
        if slot == self._pair_slot:
            sk, cfg = rng.choice(self.pairs)
            a, b = rng.sample(self.benches[sk], 2)
            return "pair", sk, (a, b), cfg
        sk, bench, cfg = rng.choice(self.singles)
        return "single", sk, (bench,), cfg

    def call(self, kind: str, sk: Tuple[str, str], benches: Tuple[str, ...],
             cfg: str) -> Tuple[float, ...]:
        study = self.studies[sk]
        if kind == "pair":
            result = study.run_pair(benches[0], benches[1], cfg)
        else:
            result = study.run(benches[0], cfg)
        return tuple(p.runtime_seconds for p in result.programs)


def _measure(space: DrawSpace, rng: random.Random, seconds: float,
             cap: Optional[int], seen: Dict[tuple, Tuple[float, ...]]
             ) -> Dict[str, Any]:
    """Closed loop, one caller: time each call until ``seconds`` pass.

    Latency percentiles and the call rate are taken per block of
    :data:`BLOCK_CALLS` calls, each block with its start and end on the
    ``perf_counter`` clock so the parent can scale it by the host speed
    it sampled meanwhile (:mod:`perfbench.calibrate`)."""
    lat_ms: List[float] = []
    ends: List[float] = []
    failed = mismatched = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline and (cap is None or len(lat_ms) < cap):
        kind, sk, benches, cfg = space.draw(rng)
        t0 = time.perf_counter()
        try:
            runtimes = space.call(kind, sk, benches, cfg)
        except Exception as exc:
            failed += 1
            print(f"analytic: {kind} {sk} {benches} {cfg} failed: {exc!r}",
                  file=sys.stderr)
            continue
        t1 = time.perf_counter()
        lat_ms.append((t1 - t0) * 1e3)
        ends.append(t1)
        key = (kind, sk, benches, cfg)
        if seen.setdefault(key, runtimes) != runtimes:
            mismatched += 1
    elapsed = time.perf_counter() - start
    blocks = []
    for lo in range(0, max(len(lat_ms) - BLOCK_CALLS, 0) + 1, BLOCK_CALLS):
        block = lat_ms[lo:lo + BLOCK_CALLS]
        began = ends[lo - 1] if lo else start
        s = summarize(block)
        tail_name, tail = tail_of(s, "run_ms")
        end = ends[lo + len(block) - 1]
        blocks.append((began, end, s["p50"], tail, len(block) / (end - began)))
    return {
        "latency_ms": summarize(lat_ms),
        "blocks": blocks,
        "block_tail_name": tail_name,
        "block_p50_ms": median([b[2] for b in blocks]),
        "calls": len(lat_ms) + failed,
        "failed": failed,
        "mismatched": mismatched,
        "elapsed_s": elapsed,
        "sum_ms": sum(lat_ms),
    }


def check_fig3(space: DrawSpace, seen: Dict[tuple, Tuple[float, ...]]
               ) -> Tuple[int, int]:
    """Off the clock: every paper-matrix run drawn (class B, Paxville, a
    paper benchmark, a Table-1 configuration) must reproduce the
    committed ``results/fig3.json`` speedup exactly.  Returns
    ``(checked, mismatched)``."""
    fig3 = json.loads((ROOT / "results" / "fig3.json").read_text())
    table = fig3["result"]["table"]["values"]
    sk = ("paxville", "B")
    checked = bad = 0
    for (kind, key_sk, benches, cfg), runtimes in seen.items():
        if kind != "single" or key_sk != sk:
            continue
        expected = table.get(benches[0], {}).get(cfg)
        if expected is None:
            continue
        serial = seen.get(("single", sk, benches, "serial"))
        if serial is None:
            serial = space.call("single", sk, benches, "serial")
        checked += 1
        if serial[0] / runtimes[0] != expected:
            bad += 1
            print(f"analytic: fig3 mismatch {benches[0]} {cfg}: "
                  f"{serial[0] / runtimes[0]!r} != {expected!r}",
                  file=sys.stderr)
    return checked, bad


def analytic_main(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    from repro.core import runcache

    runcache.configure(enabled=False)
    space = DrawSpace()
    setup_s = time.perf_counter() - t0
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    seen: Dict[tuple, Tuple[float, ...]] = {}
    share = 0.5 if args.trace else 1.0
    out: Dict[str, Any] = {
        "setup_in_process_s": setup_s,
        "draw_space": {
            "singles": len(space.singles), "pair_configs": len(space.pairs),
            "dropped": space.dropped,
        },
        "untraced": _measure(space, rng, args.seconds * share, None, seen),
    }
    if args.trace:
        tracer = trace.Tracer()
        trace.install(tracer)
        # New studies, so the traced set-up builds its workloads again.
        t1 = time.perf_counter()
        traced_space = DrawSpace()
        out["traced_setup_s"] = time.perf_counter() - t1
        out["traced_phase_start_ns"] = time.perf_counter_ns()
        out["traced"] = _measure(traced_space, rng, args.seconds * share,
                                 TRACED_CALL_CAP, seen)
        tracer.dump(Path(args.trace_out))
    checked, bad = check_fig3(space, seen)
    out["fig3_checked"] = checked
    out["fig3_mismatched"] = bad
    out["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(out))
    return 0


def reference_main(args: argparse.Namespace) -> int:
    """Answer each listed serve job with a fresh ``Study``."""
    from repro.core.study import Study
    from repro.machine.registry import resolve_machine

    studies: Dict[Tuple[str, str, str], Any] = {}
    answers = []
    for job in json.loads(Path(args.jobs).read_text()):
        sk = (job["machine"], job["problem_class"], job["scheduler"])
        study = studies.get(sk)
        if study is None:
            study = studies[sk] = Study(
                job["problem_class"],
                params=resolve_machine(job["machine"]).to_params(),
                scheduler=job["scheduler"],
            )
        timed = study.run(job["workload"], job["config"]).runtime_seconds
        if job["kind"] == "run":
            answers.append({"runtime_seconds": timed})
        else:
            serial = study.run(job["workload"], "serial").runtime_seconds
            answers.append({"speedup": serial / timed,
                            "serial_runtime_s": serial, "runtime_s": timed})
    Path(args.out).write_text(json.dumps(answers))
    return 0


def cli_main(args: argparse.Namespace) -> int:
    """The traced launcher: same command as the untraced run, with the
    tracer installed first."""
    tracer = trace.Tracer()
    trace.install(tracer)
    from repro import cli
    from repro.core.runcache import get_cache

    rc = 1
    try:
        rc = cli.main(args.argv)
    finally:
        tracer.dump(Path(args.trace_out), extra={
            "cache": get_cache().stats.as_dict(), "rc": rc,
        })
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    sub = parser.add_subparsers(dest="mode", required=True)
    an = sub.add_parser("analytic")
    an.add_argument("--seed", type=int, required=True)
    an.add_argument("--seconds", type=float, required=True)
    an.add_argument("--trace", type=int, default=0)
    an.add_argument("--trace-out")
    an.add_argument("--out")
    an.add_argument("--setup-only", action="store_true")
    ref = sub.add_parser("reference")
    ref.add_argument("jobs")
    ref.add_argument("out")
    cl = sub.add_parser("cli")
    cl.add_argument("--trace-out", required=True)
    cl.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    handler = {"analytic": analytic_main, "reference": reference_main,
               "cli": cli_main}[args.mode]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
