"""Command-line interface: regenerate paper artifacts and run studies.

Usage::

    python -m repro list                      # available experiments
    python -m repro run fig3                  # print one artifact
    python -m repro run fig3 --format json    # machine-readable form
    python -m repro run-all --out results/    # regenerate everything
    python -m repro run-all --only paper      # filter by tag or id
    python -m repro speedup CG ht_on_4_1      # one speedup query
    python -m repro machines                  # registered machine specs
    python -m repro workloads                 # registered workload specs
    python -m repro run fig3 --machine nextgen-shared-l2
    python -m repro run fig3 --workload minigmg --workload triad
    python -m repro serve --port 8433         # simulation-as-a-service

Unknown experiment ids, benchmarks, configurations, machines, and
``--only``/``--skip`` tokens produce a one-line error listing the valid
choices and exit status 2.  ``run-all`` exits 3 when the matrix
completed only partially (some experiment failed or was blocked), and 4
when the campaign was cancelled — SIGINT/SIGTERM, or the ``--timeout``
run budget ran dry — after draining in-flight work and writing the
manifest; in both cases the completed artifacts are written and
``run-all --resume`` finishes the remainder.  ``run-all`` rewrites the
manifest as an fsync'd checkpoint after every experiment, so even a
SIGKILLed run resumes (disable with ``REPRO_JOURNAL=0``).  See
``docs/ROBUSTNESS.md`` for the failure model and supervision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments import registry


class CLIError(Exception):
    """A user-input error: printed as one line to stderr, exit 2."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0 seconds")
    return value


def _add_machine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine", default=None, metavar="NAME_OR_PATH",
        help="machine to simulate: a registered name (see 'machines') "
             "or a .json/.toml spec file (default: paxville)",
    )


def _resolve(resolve, *args):
    """Call a registry function; a bad token or spec file is exit 2."""
    from repro.specfile import UnknownSpecError

    try:
        return resolve(*args)
    except (UnknownSpecError, ValueError) as exc:  # SpecError is a ValueError
        raise CLIError(str(exc)) from None


def _resolve_machine_arg(token: Optional[str]):
    """Map a ``--machine`` token to a spec, or a clean CLI error."""
    if token is None:
        return None
    from repro.machine.registry import resolve_machine

    return _resolve(resolve_machine, token)


def _add_workload_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", action="append", default=None, metavar="NAME_OR_PATH",
        dest="workloads",
        help="workload(s) for the benchmark-matrix experiments: a "
             "registered name (see 'workloads') or a .json/.toml spec "
             "file; repeatable (default: the paper's six NAS class-B "
             "benchmarks)",
    )


def _resolve_workload_args(
    tokens: Optional[List[str]], problem_class: str = "B"
) -> Optional[List[str]]:
    """Validate ``--workload`` tokens, or a clean CLI error."""
    if not tokens:
        return None
    from repro.workload.registry import resolve_workload

    for token in tokens:
        _resolve(resolve_workload, token, problem_class)
    return list(tokens)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Comprehensive Analysis of OpenMP "
            "Applications on Dual-Core Intel Xeon SMPs' on a simulated "
            "chip-multithreaded SMP."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    machines = sub.add_parser(
        "machines",
        help="list registered machine specs (name, fingerprint, "
             "key parameters, provenance); with a NAME, show its "
             "topology tree and cache hierarchy",
    )
    machines.add_argument(
        "name", nargs="?", default=None, metavar="NAME",
        help="machine to describe in detail (topology tree, cache "
             "hierarchy table, NUMA tiers)",
    )

    workloads = sub.add_parser(
        "workloads",
        help="list registered workload specs (name, fingerprint, kind, "
             "working set, provenance); with a NAME, show its phase "
             "table",
    )
    workloads.add_argument(
        "name", nargs="?", default=None, metavar="NAME",
        help="workload to describe in detail (per-phase OpenMP "
             "construct, work volume, working set, access mix)",
    )
    workloads.add_argument(
        "--problem-class", default="B", metavar="CLASS",
        help="problem class the producers build at (default: B)",
    )

    run = sub.add_parser("run", help="run one experiment and print it")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="render the paper-style text (default) or the structured "
             "JSON payload",
    )
    _add_machine_option(run)
    _add_workload_option(run)

    run_all = sub.add_parser(
        "run-all", help="regenerate every artifact into a directory"
    )
    run_all.add_argument(
        "--out", type=Path, default=Path("results"),
        help="output directory (default: results/)",
    )
    run_all.add_argument(
        "--csv", action="store_true",
        help="also export the speedup table and counter grids as CSV",
    )
    run_all.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for the pipeline and sweep experiments "
             "(default: REPRO_JOBS or serial)",
    )
    run_all.add_argument(
        "--no-cache", action="store_true",
        help="disable the run cache (memory and disk tiers); every run "
             "re-simulates from scratch",
    )
    run_all.add_argument(
        "--only", action="append", default=None, metavar="ID_OR_TAG",
        help="run only matching experiments (repeatable; comma-separated "
             "ids or tags, e.g. --only paper,sweep)",
    )
    run_all.add_argument(
        "--skip", action="append", default=None, metavar="ID_OR_TAG",
        help="skip matching experiments (same syntax as --only)",
    )
    # Accepted and ignored: the batched engine it selected is gone, but
    # perfbench/runall.py still passes --batch auto.
    run_all.add_argument(
        "--batch", choices=("auto", "on", "off"), default=None,
        help=argparse.SUPPRESS,
    )
    run_all.add_argument(
        "--resume", action="store_true",
        help="reuse completed artifacts from a previous (partial) run "
             "in --out and re-execute only failed/skipped/missing "
             "experiments; works from the manifest checkpoint a killed "
             "run left behind, and refuses another machine's or "
             "workload selection's manifest",
    )
    run_all.add_argument(
        "--timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="wall-time budget for the whole run: once exhausted, the "
             "remaining experiments are cancelled (exit 4) and the "
             "partial run stays resumable",
    )
    run_all.add_argument(
        "--experiment-timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="wall-time budget per experiment, enforced at engine step "
             "boundaries (a DeadlineExceeded failure) and as the "
             "hung-worker watchdog in parallel runs",
    )
    _add_machine_option(run_all)
    _add_workload_option(run_all)

    speed = sub.add_parser("speedup", help="query one speedup")
    speed.add_argument("benchmark")
    speed.add_argument("config")
    speed.add_argument("--problem-class", default="B")
    _add_machine_option(speed)

    serve = sub.add_parser(
        "serve",
        help="run the simulation service: an HTTP/JSON daemon with an "
             "async job queue, content-addressed dedup, and the run "
             "cache answering warm submissions (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8433, metavar="PORT",
        help="port to bind; 0 picks an ephemeral port, printed on "
             "startup (default: 8433)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="worker threads executing jobs (default: 2)",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="process parallelism granted to one experiment-kind job's "
             "internal sweeps (default: REPRO_JOBS or serial)",
    )
    serve.add_argument(
        "--state-dir", type=Path, default=None, metavar="DIR",
        help="journal job state to DIR/jobs.wal.jsonl and resume "
             "unfinished jobs from a previous server's journal on boot "
             "(default: no journaling)",
    )
    serve.add_argument(
        "--job-timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="per-job wall-time budget, enforced cooperatively at "
             "engine step boundaries (default: none)",
    )
    serve.add_argument(
        "--drain-timeout", type=_positive_seconds, default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, grace window for in-flight jobs before "
             "they are cooperatively cancelled (default: 10)",
    )

    verify = sub.add_parser(
        "verify",
        help="run the experiment matrix under the invariant auditor "
             "(cache disabled, serial) and report the audit",
    )
    verify.add_argument(
        "--only", action="append", default=None, metavar="ID_OR_TAG",
        help="audit only matching experiments (same syntax as run-all)",
    )
    verify.add_argument(
        "--skip", action="append", default=None, metavar="ID_OR_TAG",
        help="skip matching experiments (same syntax as run-all)",
    )
    _add_machine_option(verify)
    _add_workload_option(verify)
    return parser


def _get_entry(experiment_id: str) -> registry.ExperimentEntry:
    try:
        return registry.get(experiment_id)
    except KeyError:
        raise CLIError(
            f"unknown experiment {experiment_id!r}; "
            f"valid choices: {', '.join(sorted(registry.EXPERIMENTS))}"
        ) from None


def _run_one(
    experiment_id: str, fmt: str = "text", machine=None, workloads=None
) -> str:
    from repro.core.context import RunContext

    entry = _get_entry(experiment_id)
    result = entry.run(RunContext(machine=machine, workloads=workloads))
    if fmt == "json":
        return json.dumps(
            entry.json_payload(result), indent=2, sort_keys=True
        )
    return entry.render_text(result)


def _fmt_size(size_bytes: int) -> str:
    if size_bytes % (1024 * 1024) == 0:
        return f"{size_bytes // (1024 * 1024)}MB"
    if size_bytes % 1024 == 0:
        return f"{size_bytes // 1024}KB"
    return f"{size_bytes}B"


def _machine_detail_lines(spec) -> List[str]:
    """The ``machines NAME`` detail view: topology tree + hierarchy."""
    p = spec.params
    topo = p.topo
    lines = [
        f"topology: {topo.sockets} socket(s) x "
        f"{topo.chips_per_socket} chip(s)/socket x "
        f"{topo.cores_per_chip} core(s)/chip x "
        f"{topo.threads_per_core} thread(s)/core "
        f"= {topo.n_contexts} contexts"
        + ("" if topo.numa.tiered else " (UMA)")
    ]
    tree = p.build_topology(ht_enabled=True)
    for chip in tree.chips:
        socket = chip.contexts[0].socket
        if chip.index % topo.chips_per_socket == 0:
            lines.append(f"  socket {socket}")
        cls = topo.class_of_chip(chip.index)
        clock = p.clock_hz_of(chip.index) / 1e9
        tag = f" [{cls.name}]" if cls is not None else ""
        lines.append(f"    chip {chip.index} @ {clock:.2f}GHz{tag}")
        for core in chip.cores:
            labels = " ".join(ctx.label for ctx in core.contexts)
            lines.append(f"      core {core.index}: {labels}")
    lines.append("")
    lines.append("hierarchy:")
    header = (
        f"  {'level':6s} {'scope':7s} {'size':>7s} {'line':>5s} "
        f"{'assoc':>5s} {'latency':>9s} {'sharers':>7s}"
    )
    lines.append(header)
    for lvl in p.cache_levels():
        c = lvl.cache
        lines.append(
            f"  {lvl.name:6s} {lvl.scope:7s} "
            f"{_fmt_size(c.size_bytes):>7s} {c.line_bytes:>4d}B "
            f"{c.associativity:>5d} {c.latency_cycles:>7.1f}cy "
            f"{c.shared_contexts:>7d}"
        )
    lines.append(
        f"  memory: {p.memory_latency_ns:.1f}ns "
        f"({p.memory_latency_cycles:.1f} cycles at "
        f"{p.core.clock_hz / 1e9:.2f}GHz), "
        f"bus {p.bus.chip_read_bw / 1e9:.2f}GB/s read per chip"
    )
    if topo.numa.tiered:
        lines.append("")
        lines.append("numa tiers (socket x socket multipliers):")
        if topo.numa.latency_scale:
            for i, row in enumerate(topo.numa.latency_scale):
                cells = "  ".join(f"{v:5.2f}" for v in row)
                prefix = "  latency:  " if i == 0 else "            "
                lines.append(f"{prefix}{cells}")
        if topo.numa.bandwidth_scale:
            for i, row in enumerate(topo.numa.bandwidth_scale):
                cells = "  ".join(f"{v:5.2f}" for v in row)
                prefix = "  bandwidth:" if i == 0 else "            "
                lines.append(f"{prefix} {cells}")
    if topo.core_classes:
        lines.append("")
        lines.append("core classes:")
        for cls in topo.core_classes:
            chips = ",".join(str(c) for c in cls.chips)
            lines.append(
                f"  {cls.name}: chips [{chips}] "
                f"clock x{cls.clock_scale:.2f} "
                f"issue width x{cls.issue_width_scale:.2f}"
            )
    return lines


def _workload_detail_lines(spec) -> List[str]:
    """The ``workloads NAME`` detail view: totals + per-phase table."""
    from repro.workload.spec import human_bytes

    wl = spec.workload
    lines = [
        f"kind {spec.kind}, class {wl.problem_class}, "
        f"memory-bound score {spec.memory_bound_score:.2f}"
    ]
    total = sum(ph.instructions for ph in wl.phases)
    lines.append(
        f"{len(wl.phases)} phase(s), {total:.2e} uops total, "
        f"working set {human_bytes(wl.working_set_bytes)}"
    )
    lines.append("")
    lines.append("phases:")
    lines.append(
        f"  {'phase':16s} {'openmp':8s} {'uops':>8s} {'mem/uop':>7s} "
        f"{'wset':>9s} {'barriers':>8s} {'iters':>6s}  mix"
    )
    # The canonical tree already names each pattern's kind; reuse it
    # rather than re-deriving kind names from the pattern classes.
    for ph, tree in zip(wl.phases, spec.to_dict()["workload"]["phases"]):
        mix = " + ".join(
            f"{c['kind']}:{c['weight']:.2f}" for c in tree["access_mix"]
        )
        lines.append(
            f"  {ph.name:16s} {ph.openmp_construct:8s} "
            f"{ph.instructions:>8.1e} {ph.mem_ops_per_instr:>7.2f} "
            f"{human_bytes(ph.working_set_bytes()):>9s} "
            f"{ph.barriers:>8d} {ph.iterations:>6d}  {mix}"
        )
    return lines


def _list_specs(args) -> int:
    """``machines``/``workloads``: list the registry, or show the spec
    any lookup token names in detail."""
    if args.command == "machines":
        from repro.machine.registry import list_machines, resolve_machine

        listing, resolve = list_machines, resolve_machine
        detail, width = _machine_detail_lines, 24
    else:
        from repro.workload.registry import list_workloads, resolve_workload

        def listing():
            return list_workloads(args.problem_class)

        def resolve(token):
            return resolve_workload(token, args.problem_class)

        detail, width = _workload_detail_lines, 14
    if args.name is not None:
        spec = _resolve(resolve, args.name)
        print(f"{spec.name}  {spec.short_fingerprint}  [{_provenance(spec)}]")
        if spec.description:
            print(f"  {spec.description}")
        print()
        for line in detail(spec):
            print(line)
        return 0
    specs = _resolve(listing)
    for name in sorted(specs):
        spec = specs[name]
        kv = " ".join(f"{k}={v}" for k, v in spec.summary().items())
        print(
            f"{name:{width}s} {spec.short_fingerprint}  {kv}  "
            f"[{_provenance(spec)}]"
        )
    return 0


def _provenance(spec) -> str:
    return "built-in" if spec.source is None else str(spec.source)


def _split_tokens(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    return [t for v in values for t in v.split(",") if t]


def _export_csv(out: Path, pipeline) -> None:
    """Export machine-readable CSVs from already-computed results.

    The exporter is a pipeline *consumer*: it reads the fig2/fig3
    records instead of re-running the experiments (when a filtered
    selection left one out, it is computed once through the shared
    context and cache).
    """
    from repro.analysis.export import grid_to_csv, speedup_table_to_csv

    results = {rid: rec.result for rid, rec in pipeline.records.items()}

    fig3 = results["fig3"]
    (out / "fig3_speedup.csv").write_text(speedup_table_to_csv(fig3.table))
    print(f"wrote {out / 'fig3_speedup.csv'}")
    fig2 = results["fig2"]
    for panel, grid in fig2.panels.items():
        path = out / f"fig2_{panel}.csv"
        path.write_text(grid_to_csv(grid, fig2.config_order))
    print(f"wrote {out}/fig2_*.csv ({len(fig2.panels)} panels)")


def _serve_command(args) -> int:
    """The ``serve`` subcommand: boot, recover, serve until signalled."""
    from repro.core import runcache
    from repro.serve import store as jobstore
    from repro.serve.app import serve_forever
    from repro.serve.runner import MEMORY_TIER_RUNS, JobRunner
    from repro.serve.scheduler import Scheduler
    from repro.sim.parallel import get_default_jobs
    from repro.supervise.journal import JournalError

    port = args.port
    if not 0 <= port <= 65535:
        raise CLIError(f"port must be in [0, 65535], got {port}")
    state_dir = args.state_dir
    jobs = get_default_jobs() if args.jobs is None else args.jobs

    # Read the previous server's journal *before* the scheduler opens
    # (and truncates) a fresh one for this process.
    previous = None
    if state_dir is not None:
        try:
            previous = jobstore.load_jobs_journal(
                Path(state_dir) / jobstore.JOBS_JOURNAL_NAME
            )
        except JournalError as exc:
            raise CLIError(str(exc)) from None

    runcache.get_cache().max_memory_entries = MEMORY_TIER_RUNS
    scheduler = Scheduler(
        workers=args.workers,
        runner=JobRunner(jobs=jobs),
        state_dir=state_dir,
        job_timeout_s=args.job_timeout,
    )
    if previous is not None and previous.resumable:
        resubmitted = scheduler.recover(previous)
        print(
            f"recovered {resubmitted} unfinished job(s) from "
            f"{state_dir / jobstore.JOBS_JOURNAL_NAME}",
            flush=True,
        )
    try:
        return serve_forever(
            scheduler,
            host=args.host,
            port=port,
            drain_timeout_s=args.drain_timeout,
            state_dir=state_dir,
        )
    except OSError as exc:  # port in use, bad address, ...
        raise CLIError(f"cannot bind {args.host}:{port}: {exc}") from None


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:  # piping into head etc.
        return 0
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _validate_fault_spec() -> None:
    """Reject a malformed ``REPRO_FAULTS`` up front as a usage error.

    Without this, the parse error would surface inside the first
    experiment's failure boundary and read as a partial run (exit 3)
    rather than the typo it is (exit 2).  No context is active yet, so
    the environment is the whole plan; parsing it directly keeps the
    query commands from importing the run context."""
    from repro.testing import faults

    try:
        faults.parse_plan(os.environ.get(faults.FAULTS_ENV, ""))
    except faults.FaultSpecError as exc:
        raise CLIError(str(exc)) from None


def _dispatch(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _validate_fault_spec()

    if args.command == "list":
        for entry in registry.EXPERIMENTS.values():
            tags = ",".join(entry.tags)
            print(f"{entry.id:14s} {entry.paper_artifact:22s} "
                  f"{entry.description}  [{tags}]")
        return 0

    if args.command in ("machines", "workloads"):
        return _list_specs(args)

    if args.command == "run":
        machine = _resolve_machine_arg(args.machine)
        workloads = _resolve_workload_args(args.workloads)
        print(_run_one(args.experiment, args.format, machine=machine,
                       workloads=workloads))
        return 0

    if args.command == "run-all":
        from repro import supervise
        from repro.core.context import RunContext
        from repro.experiments.pipeline import (
            CHECKPOINT_ENV,
            ResumeError,
            load_resume_state,
            run_pipeline,
        )

        only = _split_tokens(args.only)
        skip = _split_tokens(args.skip)
        budget = None
        if args.timeout is not None or args.experiment_timeout is not None:
            budget = supervise.Budget(
                run_timeout_s=args.timeout,
                experiment_timeout_s=args.experiment_timeout,
            ).arm()
        ctx = RunContext(
            machine=_resolve_machine_arg(args.machine),
            workloads=_resolve_workload_args(args.workloads),
            jobs=args.jobs,
            cache_enabled=not args.no_cache,
            # Disk tier under the output directory: repeat runs (and the
            # pipeline workers) reuse earlier results across processes.
            cache_dir=None if args.no_cache else args.out / ".cache",
            budget=budget,
        )
        if args.csv:
            # The CSV exporter consumes fig2/fig3; make sure a filtered
            # selection still computes them (cache-cheap when warm).
            only = (only + ["fig2", "fig3"]
                    if only and not {"fig2", "fig3"} <= set(only)
                    else only)
        resume_state = None
        if args.resume:
            try:
                resume_state = load_resume_state(args.out)
            except ResumeError as exc:
                raise CLIError(str(exc)) from None
        restore_signals = supervise.install_signals()
        try:
            pipeline = run_pipeline(
                ctx, only=only, skip=skip, progress=print,
                resume=resume_state, out_dir=args.out,
                checkpoints=os.environ.get(CHECKPOINT_ENV, "").strip() != "0",
            )
        except (KeyError, ResumeError) as exc:
            raise CLIError(exc.args[0]) from None
        finally:
            restore_signals()
        if args.csv:
            if {"fig2", "fig3"} <= set(pipeline.records):
                _export_csv(args.out, pipeline)
            else:
                print("skipping CSV export: fig2/fig3 did not complete",
                      file=sys.stderr)
        if args.resume and not pipeline.executed:
            print("nothing to resume: previous run already complete")
        if pipeline.cancelled:
            reasons = sorted(
                {c.reason for c in pipeline.cancelled.values()}
            )
            print(
                f"run-all cancelled "
                f"({'; '.join(reasons) or 'no reason recorded'}): "
                f"{len(pipeline.cancelled)} experiment(s) not run; "
                f"completed artifacts and the manifest were written — "
                f"re-run with --resume to finish the matrix",
                file=sys.stderr,
            )
        elif not pipeline.ok:
            failed = sorted(pipeline.failures)
            skipped = sorted(pipeline.skipped)
            print(
                f"run-all completed partially: "
                f"{len(failed)} failed ({', '.join(failed) or '-'}), "
                f"{len(skipped)} skipped ({', '.join(skipped) or '-'}); "
                f"completed artifacts were written — "
                f"re-run with --resume to finish the matrix",
                file=sys.stderr,
            )
        return pipeline.exit_code

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "verify":
        from repro import verify as verify_mod
        from repro.core.context import RunContext
        from repro.experiments.pipeline import run_pipeline

        # Serial and cache-disabled on purpose: audited runs must
        # actually simulate (a cache hit skips the engine entirely), and
        # pool workers would keep their audit counters to themselves.
        ctx = RunContext(
            machine=_resolve_machine_arg(args.machine),
            workloads=_resolve_workload_args(args.workloads),
            jobs=1,
            cache_enabled=False,
            verify=True,
        )
        verify_mod.reset_stats()
        try:
            pipeline = run_pipeline(
                ctx, only=_split_tokens(args.only),
                skip=_split_tokens(args.skip),
            )
        except KeyError as exc:
            raise CLIError(exc.args[0]) from None
        s = verify_mod.stats()
        print(
            f"audited {len(pipeline.records)} experiment(s): "
            f"{s.runs} engine runs, {s.steps} steps, {s.phases} phases, "
            f"{s.checks} invariant checks, {s.violations} violation(s)"
        )
        if not pipeline.ok:
            for exp_id, failure in sorted(pipeline.failures.items()):
                print(
                    f"verify: {exp_id} failed "
                    f"[{failure.error_type}]: {failure.message}",
                    file=sys.stderr,
                )
            for exp_id, blockers in sorted(pipeline.skipped.items()):
                print(
                    f"verify: {exp_id} skipped "
                    f"(blocked by {', '.join(blockers)})",
                    file=sys.stderr,
                )
        return pipeline.exit_code

    if args.command == "speedup":
        from repro.core.study import Study
        from repro.machine.configurations import CONFIGURATIONS
        from repro.npb.suite import UnknownBenchmarkError, resolve_benchmark

        if args.config not in CONFIGURATIONS:
            raise CLIError(
                f"unknown configuration {args.config!r}; "
                f"valid choices: {', '.join(sorted(CONFIGURATIONS))}"
            )
        machine = _resolve_machine_arg(args.machine)
        try:
            study = Study(
                args.problem_class,
                params=None if machine is None else machine.to_params(),
            )
        except (KeyError, ValueError):
            raise CLIError(
                f"unknown problem class {args.problem_class!r}; "
                f"valid choices: S, W, A, B, C"
            ) from None
        try:
            bench = resolve_benchmark(args.benchmark)
        except UnknownBenchmarkError:
            from repro.workload.registry import resolve_workload

            bench = _resolve(
                resolve_workload, args.benchmark, args.problem_class
            ).name
        s = study.speedup(bench, args.config)
        print(f"{bench} on {args.config} "
              f"(class {args.problem_class.upper()}): {s:.2f}x over serial")
        return 0

    return 1  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
