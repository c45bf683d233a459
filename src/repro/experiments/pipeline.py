"""Dependency-aware, fault-tolerant experiment pipeline (``run-all``).

The pipeline plans the selected registry entries into topological
*waves* over their declared data dependencies, executes each wave —
serially, or fanned out over :func:`repro.sim.parallel.parallel_map`
when the context allows more than one job — and collects, per
experiment, everything the run manifest needs:

* the structured result (fed to downstream experiments via
  ``ctx.results`` and to the CSV exporter),
* the rendered text artifact (byte-identical to the pre-pipeline
  per-module output),
* wall time, run-cache hit/miss deltas, and the fingerprints of the
  studies the driver touched.

**Failure isolation.**  One experiment raising does not abort the
matrix: the exception becomes a structured :class:`ExperimentFailure`
(type, message, traceback, wave, wall time), experiments that *require*
the failed one are marked skipped with their blockers, and every other
experiment still runs and emits its artifacts byte-identically to a
clean run.  A run with failures or skips reports
``exit_code == EXIT_PARTIAL_FAILURE``.

**Checkpoint/resume.**  Given an output directory, the pipeline keeps
``manifest.json`` as the campaign's one checkpoint: the first write
replaces any earlier campaign's manifest, and after every outcome it
lands the experiment's ``<id>.txt`` + ``<id>.json`` and then rewrites
the manifest atomically (``status: "running"`` until the final write).
A failed, cancelled or even SIGKILLed run is therefore resumable:
:func:`load_resume_state` reads the completed artifacts back and
``run_pipeline(..., resume=state)`` re-executes only the
failed/skipped/missing experiments, reusing completed results (via the
drivers' optional ``load_result`` rehydrators) for dependency
injection.  The manifest records the campaign's identity (default study
fingerprint and the content-addressed workload keys), and a resume into
another identity raises :class:`ResumeError` before anything is
written, so it never reuses another configuration's artifacts.  The
resumed manifest is byte-identical to an unfailed run's modulo
timing/cache counters.

The manifest also carries timings, cache counters, study fingerprints,
failures, skips, pool-fallback reports and the package version — the
machine-readable surface an autotuner or a service can drive.

**Supervision.**  The pipeline cooperates with
:mod:`repro.supervise`: SIGINT/SIGTERM (via the cancel token) and run
budgets stop the campaign *between* experiments, draining in-flight
pool work, recording the rest as ``cancelled`` (exit
:data:`EXIT_CANCELLED`), and still writing the manifest.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.context import RunContext, as_context
from repro.core.runcache import CacheStats, get_cache, study_fingerprint
from repro.experiments import registry
from repro import supervise
from repro.npb.common import ProblemClass
from repro.sim.parallel import FallbackReport, parallel_map, resolve_jobs
from repro.testing import faults

__all__ = [
    "CHECKPOINT_ENV",
    "EXIT_CANCELLED",
    "EXIT_PARTIAL_FAILURE",
    "ExperimentCancellation",
    "ExperimentFailure",
    "ExperimentRecord",
    "PipelineResult",
    "ResumeError",
    "ResumeState",
    "campaign_identity",
    "load_resume_state",
    "run_pipeline",
    "write_artifacts",
]

#: manifest.json schema version, bumped on incompatible layout changes.
#: 2 = per-experiment ``status`` plus top-level ``status`` / ``failures``
#: / ``skipped`` / ``parallel_fallbacks`` sections.
#: 3 = machine-axis batching accounting: top-level ``batch_mode`` plus a
#: per-experiment ``batch`` section (``batched_machines`` /
#: ``scalar_fallbacks`` / ``deduplicated_machines``).
#: 4 = supervised execution: top-level ``cancelled`` and ``supervision``
#: (budget / circuit-breaker) sections; ``status`` gains ``cancelled``.
#: 5 = the batched engine is gone: no ``batch_mode`` and no
#: per-experiment ``batch`` section.
#: 6 = the manifest is ``run-all``'s checkpoint: ``status`` is
#: ``running`` until the final write, and a top-level ``identity``
#: names the campaign a ``--resume`` must match.
MANIFEST_SCHEMA = 6

MANIFEST_NAME = "manifest.json"

#: Set to ``0`` to write ``run-all``'s manifest only when the run starts
#: and ends, with no durable checkpoint per experiment (the escape hatch
#: for filesystems where per-write fsync is punitive, and the A/B knob
#: for measuring checkpoint cost).
CHECKPOINT_ENV = "REPRO_JOURNAL"

#: ``run-all`` exit status when the matrix completed only partially
#: (distinct from 2 = bad arguments; completed artifacts are still
#: written and resumable).
EXIT_PARTIAL_FAILURE = 3

#: ``run-all`` exit status when the campaign was cancelled (SIGINT /
#: SIGTERM / run budget exhausted) — in-flight work was drained, the
#: manifest was written, and the run is resumable.
EXIT_CANCELLED = 4


@dataclass
class ExperimentRecord:
    """Everything the pipeline learned from one experiment run."""

    id: str
    result: Any
    text: str
    wall_time_s: float
    cache: Dict[str, Any] = field(default_factory=dict)
    study_fingerprints: List[str] = field(default_factory=list)
    wave: int = 0
    #: Pre-rendered ``<id>.json`` payload, set for records reused from a
    #: previous run (whose ``result`` may be unrehydratable).  When
    #: None, :func:`write_artifacts` renders the payload from ``result``.
    payload: Optional[Dict[str, Any]] = None


@dataclass
class ExperimentFailure:
    """A per-experiment exception, contained instead of propagated."""

    id: str
    wave: int
    error_type: str
    message: str
    traceback: str
    wall_time_s: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wave": self.wave,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "wall_time_s": round(self.wall_time_s, 4),
        }


@dataclass
class ExperimentCancellation:
    """An experiment stopped by supervision, not by its own failure.

    Produced when the cancel token trips (SIGINT/SIGTERM, or a mapped
    ``KeyboardInterrupt``) or the *run* budget runs dry before/while the
    experiment executes.  Unlike an :class:`ExperimentFailure` this
    carries no traceback — nothing was wrong with the experiment — and
    a later ``--resume`` simply re-runs it.
    """

    id: str
    wave: int
    reason: str
    wall_time_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wave": self.wave,
            "reason": self.reason,
            "wall_time_s": round(self.wall_time_s, 4),
        }


class ResumeError(RuntimeError):
    """``--resume`` was requested but there is nothing usable to resume."""


@dataclass
class ResumeState:
    """Artifacts recovered from a previous (possibly partial) run."""

    out_dir: Path
    manifest: Dict[str, Any]
    #: experiment id -> {"meta": manifest entry, "text": <id>.txt
    #: contents, "payload": parsed <id>.json}.
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Ordered records plus failures/skips and the manifest."""

    records: Dict[str, ExperimentRecord] = field(default_factory=dict)
    failures: Dict[str, ExperimentFailure] = field(default_factory=dict)
    #: skipped experiment id -> the failed/skipped ids blocking it.
    skipped: Dict[str, List[str]] = field(default_factory=dict)
    #: experiment id -> cancellation outcome (supervision stopped it).
    cancelled: Dict[str, ExperimentCancellation] = field(
        default_factory=dict
    )
    #: Pool-degradation events surfaced by :func:`parallel_map`.
    fallbacks: List[FallbackReport] = field(default_factory=list)
    #: Ids reused from a previous run instead of re-executed.
    resumed: List[str] = field(default_factory=list)
    #: Ids actually executed this run.
    executed: List[str] = field(default_factory=list)
    manifest: Dict[str, Any] = field(default_factory=dict)

    def result(self, experiment_id: str) -> Any:
        return self.records[experiment_id].result

    @property
    def ok(self) -> bool:
        """True when every selected experiment completed."""
        return not (self.failures or self.skipped or self.cancelled)

    @property
    def exit_code(self) -> int:
        if self.cancelled:
            return EXIT_CANCELLED
        return 0 if self.ok else EXIT_PARTIAL_FAILURE


def _execute(
    entry: registry.ExperimentEntry, ctx: RunContext, wave: int
) -> Union[ExperimentRecord, ExperimentFailure, ExperimentCancellation]:
    """Run one experiment, measuring wall time and cache activity.

    Exceptions from the driver (or its renderer) are contained into an
    :class:`ExperimentFailure` so one bad experiment cannot take down
    the rest of the wave — on either the serial or the pool path.  A
    deadline overrun (:class:`~repro.supervise.DeadlineExceeded`) is
    one such failure: *this* experiment overdrew its budget, the rest
    of the matrix continues.  Cancellation
    (:class:`~repro.supervise.CancelledRun`, or a raw
    ``KeyboardInterrupt`` when no signal handlers are installed) is
    different: it becomes an :class:`ExperimentCancellation`, and the
    process-wide token is set so the pipeline winds the whole campaign
    down instead of starting the next task.

    The experiment runs under its own task context (:meth:`RunContext.
    for_task`): its deadline and cancel token belong to it alone.
    """
    before = get_cache().stats.snapshot()
    ctx.touched_fingerprints(reset=True)
    task = ctx.for_task(f"experiment {entry.id}")
    start = time.perf_counter()
    try:
        with task.active():
            faults.maybe_fail_experiment(entry.id)
            result = entry.run(ctx)
            text = entry.render_text(result)
    except supervise.CancelledRun as exc:
        return ExperimentCancellation(
            id=entry.id, wave=wave, reason=str(exc),
            wall_time_s=time.perf_counter() - start,
        )
    except KeyboardInterrupt:
        # Library/embedder path (the CLI installs handlers that turn
        # SIGINT into CancelledRun before it gets here): contain the
        # interrupt, cancel the run, and let the pipeline finish with
        # a valid, resumable manifest and EXIT_CANCELLED.
        supervise.token().cancel("keyboard interrupt")
        return ExperimentCancellation(
            id=entry.id, wave=wave, reason="keyboard interrupt",
            wall_time_s=time.perf_counter() - start,
        )
    except Exception as exc:
        return ExperimentFailure(
            id=entry.id,
            wave=wave,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
            wall_time_s=time.perf_counter() - start,
        )
    wall = time.perf_counter() - start
    return ExperimentRecord(
        id=entry.id,
        result=result,
        text=text,
        wall_time_s=wall,
        cache=get_cache().stats.since(before).as_dict(),
        study_fingerprints=ctx.touched_fingerprints(),
        wave=wave,
    )


def _pipeline_task(
    task: Tuple[str, RunContext, int]
) -> Union[ExperimentRecord, ExperimentFailure, ExperimentCancellation]:
    """Parallel worker: configure the cache, run, measure (picklable).

    The task's context is spawned with ``jobs=1``: the pipeline is
    already the fan-out level, so sweeps inside a worker stay serial.
    """
    entry_id, ctx, wave = task
    ctx.apply_cache_config()
    with ctx.active():
        return _execute(registry.get(entry_id), ctx, wave)


def run_pipeline(
    ctx: Optional[RunContext] = None,
    only: Optional[Sequence[str]] = None,
    skip: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    resume: Optional[ResumeState] = None,
    out_dir: Optional[Path] = None,
    checkpoints: bool = True,
) -> PipelineResult:
    """Run the selected experiments in dependency order.

    Within a wave, experiments are independent; when the context's
    ``jobs`` allows, they fan out over the process pool (each worker
    running its internal sweeps serially), otherwise they run in-process
    and share the context's memoized studies directly.  Results land in
    ``ctx.results`` as they complete, so later waves consume them.

    A failing experiment is recorded, its (selected) dependents are
    skipped with their blockers, and the remaining waves continue.  With
    ``resume``, experiments already completed in a previous run are
    reused from their artifacts instead of re-executed; a ``resume``
    recorded under another :func:`campaign_identity` raises
    :class:`ResumeError` before anything is written.  Reused rows are
    adopted up front, so a reused dependent stays ``ok`` even if the
    upstream it was computed from re-runs (its artifacts went missing)
    and fails this time.

    **Supervision.**  Between experiments the pipeline consults the
    process cancel token and the run budget; once either says stop, the
    remaining experiments are recorded as *cancelled* (in-flight pool
    work is drained first) and the manifest still gets written, with
    ``exit_code == EXIT_CANCELLED``.

    **Checkpoints.**  With ``out_dir``, the manifest is written there
    before the first experiment runs (carrying every reused row) and
    after the last; with ``checkpoints`` also after every outcome, each
    completed experiment's artifact pair landing just before the
    manifest that lists it — so even a SIGKILLed campaign is resumable.
    """
    ctx = as_context(ctx)
    ctx.apply_cache_config()
    with ctx.active():
        return _run_pipeline(
            ctx, only, skip, progress, resume, out_dir, checkpoints
        )


def _run_pipeline(
    ctx: RunContext,
    only: Optional[Sequence[str]],
    skip: Optional[Sequence[str]],
    progress: Optional[Callable[[str], None]],
    resume: Optional[ResumeState],
    out_dir: Optional[Path],
    checkpoints: bool,
) -> PipelineResult:
    entries = registry.select(only=only, skip=skip)
    waves = registry.execution_waves(entries)
    selected = {e.id for e in entries}
    n_jobs = resolve_jobs(ctx.jobs)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    identity = campaign_identity(ctx)
    if resume is not None:
        recorded = resume.manifest.get("identity")
        if recorded != identity:
            raise ResumeError(
                f"cannot resume: {resume.out_dir / MANIFEST_NAME} belongs "
                f"to another campaign (recorded identity "
                f"{json.dumps(recorded, sort_keys=True)}, this run's "
                f"{json.dumps(identity, sort_keys=True)}); re-run without "
                f"--resume or choose another --out"
            )
        note(f"resuming from {resume.out_dir}: {len(resume.completed)} "
             f"completed experiment(s) reused")

    def stop_reason() -> Optional[str]:
        token = supervise.token()
        if token.cancelled:
            return token.reason or "cancelled"
        budget = ctx.budget
        if budget is not None and budget.armed and budget.run_overdrawn():
            return f"run budget exhausted ({budget.run_timeout_s}s)"
        return None

    out = PipelineResult()
    #: Completed records whose artifact pair is not on disk yet.
    unwritten: List[ExperimentRecord] = []

    def checkpoint(always: bool = False) -> None:
        """Land the pending artifact pairs, then a ``running`` manifest
        that lists them (per outcome only with ``checkpoints``)."""
        if out_dir is None or not (checkpoints or always):
            return
        out.manifest = _build_manifest(ctx, out, n_jobs, identity, True)
        write_artifacts(out, out_dir, progress, records=unwritten)
        unwritten.clear()

    def absorb(outcome: Any) -> None:
        """One outcome's bookkeeping, then its checkpoint."""
        if isinstance(outcome, ExperimentFailure):
            out.failures[outcome.id] = outcome
            message = (f"FAILED {outcome.id} "
                       f"({outcome.error_type}: {outcome.message})")
        elif isinstance(outcome, ExperimentCancellation):
            out.cancelled[outcome.id] = outcome
            message = f"cancelled {outcome.id} ({outcome.reason})"
        else:
            ctx.results[outcome.id] = outcome.result
            out.records[outcome.id] = outcome
            unwritten.append(outcome)
            message = (
                f"ran {outcome.id} "
                f"({outcome.wall_time_s:.2f}s, "
                f"cache {outcome.cache.get('hits', 0)} hits / "
                f"{outcome.cache.get('misses', 0)} misses)"
            )
        checkpoint()
        note(message)

    # Reused experiments are decided before anything runs, so the first
    # checkpoint already carries every row a second crash must not lose.
    reusable = {} if resume is None else resume.completed
    for wave_index, wave in enumerate(waves):
        for entry in (e for e in wave if e.id in reusable):
            record = _record_from_resume(entry, resume, wave_index)
            if record.result is not None:
                ctx.results[record.id] = record.result
            out.records[record.id] = record
            out.resumed.append(record.id)
            note(f"resumed {record.id} (reused previous artifacts)")
    checkpoint(always=True)

    for wave_index, wave in enumerate(waves):
        faults.maybe_sigkill_self(wave_index)
        pending = [e for e in wave if e.id not in out.records]
        stop = stop_reason()
        if stop is not None:
            # The campaign is over: everything not yet decided is
            # cancelled, so the manifest accounts for every selected
            # experiment.
            for entry in pending:
                absorb(ExperimentCancellation(
                    id=entry.id, wave=wave_index, reason=stop,
                ))
            continue

        to_run: List[registry.ExperimentEntry] = []
        for entry in pending:
            blockers = sorted(
                dep for dep in entry.requires
                if dep in selected
                and (dep in out.failures or dep in out.skipped
                     or dep in out.cancelled)
            )
            if blockers:
                out.skipped[entry.id] = blockers
                note(f"skipped {entry.id} "
                     f"(blocked by {', '.join(blockers)})")
                continue
            to_run.append(entry)

        if n_jobs > 1 and len(to_run) > 1:
            tasks = [
                (e.id, ctx.spawn(jobs=1), wave_index) for e in to_run
            ]

            def pool_result(index: int, outcome: Any) -> None:
                out.executed.append(outcome.id)
                absorb(outcome)

            parallel_map(
                _pipeline_task, tasks, jobs=n_jobs,
                on_fallback=out.fallbacks.append,
                on_result=pool_result,
            )
        else:
            for entry in to_run:
                stop = stop_reason()
                if stop is not None:
                    absorb(ExperimentCancellation(
                        id=entry.id, wave=wave_index, reason=stop,
                    ))
                    continue
                outcome = _execute(entry, ctx, wave_index)
                out.executed.append(outcome.id)
                absorb(outcome)

    # Records in registry order, regardless of wave packing.
    out.records = {
        e.id: out.records[e.id] for e in entries if e.id in out.records
    }
    out.manifest = _build_manifest(ctx, out, n_jobs, identity, False)
    if out_dir is not None:
        write_artifacts(out, out_dir, progress, records=unwritten)
    return out


def _record_from_resume(
    entry: registry.ExperimentEntry,
    resume: ResumeState,
    wave_index: int,
) -> ExperimentRecord:
    """Rebuild a completed experiment's record from its artifacts.

    The text and JSON payload are reused verbatim (so re-written
    artifacts stay byte-identical); the in-memory result object comes
    back through the driver's ``load_result`` rehydrator when it has
    one, enabling dependency injection into re-running dependents.
    """
    stored = resume.completed[entry.id]
    meta, payload = stored["meta"], stored["payload"]
    try:
        result = entry.load_result(payload)
    except Exception:
        # A rehydrator bug must not kill the resume; dependents fall
        # back to recomputing through the run cache.
        result = None
    return ExperimentRecord(
        id=entry.id,
        result=result,
        text=stored["text"],
        wall_time_s=float(meta.get("wall_time_s", 0.0)),
        cache=dict(meta.get("cache", {})),
        study_fingerprints=list(meta.get("study_fingerprints", [])),
        wave=wave_index,
        payload=payload,
    )


def campaign_identity(ctx: RunContext) -> Dict[str, Any]:
    """What a campaign's artifacts depend on besides the code: the
    default study's fingerprint (problem class, machine parameters,
    scheduler, OpenMP environment) and the run-cache key of every
    workload the matrix experiments sweep — a NAS name, or
    ``name@short_fingerprint`` for a spec file or registry entry, so an
    edited spec is a different campaign.  Resuming a manifest whose
    recorded identity differs raises :class:`ResumeError`."""
    pc = ctx.problem_class
    if not isinstance(pc, ProblemClass):
        pc = ProblemClass.from_str(pc)
    study = ctx.study()
    return {
        "study_fingerprint": study_fingerprint(
            pc, ctx.machine_params(), ctx.scheduler, ctx.omp
        ),
        "workloads": [study.workload_key(t) for t in ctx.workload_names()],
    }


def load_resume_state(out_dir: Path) -> ResumeState:
    """Recover the completed portion of a previous run from ``out_dir``.

    An experiment counts as completed when the manifest — final or a
    ``running`` checkpoint a killed run left behind — marks it ``ok``
    *and* both of its artifact files are present and parseable; a
    missing or torn artifact simply re-runs that experiment.  With no
    manifest, :class:`ResumeError`; :func:`run_pipeline` checks the
    manifest's campaign identity.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise ResumeError(f"nothing to resume: no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ResumeError(
            f"cannot resume from unreadable manifest {manifest_path}: {exc}"
        ) from None
    if not isinstance(manifest, dict) or "experiments" not in manifest:
        raise ResumeError(
            f"cannot resume: {manifest_path} is not a run manifest"
        )

    state = ResumeState(out_dir=out_dir, manifest=manifest)
    for exp_id, meta in manifest["experiments"].items():
        # Schema-1 manifests predate per-experiment status: every entry
        # they list completed (failures aborted the whole run then).
        if meta.get("status", "ok") != "ok":
            continue
        try:
            text = (out_dir / f"{exp_id}.txt").read_text()
            payload = json.loads((out_dir / f"{exp_id}.json").read_text())
        except (OSError, json.JSONDecodeError):
            continue
        state.completed[exp_id] = {
            "meta": meta, "text": text, "payload": payload
        }
    return state


def _manifest_row(rec: ExperimentRecord) -> Dict[str, Any]:
    """One completed experiment's manifest entry."""
    entry = registry.get(rec.id)
    return {
        "paper_artifact": entry.paper_artifact,
        "description": entry.description,
        "tags": sorted(entry.tags),
        "requires": list(entry.requires),
        "status": "ok",
        "wave": rec.wave,
        "wall_time_s": round(rec.wall_time_s, 4),
        "cache": rec.cache,
        "study_fingerprints": rec.study_fingerprints,
        "artifacts": {
            "text": f"{rec.id}.txt",
            "json": f"{rec.id}.json",
        },
    }


def _build_manifest(
    ctx: RunContext,
    out: PipelineResult,
    n_jobs: int,
    identity: Dict[str, Any],
    running: bool,
) -> Dict[str, Any]:
    """The top-level manifest.json payload (a checkpoint while
    ``running``)."""
    import repro

    cache = get_cache()
    experiments: Dict[str, Any] = {
        rec.id: _manifest_row(rec) for rec in out.records.values()
    }
    if running:
        status = "running"
    elif out.cancelled:
        status = "cancelled"
    elif out.ok:
        status = "complete"
    else:
        status = "partial"
    # The totals sum the rows: under --jobs N each row counts its own
    # worker's lookups, which this process's cache never saw.
    totals = CacheStats(**{
        f.name: sum(rec.cache.get(f.name, 0) for rec in out.records.values())
        for f in dataclasses.fields(CacheStats)
    })
    budget = ctx.budget
    pc = ctx.problem_class
    return {
        "schema": MANIFEST_SCHEMA,
        "status": status,
        "identity": identity,
        "package_version": repro.__version__,
        "problem_class": pc if isinstance(pc, str) else pc.value,
        "scheduler": ctx.scheduler,
        "jobs": n_jobs,
        "cache": {
            "enabled": cache.enabled,
            "disk_dir": str(cache.disk_dir) if cache.disk_dir else None,
            "totals": totals.as_dict(),
        },
        "failures": {
            exp_id: failure.as_dict()
            for exp_id, failure in sorted(out.failures.items())
        },
        "skipped": {
            exp_id: {"blocked_by": blockers}
            for exp_id, blockers in sorted(out.skipped.items())
        },
        "cancelled": {
            exp_id: cancellation.as_dict()
            for exp_id, cancellation in sorted(out.cancelled.items())
        },
        "supervision": {
            "budget": budget.as_dict() if budget is not None else None,
            "breakers": supervise.breaker_states(),
        },
        "parallel_fallbacks": [r.as_dict() for r in out.fallbacks],
        "total_wall_time_s": round(
            sum(r.wall_time_s for r in out.records.values()), 4
        ),
        "experiments": experiments,
    }


def write_artifacts(
    pipeline: PipelineResult,
    out_dir: Path,
    progress: Optional[Callable[[str], None]] = None,
    records: Optional[Sequence[ExperimentRecord]] = None,
) -> List[Path]:
    """Write ``<id>.txt`` + ``<id>.json`` per record, then manifest.json.

    ``records`` defaults to every record of ``pipeline``; the pipeline's
    checkpoints pass only the ones not yet on disk.  The text files are
    byte-identical to what the per-module ``report`` functions produced
    before the pipeline existed; the JSON files add the machine-readable
    mirror of each result.  Failed or skipped experiments contribute no
    artifact files — only their manifest entries — so a later
    ``--resume`` can tell them apart from completed work.

    The manifest lands last and atomically (a fixed temp file, fsynced,
    then renamed over the old one), so a crash at any point leaves a
    whole manifest that lists only artifacts already written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def report(path: Path) -> None:
        written.append(path)
        if progress is not None:
            progress(f"wrote {path}")

    for rec in pipeline.records.values() if records is None else records:
        payload = (
            rec.payload if rec.payload is not None
            else registry.get(rec.id).json_payload(rec.result)
        )
        for path, content in (
            (out_dir / f"{rec.id}.txt", rec.text),
            (out_dir / f"{rec.id}.json",
             json.dumps(payload, indent=2, sort_keys=True) + "\n"),
        ):
            path.write_text(content)
            report(path)
    path = out_dir / MANIFEST_NAME
    tmp = out_dir / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(pipeline.manifest, indent=2, sort_keys=True)
                 + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    report(path)
    return written
