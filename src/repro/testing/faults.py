"""Deterministic fault injection for robustness tests and CI drills.

The pipeline, the run cache, and the parallel sweep runner each expose
one *hook point* into this module.  All hooks are no-ops unless a
:class:`FaultPlan` is active, so production code pays one context read
per hook and nothing else.  A plan activates in one of two ways:

* programmatically — ``RunContext(faults=plan)`` on the active context
  (:mod:`repro.core.context`; tests use ``override(faults=plan)``);
* from the environment — ``REPRO_FAULTS=<spec>`` (what the CI fault
  drill uses; forked pool workers inherit it automatically).

The spec is a comma-separated token list:

``experiment:<id>[=message]``
    Raise :class:`InjectedFault` inside experiment ``<id>``'s driver.
``cache-read-oserror``
    Raise ``OSError`` on every disk-cache read (the cache must degrade
    to a miss, never crash).
``cache-write-oserror``
    Raise ``OSError`` on every disk-cache write (the cache must degrade
    to memory-only, never crash).
``cache-corrupt:<n>``
    Physically overwrite the first ``n`` distinct disk-cache entries
    read (per process) with garbage bytes *before* the cache opens
    them, exercising the integrity-check/quarantine path end to end.
``worker-death:<i>``
    Hard-kill (``os._exit``) the pool worker executing task index
    ``<i>`` of a :func:`repro.sim.parallel.parallel_map` call.  Only
    fires in a child process, so the serial retry that follows the
    resulting ``BrokenProcessPool`` completes normally.
``hang:<i>:<secs>``
    The pool worker executing task index ``<i>`` sleeps ``<secs>``
    seconds before running it — a stand-in for a worker wedged outside
    any cooperative check point, which only the heartbeat watchdog in
    :func:`repro.sim.parallel.parallel_map` can reap.  Child-process
    only, like ``worker-death``, so the serial reschedule completes.
``sigkill-self:<wave>``
    ``SIGKILL`` the pipeline's own process at the start of wave
    ``<wave>`` of a ``run-all`` — no handlers, no cleanup, no
    final manifest.  The manifest checkpoint rewritten after every
    experiment must make the next ``--resume`` recover everything
    already completed.
``slow-cache:<ms>``
    Sleep ``<ms>`` milliseconds on every disk-cache read — injected
    latency for soak runs (a slow NFS mount, a contended disk), which
    must never change results, only timings.
``resolver-skew:<f>``
    Corrupt the contention resolver's output: inflate every resolved
    context's global L2 miss rate by the factor ``1 + f`` *without*
    adjusting the access counts it must stay consistent with.  The
    physics stops closing, which the
    :class:`~repro.verify.auditor.InvariantAuditor` must catch at the
    first resolved step (the auditor drill in CI).

Example::

    REPRO_FAULTS="experiment:fig3,cache-corrupt:1" repro run-all ...
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from typing import Dict, Optional, Set

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "active_plan",
    "maybe_corrupt_cache_file",
    "maybe_fail_experiment",
    "maybe_hang_worker",
    "maybe_kill_worker",
    "maybe_raise_cache_io",
    "maybe_sigkill_self",
    "maybe_slow_cache",
    "parse_plan",
    "resolver_skew",
    "skew_resolved",
]

FAULTS_ENV = "REPRO_FAULTS"

#: Bytes scribbled over a cache entry by ``cache-corrupt`` — an opcode
#: stream no pickle protocol accepts, so the read path must quarantine.
_GARBAGE = b"\x80repro-injected-corruption\x00"

#: Exit status of a fault-killed pool worker (distinctive in CI logs).
_WORKER_DEATH_STATUS = 113


class InjectedFault(RuntimeError):
    """The exception raised by ``experiment:`` faults."""


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` spec string."""


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A declarative set of faults to inject.

    Immutable so a plan can be shared across a ``RunContext`` and its
    pool workers without aliasing surprises; the one piece of mutable
    bookkeeping (which entries this plan already corrupted) is an
    uncompared set that each process's copy of the plan keeps.
    """

    #: experiment id -> exception message for :class:`InjectedFault`.
    fail_experiments: Dict[str, str] = dataclasses.field(
        default_factory=dict
    )
    cache_read_oserror: bool = False
    cache_write_oserror: bool = False
    #: Corrupt the first N distinct disk entries read (per process).
    corrupt_cache_reads: int = 0
    #: Kill the pool worker executing this parallel_map task index.
    worker_death_index: Optional[int] = None
    #: Inflate resolved L2 miss rates by 1 + this factor (0 = off).
    resolver_skew: float = 0.0
    #: Make the pool worker executing this task index sleep first.
    hang_task_index: Optional[int] = None
    #: Seconds the hung worker sleeps (0 = no hang).
    hang_seconds: float = 0.0
    #: SIGKILL the pipeline process at the start of this wave index.
    sigkill_wave: Optional[int] = None
    #: Milliseconds of injected latency per disk-cache read (0 = off).
    slow_cache_ms: float = 0.0
    _corrupted: Set[str] = dataclasses.field(
        default_factory=set, init=False, repr=False, compare=False
    )

    @property
    def touches_parallel_map(self) -> bool:
        return (
            self.worker_death_index is not None
            or self.hang_task_index is not None
        )

    def spec(self) -> str:
        """The plan re-encoded as a ``REPRO_FAULTS`` token list."""
        tokens = []
        for exp_id, message in sorted(self.fail_experiments.items()):
            tokens.append(
                f"experiment:{exp_id}" + (f"={message}" if message else "")
            )
        if self.cache_read_oserror:
            tokens.append("cache-read-oserror")
        if self.cache_write_oserror:
            tokens.append("cache-write-oserror")
        if self.corrupt_cache_reads:
            tokens.append(f"cache-corrupt:{self.corrupt_cache_reads}")
        if self.worker_death_index is not None:
            tokens.append(f"worker-death:{self.worker_death_index}")
        if self.resolver_skew:
            tokens.append(f"resolver-skew:{self.resolver_skew}")
        if self.hang_task_index is not None:
            tokens.append(
                f"hang:{self.hang_task_index}:{self.hang_seconds}"
            )
        if self.sigkill_wave is not None:
            tokens.append(f"sigkill-self:{self.sigkill_wave}")
        if self.slow_cache_ms:
            tokens.append(f"slow-cache:{self.slow_cache_ms}")
        return ",".join(tokens)


def parse_plan(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    fail: Dict[str, str] = {}
    read_os = write_os = False
    corrupt = 0
    death: Optional[int] = None
    skew = 0.0
    hang_index: Optional[int] = None
    hang_seconds = 0.0
    sigkill: Optional[int] = None
    slow_ms = 0.0
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        if token.startswith("experiment:"):
            target = token[len("experiment:"):]
            exp_id, _, message = target.partition("=")
            if not exp_id:
                raise FaultSpecError(f"empty experiment id in {token!r}")
            fail[exp_id] = message
        elif token == "cache-read-oserror":
            read_os = True
        elif token == "cache-write-oserror":
            write_os = True
        elif token.startswith("cache-corrupt:"):
            corrupt = _int_arg(token, "cache-corrupt")
        elif token.startswith("worker-death:"):
            death = _int_arg(token, "worker-death")
        elif token.startswith("resolver-skew:"):
            skew = _float_arg(token, "resolver-skew")
        elif token.startswith("hang:"):
            hang_index, hang_seconds = _hang_args(token)
        elif token.startswith("sigkill-self:"):
            sigkill = _int_arg(token, "sigkill-self")
        elif token.startswith("slow-cache:"):
            slow_ms = _float_arg(token, "slow-cache")
        else:
            raise FaultSpecError(
                f"unknown fault token {token!r}; valid: experiment:<id>, "
                f"cache-read-oserror, cache-write-oserror, "
                f"cache-corrupt:<n>, worker-death:<i>, resolver-skew:<f>, "
                f"hang:<i>:<secs>, sigkill-self:<wave>, slow-cache:<ms>"
            )
    return FaultPlan(
        fail_experiments=fail,
        cache_read_oserror=read_os,
        cache_write_oserror=write_os,
        corrupt_cache_reads=corrupt,
        worker_death_index=death,
        resolver_skew=skew,
        hang_task_index=hang_index,
        hang_seconds=hang_seconds,
        sigkill_wave=sigkill,
        slow_cache_ms=slow_ms,
    )


def _int_arg(token: str, name: str) -> int:
    value = token[len(name) + 1:]
    try:
        n = int(value)
    except ValueError:
        raise FaultSpecError(
            f"{name} needs an integer argument, got {value!r}"
        ) from None
    if n < 0:
        raise FaultSpecError(f"{name} argument must be >= 0")
    return n


def _float_arg(token: str, name: str) -> float:
    value = token[len(name) + 1:]
    try:
        f = float(value)
    except ValueError:
        raise FaultSpecError(
            f"{name} needs a number argument, got {value!r}"
        ) from None
    if f <= 0:
        raise FaultSpecError(f"{name} argument must be > 0")
    return f


def _hang_args(token: str) -> tuple:
    """Parse ``hang:<task-index>:<seconds>`` into its two parts."""
    parts = token.split(":")
    if len(parts) != 3:
        raise FaultSpecError(
            f"hang needs two arguments (hang:<i>:<secs>), got {token!r}"
        )
    index = _int_arg(f"hang:{parts[1]}", "hang")
    try:
        seconds = float(parts[2])
    except ValueError:
        raise FaultSpecError(
            f"hang seconds must be a number, got {parts[2]!r}"
        ) from None
    if seconds <= 0:
        raise FaultSpecError("hang seconds must be > 0")
    return index, seconds


# ----------------------------------------------------------------------
# The active context's plan wins; otherwise the environment is consulted
# (parsed once per distinct spec string).
_env_cache: Optional[tuple] = None  # (spec string, parsed plan)


def active_plan() -> Optional[FaultPlan]:
    """The plan currently in force, or ``None``.

    The active context's plan beats the environment; a malformed
    environment spec raises :class:`FaultSpecError` (failing loudly
    beats silently running a drill with no faults).
    """
    from repro.core.context import current

    ctx = current()
    if ctx is not None and ctx.faults is not None:
        return ctx.faults
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    global _env_cache
    if _env_cache is None or _env_cache[0] != spec:
        _env_cache = (spec, parse_plan(spec))
    return _env_cache[1]


# ----------------------------------------------------------------------
# Hook points.  Each is a no-op without an active plan.

def maybe_fail_experiment(experiment_id: str) -> None:
    """Raise :class:`InjectedFault` if the plan targets this experiment."""
    plan = active_plan()
    if plan is None:
        return
    message = plan.fail_experiments.get(experiment_id)
    if message is not None:
        raise InjectedFault(
            message or f"injected failure in experiment {experiment_id!r}"
        )


def maybe_raise_cache_io(operation: str) -> None:
    """Raise ``OSError`` on a disk-cache read/write if the plan says so."""
    plan = active_plan()
    if plan is None:
        return
    if (operation == "read" and plan.cache_read_oserror) or (
        operation == "write" and plan.cache_write_oserror
    ):
        raise OSError(f"injected cache {operation} failure")


def maybe_corrupt_cache_file(path: os.PathLike) -> None:
    """Scribble garbage over a cache entry about to be read.

    Corrupts at most ``corrupt_cache_reads`` *distinct* entries per
    plan and process, so a quarantine-then-recompute cycle converges
    instead of chasing an ever-corrupting cache.
    """
    plan = active_plan()
    if plan is None or plan.corrupt_cache_reads <= 0:
        return
    key = str(path)
    if key in plan._corrupted:
        return
    if len(plan._corrupted) >= plan.corrupt_cache_reads:
        return
    try:
        with open(path, "wb") as fh:
            fh.write(_GARBAGE)
    except OSError:
        return
    plan._corrupted.add(key)


def resolver_skew() -> float:
    """The active plan's resolver-skew factor (0.0 without one).

    Engines read it once per run and pass it to :func:`skew_resolved`
    after every resolve.
    """
    plan = active_plan()
    return 0.0 if plan is None else plan.resolver_skew


def skew_resolved(resolved: Dict[str, "object"], skew: float) -> None:
    """Corrupt a resolver's output in place by ``skew`` (> 0).

    Inflates every context's global L2 miss rate by ``1 + skew`` while
    leaving the access counts and local miss rate untouched — the
    hierarchy closure (``l2_misses = l2_accesses * l2_miss_rate``) no
    longer holds, which the invariant auditor must report with the
    step/context where it first saw the incoherence.
    """
    factor = 1.0 + skew
    for r in resolved.values():
        r.rates = dataclasses.replace(
            r.rates,
            l2_misses_per_instr=r.rates.l2_misses_per_instr * factor,
        )


def maybe_kill_worker(task_index: int) -> None:
    """Hard-kill the current *pool worker* at the planned task index.

    Never fires in the main process: the whole point of worker-death
    injection is proving that the parent's retry path completes, so the
    serial re-execution of the same task must survive.
    """
    plan = active_plan()
    if plan is None or plan.worker_death_index != task_index:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return
    os._exit(_WORKER_DEATH_STATUS)


def maybe_hang_worker(task_index: int) -> None:
    """Stall the current *pool worker* at the planned task index.

    Like :func:`maybe_kill_worker`, this never fires in the main
    process: the hang exists to trip the pool watchdog, and the serial
    reschedule of the same task must then run clean.
    """
    plan = active_plan()
    if plan is None or plan.hang_task_index != task_index:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return
    time.sleep(plan.hang_seconds)


def maybe_sigkill_self(wave: int) -> None:
    """SIGKILL the whole process at the start of the planned wave.

    The crash the manifest checkpoint exists for: no exception
    propagates, no ``finally`` runs, no final manifest gets written.  Fires in whichever
    process evaluates the wave boundary (the pipeline process).
    """
    plan = active_plan()
    if plan is None or plan.sigkill_wave != wave:
        return
    os.kill(os.getpid(), signal.SIGKILL)


def maybe_slow_cache() -> None:
    """Delay a disk-cache read by the planned latency (both tiers of
    the degradation story: retries see it too)."""
    plan = active_plan()
    if plan is None or plan.slow_cache_ms <= 0:
        return
    time.sleep(plan.slow_cache_ms / 1000.0)
