"""In-memory span tracing around the program's public layer functions.

The tracer wraps each function named in :data:`WRAPS` where it is looked
up: a method on its class, a module-level function in every ``repro``
module that imported it by name.  Nothing under ``src/`` changes; the
wrappers are installed at run time, by the benchmark's own child process
(``analytic``) or by :mod:`perfbench.child` before it hands control to
``repro.cli.main`` (``runall`` and ``serve``).

A span is ``(id, parent, name, start_ns, end_ns, root_id, thread, attr)``.
``root_id`` is the id of the enclosing engine run or HTTP request, the
correlation id every span below it shares.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the process.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

#: Span fields, in storage order.
FIELDS = ("id", "parent", "name", "start", "end", "root", "thread", "attr")


@dataclass(frozen=True)
class Wrap:
    """One traced function: ``target`` is ``module:attr`` or
    ``module:Class.method``; ``name`` the span (layer) name."""

    target: str
    name: str
    #: Opens a correlation id (an engine run or an HTTP request).
    root: bool = False
    #: ``pre(args)`` runs before the call; its value goes to ``post``.
    pre: Optional[Callable[[tuple], Any]] = None
    #: ``post(args, result, pre_value) -> (name_suffix, attr)``.
    post: Optional[Callable[[tuple, Any, Any], Tuple[str, Any]]] = None


def _cache_tier(args: tuple, result: Any, before: Any) -> Tuple[str, Any]:
    cache = args[0]
    if cache.is_miss(result):
        return ".miss", None
    return (".disk" if cache.stats.disk_hits > before else ".memory"), None


def _probe_outcome(args: tuple, result: Any, before: Any) -> Tuple[str, Any]:
    return (".miss" if result is None else ".hit"), None


def _submit_source(args: tuple, result: Any, before: Any) -> Tuple[str, Any]:
    return "." + result.source, None


def _lanes(args: tuple, result: Any, before: Any) -> Tuple[str, Any]:
    return "", len(args[1])


WRAPS: Tuple[Wrap, ...] = (
    Wrap("repro.npb.suite:build_workload", "workload.build"),
    Wrap("repro.workload.spec:WorkloadSpec.build", "workload.build"),
    Wrap("repro.core.study:Study.run", "core.study.run"),
    Wrap("repro.core.study:Study.run_pair", "core.study.run"),
    Wrap("repro.core.runcache:RunCache.get", "core.runcache.get",
         pre=lambda a: a[0].stats.disk_hits, post=_cache_tier),
    Wrap("repro.core.runcache:RunCache.put", "core.runcache.put"),
    Wrap("repro.sim.engine:Engine.run", "sim.engine.run", root=True),
    Wrap("repro.sim.resolver:FixedPointResolver.prework",
         "sim.resolver.prework"),
    Wrap("repro.sim.resolver:FixedPointResolver.resolve",
         "sim.resolver.resolve"),
    Wrap("repro.mem.bus:BusModel.resolve_lite", "mem.bus.resolve_lite"),
    Wrap("repro.mem.bus:BusModel.build_outcomes", "mem.bus.build_outcomes"),
    Wrap("repro.cpu.pipeline:PipelineModel.breakdown",
         "cpu.pipeline.breakdown"),
    Wrap("repro.sim.advance:TimeAccountant.accumulate",
         "sim.advance.accumulate"),
    Wrap("repro.sim.advance:TimeAccountant.phase_wall_time",
         "sim.advance.phase_wall_time"),
    # The batched engine's per-step solve over every machine lane.
    Wrap("repro.sim.batch:BatchedFixedPointResolver.resolve_classes",
         "sim.batch.resolve_lanes", post=_lanes),
    Wrap("repro.mem.bus:resolve_lite_lanes", "mem.bus.lanes"),
    Wrap("repro.sim.batch:run_batched_single", "sim.batch.run_batched_single",
         root=True),
    Wrap("repro.experiments.pipeline:write_artifacts",
         "experiments.pipeline.write"),
    Wrap("repro.supervise.journal:Journal.append", "supervise.journal.append"),
    Wrap("repro.serve.app:_Handler.do_POST", "serve.app.post", root=True),
    Wrap("repro.serve.app:_Handler.do_GET", "serve.app.get", root=True),
    Wrap("repro.serve.schema:parse_job", "serve.schema.parse"),
    Wrap("repro.serve.schema:job_key", "serve.schema.job_key"),
    Wrap("repro.serve.scheduler:Scheduler.submit", "serve.scheduler.submit",
         post=_submit_source),
    Wrap("repro.serve.runner:JobRunner.probe", "serve.runner.probe",
         post=_probe_outcome),
    Wrap("repro.serve.runner:JobRunner.__call__", "serve.runner.execute"),
    Wrap("repro.serve.store:JobJournal.append", "serve.store.journal_append"),
)

#: Modules that import a wrapped module-level function by name; they are
#: imported before patching so every such binding is replaced.
PRELOAD = (
    "repro", "repro.cli", "repro.core.study", "repro.sim.trials",
    "repro.experiments.registry", "repro.experiments.validation",
    "repro.experiments.tuning_study", "repro.experiments.pipeline",
    "repro.sim.batch", "repro.serve.app", "repro.serve.scheduler",
    "repro.serve.runner", "repro.serve.store",
)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: Dict[int, int] = {}

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        idx = self._threads.get(ident)
        if idx is None:
            idx = self._threads.setdefault(ident, len(self._threads))
        return idx

    def wrap(self, fn: Callable, spec: Wrap) -> Callable:
        tracer = self
        name, root, pre, post = spec.name, spec.root, spec.pre, spec.post

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(tracer._ids)
            parent, parent_root = stack[-1] if stack else (0, 0)
            root_id = parent_root or (sid if root else 0)
            before = pre(args) if pre is not None else None
            stack.append((sid, root_id))
            ok = False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                label, attr = name, None
                if ok and post is not None:
                    suffix, attr = post(args, result, before)
                    label = name + suffix
                tracer.spans.append((
                    sid, parent, label, t0, t1, root_id,
                    tracer._thread_index(), attr,
                ))
            return result

        traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return traced

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the spans (and any extra facts) as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": FIELDS, "spans": self.spans, **(extra or {})}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load(path: Path) -> Dict[str, Any]:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, attr_path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, wraps: Iterable[Wrap] = WRAPS) -> int:
    """Patch every wrapped function; returns the number of bindings
    replaced.  Idempotent per function object."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    patched = 0
    for spec in wraps:
        owner, attr = _resolve(spec.target)
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        wrapper = tracer.wrap(original, spec)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            patched += 1
            continue
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patched += 1
    return patched


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: List[Sequence]) -> List[int]:
    """Self time of each span, in the order given: its duration minus
    the part of its interval that its direct child spans cover."""
    index = {s[0]: i for i, s in enumerate(spans)}
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s[1] and s[1] in index:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = []
    for s in spans:
        start, end = s[3], s[4]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0, end - start - covered))
    return out


@dataclass
class LayerStats:
    """Aggregate of one span name: outermost calls, all spans, self and
    total time (ns) and the sum of the spans' ``attr`` values."""

    calls: int = 0
    spans: int = 0
    self_ns: int = 0
    total_ns: int = 0
    attr_sum: float = 0.0

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.spans += other.spans
        self.self_ns += other.self_ns
        self.total_ns += other.total_ns
        self.attr_sum += other.attr_sum


def aggregate(spans: List[Sequence]) -> Dict[str, LayerStats]:
    """Per-name statistics.  ``calls`` counts spans whose parent has a
    different name, so a layer entered through two wrapped functions
    (``build_workload`` calling ``WorkloadSpec.build``) counts once."""
    names = {s[0]: s[2] for s in spans}
    selfs = self_times(spans)
    out: Dict[str, LayerStats] = {}
    for s, own in zip(spans, selfs):
        st = out.setdefault(s[2], LayerStats())
        st.spans += 1
        st.self_ns += own
        if names.get(s[1]) != s[2]:
            st.calls += 1
            st.total_ns += s[4] - s[3]
        if s[7] is not None:
            st.attr_sum += s[7]
    return out


def merge(into: Dict[str, LayerStats], more: Dict[str, LayerStats]) -> None:
    for name, st in more.items():
        into.setdefault(name, LayerStats()).add(st)


def family(stats: Dict[str, LayerStats], prefix: str) -> LayerStats:
    """Sum of every span name equal to ``prefix`` or below it."""
    acc = LayerStats()
    for name, st in stats.items():
        if name == prefix or name.startswith(prefix + "."):
            acc.add(st)
    return acc
