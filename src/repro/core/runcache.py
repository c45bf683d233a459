"""Cross-study run cache: content-addressed memoization of simulation runs.

A :class:`~repro.core.study.Study` used to memoize runs per instance, so
two studies built with identical inputs — which happens constantly in the
sensitivity sweeps, where only *one* parameter of a perturbed pair
actually changes per direction — re-simulated everything from scratch.
This module promotes the memo to a process-wide cache keyed by a
*fingerprint* of everything that determines a run's result:

* the machine parameters (full nested dataclass contents),
* the NAS problem class,
* the scheduler policy name,
* the OpenMP environment,
* and the per-run key (benchmark/config, or pair, plus any thread-count
  or workload-scale variant).

:func:`memo` is the one get/compute/put path; the experiments' other
deterministic measurements (structural replays, the LMbench sweep) go
through it too, fingerprinted with :func:`content_fingerprint`.

Fingerprints are SHA-256 over stable ``repr`` forms, so equality is by
content, not identity: any two studies configured the same share results.

Tiers:

* **memory** — a dict, always on (unless disabled); unbounded unless
  ``max_memory_entries`` is set, as the serve daemon does, in which case
  the least recently used entries leave it;
* **disk** — optional, under a directory (``results/.cache`` for the
  CLI's ``run-all``); entries are atomically-written pickle files named
  by fingerprint, so concurrent writers (the parallel sweep runner's
  workers) cannot corrupt each other.

Control knobs: ``REPRO_NO_CACHE=1`` disables both tiers globally;
``REPRO_CACHE_DIR=<path>`` enables the disk tier by default.  Both are
overridable programmatically via :func:`configure`.

**Disk-entry integrity.**  Each disk entry is an *envelope* stamping
the value's pickle bytes with the entry schema, the package version,
and a SHA-256 of the payload.  On load all three are verified before
the payload is deserialized; any mismatch — a torn write, bit rot, an
entry from an older package whose class layouts have since changed, or
a pre-envelope legacy file — moves the entry to
``<disk_dir>/quarantine/`` and counts in ``CacheStats.quarantined``
instead of crashing (stale pickles used to raise ``AttributeError`` /
``ModuleNotFoundError`` straight through ``run-all``) or silently
deserializing a stale layout.

**Supervision (PR 9).**  Transient read ``OSError`` is retried with
bounded deterministic backoff (``CacheStats.read_retries``); repeated
failures open the ``cache-read`` circuit breaker and the instance
degrades to memory-only for the rest of the process.  The quarantine
directory is bounded by :data:`QUARANTINE_MAX_ENTRIES` /
:data:`QUARANTINE_MAX_AGE_S` (evictions in ``CacheStats.evicted``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.testing import faults

__all__ = [
    "CACHE_ENTRY_SCHEMA",
    "CacheStats",
    "QUARANTINE_DIR",
    "QUARANTINE_MAX_AGE_S",
    "QUARANTINE_MAX_ENTRIES",
    "RunCache",
    "configure",
    "content_fingerprint",
    "get_cache",
    "memo",
    "study_fingerprint",
]

NO_CACHE_ENV = "REPRO_NO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Disk-entry envelope schema, bumped whenever the on-disk layout of an
#: entry changes; entries with any other value are quarantined.
#: 2: finished results pickle their counter sets in the frozen
#: (schema + packed values) form.
CACHE_ENTRY_SCHEMA = 2

#: Magic marker distinguishing an envelope from a legacy raw pickle.
_ENVELOPE_MAGIC = "repro-runcache"

#: Subdirectory of ``disk_dir`` where bad entries are moved.
QUARANTINE_DIR = "quarantine"

#: Quarantine retention bounds.  Quarantined entries exist for *post
#: hoc* debugging, not forever: the directory would otherwise grow one
#: file per corrupt read for the life of the cache directory (a soak
#: loop injecting corruption fills a disk this way).  Oldest-first
#: eviction keeps at most this many files...
QUARANTINE_MAX_ENTRIES = 64

#: ...and nothing older than this (seconds; 7 days).
QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0

#: Sentinel distinguishing "not cached" from a cached None.
_MISS = object()


def _canon(obj: Any) -> str:
    """Stable text form of one fingerprint part: dataclasses by field
    *values* (``dataclasses.asdict``), strings as themselves, anything
    else by ``repr``."""
    if obj is None:
        return "None"
    if type(obj) is str:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return f"{type(obj).__name__}:{dataclasses.asdict(obj)!r}"
    return repr(obj)


def content_fingerprint(*parts: Any) -> str:
    """SHA-256 content fingerprint of an ordered list of parts."""
    payload = "\x1f".join(_canon(p) for p in parts)
    return hashlib.sha256(payload.encode()).hexdigest()


def study_fingerprint(
    problem_class: Any,
    params: Any,
    scheduler_name: str,
    omp: Any,
) -> str:
    """Content fingerprint of a study configuration.

    ``params`` may be None (platform default) or a (possibly nested)
    frozen dataclass; ``omp`` likewise.  Dataclasses are serialized via
    ``dataclasses.asdict`` so field *values* — not object identity —
    drive the hash.
    """
    return content_fingerprint(problem_class, params, scheduler_name, omp)


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    #: Disk entries rejected by the integrity check and moved aside
    #: (each also counts as a miss — the caller recomputes).
    quarantined: int = 0
    #: Transient-``OSError`` disk reads retried with backoff.
    read_retries: int = 0
    #: Quarantined files deleted by the retention policy (count/age).
    evicted: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """An immutable copy of the current counters."""
        return CacheStats(
            self.memory_hits, self.disk_hits, self.misses,
            self.quarantined, self.read_retries, self.evicted,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier snapshot (the pipeline
        attributes hits/misses to individual experiments this way)."""
        return CacheStats(
            memory_hits=self.memory_hits - earlier.memory_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            misses=self.misses - earlier.misses,
            quarantined=self.quarantined - earlier.quarantined,
            read_retries=self.read_retries - earlier.read_retries,
            evicted=self.evicted - earlier.evicted,
        )

    def as_dict(self) -> Dict[str, Any]:
        """Counters plus derived rates, for manifests and reports."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "read_retries": self.read_retries,
            "evicted": self.evicted,
            "hits": self.hits,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


class RunCache:
    """Two-tier (memory + optional disk) content-addressed result cache."""

    def __init__(
        self,
        disk_dir: Optional[Path] = None,
        enabled: bool = True,
        max_memory_entries: Optional[int] = None,
    ):
        #: Memory tier, least recently used first.
        self._mem: Dict[str, Any] = {}
        self._mem_lock = threading.Lock()
        #: Memory-tier bound (None: unbounded).  Past it the least
        #: recently used entry leaves memory; a disk tier still has it.
        self.max_memory_entries = max_memory_entries
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.enabled = enabled
        self.stats = CacheStats()
        #: Set when the cache-read circuit breaker opens: the disk tier
        #: is skipped (reads *and* writes) for the life of the instance.
        self.memory_only_reason: Optional[str] = None

    # ------------------------------------------------------------------
    def _entry_key(self, study_fp: str, run_key: Tuple[Any, ...]) -> str:
        return hashlib.sha256(
            f"{study_fp}\x1f{run_key!r}".encode()
        ).hexdigest()

    def _disk_path(self, entry_key: str) -> Optional[Path]:
        if self.disk_dir is None or self.memory_only_reason is not None:
            return None
        return self.disk_dir / f"{entry_key}.pkl"

    # ------------------------------------------------------------------
    def get(self, study_fp: str, run_key: Tuple[Any, ...]) -> Any:
        """Return the cached value, or the module-level miss sentinel."""
        if not self.enabled:
            return _MISS
        entry_key = self._entry_key(study_fp, run_key)
        with self._mem_lock:
            value = self._mem.pop(entry_key, _MISS)
            if value is not _MISS:
                self._mem[entry_key] = value  # now most recently used
        if value is not _MISS:
            self.stats.memory_hits += 1
            return value
        path = self._disk_path(entry_key)
        if path is not None and path.exists():
            value = self._disk_load(path)
            if not RunCache.is_miss(value):
                self._remember(entry_key, value)
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return _MISS

    def _disk_load(self, path: Path) -> Any:
        """Verify and deserialize one disk entry (miss sentinel on any
        problem; bad *content* is quarantined, bad *IO* is just a miss).

        ``OSError`` from the read is treated as transient: retried a
        bounded number of times with deterministic backoff, then — still
        a miss, the entry may be fine — counted against the
        ``cache-read`` circuit breaker.  When the breaker opens the
        whole instance degrades to memory-only (a campaign whose cache
        disk keeps erroring should stop paying retry latency per read).
        """
        from repro.supervise import backoff as _backoff

        def read_bytes() -> bytes:
            faults.maybe_slow_cache()
            faults.maybe_corrupt_cache_file(path)
            faults.maybe_raise_cache_io("read")
            return path.read_bytes()

        def note_retry(attempt: int, exc: BaseException) -> None:
            self.stats.read_retries += 1

        brk = _backoff.breaker("cache-read")
        try:
            raw = _backoff.BackoffPolicy().run(
                read_bytes, (OSError,), key=path.name, on_retry=note_retry
            )
        except OSError as exc:
            # Unreadable even after retries (permissions, persistent
            # IO trouble): the entry may be fine, so leave it in place
            # and recompute — but count the strike.
            if brk.record_failure(f"{type(exc).__name__}: {exc}"):
                self.memory_only_reason = (
                    f"cache-read breaker open ({brk.opened_reason})"
                )
            return _MISS
        brk.record_success()
        try:
            envelope = pickle.loads(raw)
        except Exception:
            # Garbage bytes raise anything from UnpicklingError to
            # AttributeError; none of it may escape a cache *read*.
            return self._quarantine(path, "undecodable envelope")
        if (
            not isinstance(envelope, dict)
            or envelope.get("magic") != _ENVELOPE_MAGIC
        ):
            return self._quarantine(path, "not an envelope (legacy entry)")
        if envelope.get("schema") != CACHE_ENTRY_SCHEMA:
            return self._quarantine(path, "entry-schema mismatch")
        if envelope.get("package_version") != _package_version():
            return self._quarantine(path, "package-version mismatch")
        payload = envelope.get("payload")
        if not isinstance(payload, bytes) or hashlib.sha256(
            payload
        ).hexdigest() != envelope.get("sha256"):
            return self._quarantine(path, "payload checksum mismatch")
        try:
            return pickle.loads(payload)
        except Exception:
            # Checksum passed but the class layout no longer exists
            # (same-version refactor): quarantine rather than crash with
            # AttributeError/ModuleNotFoundError mid run-all.
            return self._quarantine(path, "payload not deserializable")

    def _quarantine(self, path: Path, reason: str) -> Any:
        """Move a bad entry aside so it is never served *or* retried,
        count it, and report a miss to the caller."""
        dest_dir = path.parent / QUARANTINE_DIR
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.stats.quarantined += 1
        self._evict_quarantine(dest_dir)
        return _MISS

    def _evict_quarantine(self, dest_dir: Path) -> None:
        """Enforce the quarantine retention bounds (count + age).

        Best-effort: eviction must never turn a cache miss into a
        crash, so every filesystem error here is swallowed.
        """
        try:
            entries = sorted(
                (p for p in dest_dir.iterdir() if p.is_file()),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
        except OSError:
            return
        now = time.time()
        survivors = []
        for p in entries:
            try:
                expired = now - p.stat().st_mtime > QUARANTINE_MAX_AGE_S
            except OSError:
                continue
            if expired:
                self._evict_one(p)
            else:
                survivors.append(p)
        for p in survivors[: max(0, len(survivors) - QUARANTINE_MAX_ENTRIES)]:
            self._evict_one(p)

    def _evict_one(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        self.stats.evicted += 1

    def put(self, study_fp: str, run_key: Tuple[Any, ...], value: Any) -> None:
        if not self.enabled:
            return
        entry_key = self._entry_key(study_fp, run_key)
        self._remember(entry_key, value)
        path = self._disk_path(entry_key)
        if path is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            envelope = {
                "magic": _ENVELOPE_MAGIC,
                "schema": CACHE_ENTRY_SCHEMA,
                "package_version": _package_version(),
                "payload": payload,
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
            faults.maybe_raise_cache_io("write")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(
                        envelope, fh, protocol=pickle.HIGHEST_PROTOCOL
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # The disk tier is an accelerator, never a correctness
            # dependency: fall back silently to memory-only.
            pass

    def _remember(self, entry_key: str, value: Any) -> None:
        """Put into the memory tier, dropping the least recently used
        entries past the bound."""
        with self._mem_lock:
            self._mem.pop(entry_key, None)
            self._mem[entry_key] = value
            bound = self.max_memory_entries
            while bound is not None and len(self._mem) > bound:
                del self._mem[next(iter(self._mem))]

    @staticmethod
    def is_miss(value: Any) -> bool:
        return value is _MISS

    def clear(self, memory: bool = True, disk: bool = False) -> None:
        """Drop cached entries (memory tier by default)."""
        if memory:
            with self._mem_lock:
                self._mem.clear()
        if disk and self.disk_dir is not None and self.disk_dir.exists():
            for p in self.disk_dir.glob("*.pkl"):
                try:
                    p.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        return len(self._mem)


def _package_version() -> str:
    """The running package's version (stamped into disk entries)."""
    import repro

    return repro.__version__


_T = TypeVar("_T")


def memo(
    fingerprint: str, key: Tuple[Any, ...], compute: Callable[[], _T]
) -> _T:
    """The value cached under ``(fingerprint, key)`` in the process-wide
    cache; on a miss, ``compute()`` it and store it.

    The one memo path: study runs and the experiments' other
    deterministic measurements (structural replays, LMbench sweeps) all
    go through it, so ``--no-cache`` / ``REPRO_NO_CACHE`` switch every
    one of them off at once.
    """
    cache = get_cache()
    value = cache.get(fingerprint, key)
    if cache.is_miss(value):
        value = compute()
        cache.put(fingerprint, key, value)
    return value


# ----------------------------------------------------------------------
_global_cache: Optional[RunCache] = None


def _default_cache() -> RunCache:
    disabled = os.environ.get(NO_CACHE_ENV, "").strip() not in ("", "0")
    disk = os.environ.get(CACHE_DIR_ENV, "").strip() or None
    return RunCache(
        disk_dir=Path(disk) if disk else None, enabled=not disabled
    )


def get_cache() -> RunCache:
    """The process-wide shared run cache (created on first use from the
    ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` environment)."""
    global _global_cache
    if _global_cache is None:
        _global_cache = _default_cache()
    return _global_cache


def configure(
    disk_dir: Optional[os.PathLike] = None,
    enabled: Optional[bool] = None,
    reset: bool = False,
) -> RunCache:
    """Reconfigure the process-wide cache; returns it.

    Args:
        disk_dir: enable the on-disk tier under this directory (None
            leaves the current setting; pass ``reset=True`` to rebuild
            from the environment).
        enabled: switch caching on/off.
        reset: discard the current instance (and its memory tier) first.
    """
    global _global_cache
    if reset or _global_cache is None:
        _global_cache = _default_cache()
    if disk_dir is not None:
        _global_cache.disk_dir = Path(disk_dir)
    if enabled is not None:
        _global_cache.enabled = enabled
    return _global_cache
