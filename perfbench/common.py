"""Shared plumbing: checkout paths, pinned child environments, the
percentile rule, peak memory and the host fingerprint."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for temporary state, traces and results (git-ignored).
WORK = ROOT / ".perfbench"

#: Percentiles tried, highest first, by :func:`summarize`.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: What every child process of the benchmark sees: the production
#: defaults (auditor off, batch ``auto``, one job), never the caller's.
PINNED = {"verify": False, "batch": "auto", "jobs": 1}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program under {SRC}: nothing to benchmark")
    if not (ROOT / "results" / "fig3.json").is_file():
        raise SetupError("no committed results/ to check outputs against")


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under the checkout's scratch space."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK / "tmp"))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment for a program under test: no inherited ``REPRO_*``,
    ``PYTEST_*`` or ``PYTHON*`` variables, temporary files under ``tmp``,
    and the checkout's sources (plus the benchmark package) importable."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PYTEST_", "PYTHON"))
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(tmp)
    return env


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it, or None when even p75 has too few."""
    for pct in PERCENTILE_LADDER:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the tail percentile the sample count supports, and the
    count — the compact form every timing is reported in."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples to summarize")
    pct = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 50.0),
        "tail_pct": pct,
        "tail": None if pct is None else percentile(ordered, pct),
        "max": ordered[-1],
    }


def tail_of(summary: Dict[str, Optional[float]], stem: str
            ) -> Tuple[str, float]:
    """``(name, value)`` of a summary's tail: ``<stem>_p<pct>``, or
    ``<stem>_max`` when too few samples support any percentile."""
    if summary["tail_pct"] is None:
        return f"{stem}_max", summary["max"]
    return f"{stem}_p{summary['tail_pct']:g}", summary["tail"]


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 50.0)


def vm_hwm_mib(pid: int) -> Optional[float]:
    """Peak resident set of a live process, from ``/proc`` (Linux)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """Content hash of the program's sources: identifies the code under
    test even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint() -> Dict[str, object]:
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
        "pinned": dict(PINNED),
    }


def python_cmd(*args: str) -> List[str]:
    """A command line running this interpreter."""
    return [sys.executable, *args]


#: No child may outlive this many seconds.
CHILD_TIMEOUT_S = 150.0


def spawn(cmd: List[str], env: Dict[str, str], **kwargs) -> subprocess.Popen:
    """Start a child in the checkout, killed if it outlives
    :data:`CHILD_TIMEOUT_S`."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, **kwargs)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    proc.timer = timer  # type: ignore[attr-defined]
    return proc


def finish(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> int:
    """Wait for a child (killing it past ``timeout``); its exit code."""
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        rc = proc.wait()
    proc.timer.cancel()  # type: ignore[attr-defined]
    if proc.stdout is not None:
        proc.stdout.close()
    return rc


def run_timed(cmd: List[str], env: Dict[str, str]) -> Tuple[int, float, str]:
    """Run a child to completion, stdout discarded; returns its exit
    code, wall time from start to exit, and the tail of its stderr."""
    t0 = time.perf_counter()
    proc = spawn(cmd, env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                 text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    took = time.perf_counter() - t0
    proc.timer.cancel()  # type: ignore[attr-defined]
    return proc.returncode, took, (err or "")[-2000:]


def spawn_until(cmd: List[str], env: Dict[str, str], marker: str
                ) -> Tuple[subprocess.Popen, float, str]:
    """Start a child and block until it prints a stdout line starting
    with ``marker``; returns the child, the seconds that took and the
    line.  Raises RuntimeError when the child exits first."""
    t0 = time.perf_counter()
    proc = spawn(cmd, env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    for line in proc.stdout:
        if line.startswith(marker):
            return proc, time.perf_counter() - t0, line.strip()
    rc = finish(proc)
    raise RuntimeError(f"{' '.join(cmd[:4])}... exited {rc} before {marker!r}")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: The workload's named end-to-end metrics for the report:
    #: ``(name, value, unit, sample count, note)``.
    named: List[Tuple[str, float, str, int, str]] = field(default_factory=list)
    #: The BENCHMARK.json end-to-end metrics, by name.
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness checks: name -> passed.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Report lines: per-layer tables, notes.
    lines: List[str] = field(default_factory=list)
    #: Compact extra facts kept in the saved result.
    facts: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())
