"""Host-speed calibration for CPU-bound wall times.

A shared host runs the benchmark at a speed that drifts by tens of
percent within seconds and over minutes, as neighbours come and go.  A
wall time alone then measures the neighbours as much as the program.
The calibration :func:`chunk` is a fixed slice of interpreter and NumPy
work that belongs to the benchmark, not to the program under test.  A
:class:`Sampler` thread in the benchmark process times one chunk every
:data:`PERIOD_S` while the program runs in its child process, and each
CPU-bound time is reported scaled to the reference host's speed::

    normalized = raw * (REF_CHUNK_MS / typical chunk time during raw) ** SLOPE

A change to the program moves ``raw`` and not the chunk, so it moves the
normalized time by the same share; a slower host moves both and cancels
(to the extent :data:`SLOPE` matches the program's own sensitivity).
Raw times are printed and saved beside the normalized ones.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

import numpy as np

#: Typical :func:`chunk` time on the reference host (2-core Xeon) while a
#: workload runs beside the sampler, ms.
REF_CHUNK_MS = 0.28
#: Pause between two chunks; the sampler keeps ~3% of one core busy.
PERIOD_S = 0.01
#: A window with fewer samples borrows the nearest ones outside it.
MIN_SAMPLES = 9
#: Share of a window's chunks, fastest first, that :func:`typical` keeps.
KEEP = 0.9
#: How steeply the program's times follow the chunk's: on the reference
#: host a slow spell stretches the chunk more than the program (the
#: chunk is all interpreter loop), and over runs of the same code the
#: program's log-time moved ~0.8 times as far as the chunk's; with 1.0
#: the scaled times still fell as the host slowed.
SLOPE = 0.8

_TABLE = {i: float(i) * 0.5 for i in range(1024)}
_VEC = np.linspace(0.5, 1.5, 128)


def chunk() -> float:
    """One calibration unit: dictionary reads, float arithmetic and
    small-array NumPy calls, the operation mix of the simulator."""
    acc = 0.0
    for i in range(1200):
        acc += _TABLE[(i * 37) & 1023] * 1.0001 + (i % 7) / 3.0
    vec = _VEC
    for _ in range(36):
        vec = np.minimum(vec * 1.0001 + 0.25, 4.0)
        acc += float(vec.sum())
    return acc


def typical(values: List[float]) -> float:
    """Mean of the fastest :data:`KEEP` of ``values``: it follows a host
    whose speed switches between states within the window, as a median
    would not, and drops the chunks the sampler itself lost the CPU in."""
    ordered = sorted(values)
    kept = ordered[:max(1, int(len(ordered) * KEEP))]
    return sum(kept) / len(kept)


class Sampler:
    """Times a chunk every :data:`PERIOD_S` on a background thread while
    the ``with`` block runs; the block's own thread should be waiting on
    a child process."""

    def __init__(self) -> None:
        #: ``(midpoint on the perf_counter clock, chunk ms)``.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            chunk()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2.0, (t1 - t0) * 1e3))

    def factor(self, t0: float, t1: float) -> float:
        """What a raw time measured from ``t0`` to ``t1`` (perf_counter
        clock, which child processes share on Linux) is multiplied by:
        ``REF_CHUNK_MS`` over the :func:`typical` chunk time in that
        window, to the power :data:`SLOPE`."""
        if not self.samples:
            raise ValueError("no calibration samples")
        inside = [ms for t, ms in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2.0
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [ms for _, ms in nearest[:MIN_SAMPLES]]
        return (REF_CHUNK_MS / typical(inside)) ** SLOPE

    def host_speed(self) -> float:
        """``REF_CHUNK_MS`` over the :func:`typical` chunk time of every
        sample: the run's speed relative to the reference host."""
        return REF_CHUNK_MS / typical([ms for _, ms in self.samples])
