"""Cooperative cancellation: one token, checked everywhere.

A :class:`CancelToken` is a thread-safe latch with a reason.  SIGINT /
SIGTERM handlers (installed by the CLI around ``run-all`` via
:func:`install_signal_handlers`) set it; the pipeline checks it between
experiments and waves, and the
:class:`~repro.supervise.observer.SupervisionObserver` checks it at
engine step boundaries, raising :class:`CancelledRun`.  The pipeline
translates that into a drain: in-flight work finishes (or is harvested
from the pool), partial state is checkpointed and written, and the run
exits with a valid, resumable manifest instead of a traceback.

A second signal while a cancellation is already draining falls back to
the previous handler (normally: die immediately) — the escape hatch
when the drain itself wedges.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable, List, Optional, Tuple

__all__ = [
    "CancelToken",
    "CancelledRun",
    "install_signal_handlers",
]


class CancelledRun(RuntimeError):
    """The run was cancelled (signal, keyboard interrupt, or budget).

    Deliberately *not* a :class:`KeyboardInterrupt` subclass: the
    pipeline's failure boundary must be able to catch it, persist
    partial state, and convert it into manifest provenance.
    """


class CancelToken:
    """A latch that flips exactly once, with a reason.

    ``cancel`` is async-signal-safe enough for a Python signal handler
    (an ``Event.set`` plus one attribute write); everything else is for
    the cooperative checkpoints.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (first reason wins; later calls no-op)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        """Why the token fired (None while untripped)."""
        return self._reason if self._event.is_set() else None

    def reset(self) -> None:
        """Re-arm the token (tests and long-lived embedders only)."""
        self._event.clear()
        self._reason = None

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise CancelledRun(self._reason or "cancelled")


def install_signal_handlers(
    token: CancelToken,
    signals: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
    on_cancel: Optional[Callable[[str], None]] = None,
) -> Callable[[], None]:
    """Route SIGINT/SIGTERM into ``token``; return a restore callable.

    The first signal cancels the token (reason ``signal:SIGINT`` etc.)
    and lets the run drain; the moment it fires, the previous handlers
    are restored so a *second* signal behaves as if supervision were
    never installed (for SIGINT that means ``KeyboardInterrupt`` — the
    documented "I really mean it" escape from a wedged drain).

    Only the main thread of the main interpreter may install signal
    handlers; callers in other threads get a no-op restore.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    previous: List[Tuple[int, object]] = []

    def restore() -> None:
        while previous:
            signum, handler = previous.pop()
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass

    def handler(signum: int, frame: object) -> None:
        reason = f"signal:{signal.Signals(signum).name}"
        restore()  # second signal = previous (default) behaviour
        token.cancel(reason)
        if on_cancel is not None:
            on_cancel(reason)

    for signum in signals:
        try:
            previous.append((signum, signal.signal(signum, handler)))
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    return restore
