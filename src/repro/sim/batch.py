"""Placeholders for the removed machine-axis batched engine.

Every run goes through the scalar :class:`~repro.sim.engine.Engine`.
The batched engine that used to live here is gone: once the run cache
is on, as it always is in ``run-all`` and ``serve``, sweeps ran no
faster through it (DESIGN.md section 8).

``perfbench/trace.py`` still names these attributes by import path
(its ``WRAPS`` table, and ``PRELOAD`` imports this module), and the
benchmark's files change only in a benchmark PR.  The stubs keep those
targets resolvable and raise if called; they go with ROADMAP item 1's
benchmark half, when the tracer reads native spans instead.
"""

from __future__ import annotations

from typing import Any, NoReturn

__all__ = ["BatchedFixedPointResolver", "run_batched_single"]

_REMOVED = "the machine-axis batched engine was removed; use Engine.run"


class BatchedFixedPointResolver:
    """Trace-target stub (see the module docstring)."""

    def resolve_classes(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise NotImplementedError(_REMOVED)


def run_batched_single(*args: Any, **kwargs: Any) -> NoReturn:
    """Trace-target stub (see the module docstring)."""
    raise NotImplementedError(_REMOVED)
