"""Runtime verification: the simulator's physics as an enforced contract.

Every run of the :class:`~repro.sim.engine.Engine` obeys conservation
laws the paper's counter arithmetic rests on — hits + misses close,
stall cycles never exceed total cycles, simulated time only advances,
the bus never carries more than its capacity, the contention fixed
point actually converged.  The byte-identity goldens catch *drift* from
those laws but not latent wrongness shared with the golden; this
package checks the laws themselves, at runtime, on every audited run.

The auditor is an ordinary :class:`~repro.sim.observer.SimObserver`
(:class:`InvariantAuditor`), attached automatically by the engine when
verification is enabled.  Enablement mirrors the fault-injection
harness (:mod:`repro.testing.faults`):

* programmatically — ``RunContext(verify=True/False)`` on the active
  context (:mod:`repro.core.context`, which pool workers receive);
* from the environment — ``REPRO_VERIFY=1`` / ``REPRO_VERIFY=0``
  (what the CI drill uses; forked pool workers inherit it);
* by default **under pytest** — when neither the context nor the
  environment decides, the auditor is on whenever pytest is driving
  (``PYTEST_CURRENT_TEST`` is set), so the whole test suite doubles as
  a physics audit at negligible cost.

A violated invariant raises :class:`InvariantViolation` with full
provenance — check name, step index, phase, program, hardware context,
and the offending values — so a broken resolver is caught at the first
incoherent step, not as a mysteriously wrong artifact.

``repro verify`` runs the auditor over the full experiment matrix (see
:mod:`repro.cli`); ``docs/TESTING.md`` documents the taxonomy.
"""

from __future__ import annotations

import os

from repro.verify.auditor import (  # noqa: F401  (re-exports)
    AuditStats,
    InvariantAuditor,
    InvariantViolation,
    reset_stats,
    stats,
)

__all__ = [
    "VERIFY_ENV",
    "AuditStats",
    "InvariantAuditor",
    "InvariantViolation",
    "enabled",
    "stats",
    "reset_stats",
]

VERIFY_ENV = "REPRO_VERIFY"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def enabled() -> bool:
    """Is the invariant auditor attached to engine runs right now?"""
    from repro.core.context import current

    ctx = current()
    if ctx is not None and ctx.verify is not None:
        return ctx.verify
    env = os.environ.get(VERIFY_ENV, "").strip().lower()
    if env in _TRUTHY:
        return True
    if env in _FALSY:
        return False
    # Default: audit whenever pytest is driving the process.
    return "PYTEST_CURRENT_TEST" in os.environ


# :class:`AuditStats` and the process-wide :func:`stats` /
# :func:`reset_stats` accounting live in :mod:`repro.verify.auditor`
# (the auditor increments them at check time) and are re-exported here.
