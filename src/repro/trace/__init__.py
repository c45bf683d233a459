"""Workload characterization primitives.

A benchmark phase is described by an :class:`~repro.trace.phase.Phase`
(instruction volume, instruction mix, branch behaviour, code footprint)
plus an :class:`~repro.trace.patterns.AccessMix` — a weighted mixture of
memory access patterns.  Every pattern supports two consistent views:

* an **analytic** miss-rate model (``miss_rate(capacity, line)``) used by
  the fast phase-level simulator, and
* a **generator** of concrete address streams (``gen_addresses``) consumed
  by the structural set-associative cache simulator.

Tests cross-validate the two views against each other.
"""

from repro import _lazy_exports

#: Public name -> the module that defines it, imported on first access:
#: the address-stream sampler (and numpy) loads only when used.
_EXPORTS = {
    "AccessPattern": "repro.trace.patterns",
    "StreamingPattern": "repro.trace.patterns",
    "RandomPattern": "repro.trace.patterns",
    "PointerChasePattern": "repro.trace.patterns",
    "StencilPattern": "repro.trace.patterns",
    "AccessMix": "repro.trace.patterns",
    "effective_capacity": "repro.trace.patterns",
    "sharing_discount": "repro.trace.patterns",
    "loop_thrash_miss_rate": "repro.trace.patterns",
    "Phase": "repro.trace.phase",
    "Workload": "repro.trace.phase",
    "SampledStream": "repro.trace.sampling",
    "sample_mix": "repro.trace.sampling",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
