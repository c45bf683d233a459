"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness behind the robustness test suite and the CI fault drill; it is
importable from production code (the hooks are no-ops unless a plan is
active) but never activates itself.
"""

from repro.testing.faults import (  # noqa: F401
    FaultPlan,
    InjectedFault,
    active_plan,
    parse_plan,
)

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "parse_plan",
]
