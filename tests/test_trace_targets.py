"""The perfbench tracer's targets still exist in ``src/``.

:mod:`perfbench.trace` wraps the functions its ``WRAPS`` table names by
import path, and reads a class target from that class's own
``__dict__``.  A refactor that renames, moves or inherits one of them
would make ``install()`` raise or silently zero a per-layer metric, so
this only reads the table and checks every target against the code.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import trace  # noqa: E402


@pytest.mark.parametrize(
    "wrap", trace.WRAPS, ids=[w.target for w in trace.WRAPS]
)
def test_wrap_target_resolves_on_its_owner(wrap):
    owner, attr = trace._resolve(wrap.target)
    if isinstance(owner, type):
        assert attr in owner.__dict__, (
            f"{wrap.target}: {attr} is inherited, not defined on "
            f"{owner.__name__}"
        )
    assert callable(getattr(owner, attr))
