"""Start-up bound: the query commands import neither numpy nor the engine.

``import repro`` re-exports its public names lazily (PEP 562), and the
CLI imports each command's modules inside that command.  So ``repro
--help``, ``list``, ``machines`` and ``workloads`` start on a plain
interpreter, and only ``run``, ``run-all``, ``speedup``, ``verify`` and
``serve`` pay for the simulator.  Each probe runs ``python -m repro``
in a fresh interpreter and reports what ``sys.modules`` then holds.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Modules (and packages, with everything under them) a query command
#: must not import.
FORBIDDEN = (
    "numpy",
    "multiprocessing",
    "repro.sim.engine",
    "repro.verify.auditor",
    "repro.serve",
)

_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, runpy, sys

    argv = sys.argv[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        if argv == ["import"]:
            import repro
            code = 0
        else:
            sys.argv = ["repro", *argv]
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as exc:  # __main__ always exits
                code = exc.code
    print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
    """
)


def _run(script, *args):
    """Run *script* in a fresh interpreter; its JSON report."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ["import"],
        ["--help"],
        ["list"],
        ["machines"],
        ["machines", "paxville"],
        ["workloads"],
        ["workloads", "cg"],
    ],
    ids=" ".join,
)
def test_query_command_imports_neither_numpy_nor_the_engine(argv):
    report = _run(_PROBE, *argv)
    assert report["code"] == 0
    loaded = [
        m for m in report["modules"]
        if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    ]
    assert loaded == [], f"{' '.join(argv)} imported {loaded}"


_EXPORTS_PROBE = textwrap.dedent(
    """
    import importlib, json, sys

    package = importlib.import_module(sys.argv[1])
    listed = dir(package)  # before any name is resolved
    print(json.dumps({
        "all": package.__all__,
        "unlisted": [n for n in package.__all__ if n not in listed],
        "unresolved": [n for n in package.__all__
                       if getattr(package, n, None) is None],
        "unknown_raises": not hasattr(package, "no_such_name"),
    }))
    """
)


@pytest.mark.parametrize("package", ["repro", "repro.sim", "repro.trace"])
def test_every_lazy_export_resolves_and_is_listed(package):
    report = _run(_EXPORTS_PROBE, package)
    assert report["all"]
    assert report["unlisted"] == []
    assert report["unresolved"] == []
    assert report["unknown_raises"]
