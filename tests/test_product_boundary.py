"""Boundary guard: ``src/repro`` ships only what the product runs.

The product is the CLI (``run-all``, ``verify``, ``serve`` and the
query commands) and the package's public API.  Code that only tests
read belongs under ``tests/`` (reference implementations under
``tests/oracles/``), so it cannot rot unnoticed inside the package or
drag a test-only dependency into a plain install.

Two checks, both from source alone:

* an AST scan of the import graph from ``repro``, ``repro.cli`` and
  ``repro.__main__``: every module under ``src/repro`` is reachable or
  on :data:`ALLOWED_UNREACHABLE` with its reason.  Edges are ``import``
  statements and string constants naming a ``repro.*`` module (the
  experiment registry loads drivers through
  ``importlib.import_module(entry.module)``);
* every module imports in a fresh interpreter that refuses the
  test-only packages, as from ``pip install .`` with only ``numpy``.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOTS = ("repro", "repro.cli", "repro.__main__")

#: Modules the product never imports, each kept for a stated reason.
ALLOWED_UNREACHABLE = {
    "repro.sim.batch": (
        "raising stubs for the deleted batched engine; perfbench/trace.py "
        "WRAPS and PRELOAD name them until the benchmark is revised"
    ),
    "repro.sim.trials": (
        "perfbench/trace.py PRELOAD names it until the benchmark is revised"
    ),
}

#: Packages a plain install does not have.
TEST_ONLY_PACKAGES = ("hypothesis", "pytest", "scipy")


def _modules():
    """Map each module name under ``src/repro`` to its parsed source."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules[".".join(parts)] = (tree, path.name == "__init__.py")
    return modules


def _package_chain(name):
    """``a``, ``a.b``, ``a.b.c``: importing a module runs its packages too."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _edges(name, tree, is_package, known):
    package = name if is_package else name.rpartition(".")[0]
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.append(base)
            targets.extend(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            targets.append(node.value)
    return {
        step
        for target in targets
        for step in _package_chain(target)
        if step in known
    }


def _reachable(modules):
    seen, todo = set(), list(ROOTS)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree, is_package = modules[name]
        todo.extend(_edges(name, tree, is_package, modules) - seen)
    return seen


def test_every_src_module_is_reachable_or_allowed():
    modules = _modules()
    unreachable = set(modules) - _reachable(modules)
    stray = sorted(unreachable - set(ALLOWED_UNREACHABLE))
    assert not stray, f"not reachable from the product: {stray}"
    # An entry that became reachable (or was deleted) leaves the list.
    stale = sorted(set(ALLOWED_UNREACHABLE) - unreachable)
    assert not stale, f"allow-listed but reachable or gone: {stale}"


_PLAIN_INSTALL = textwrap.dedent(
    """
    import importlib, importlib.abc, pkgutil, sys

    BLOCKED = set(sys.argv[1:])

    class Refuse(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in BLOCKED:
                raise ModuleNotFoundError(f"No module named {name!r}")
            return None

    sys.meta_path.insert(0, Refuse())
    import repro

    failed = []
    def note(name):
        failed.append(f"{name}: {sys.exc_info()[1]!r}")

    for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=note):
        try:
            importlib.import_module(info.name)
        except Exception as exc:
            failed.append(f"{info.name}: {exc!r}")
    print("\\n".join(failed))
    """
)


def test_every_src_module_imports_without_test_only_packages():
    proc = subprocess.run(
        [sys.executable, "-c", _PLAIN_INSTALL, *TEST_ONLY_PACKAGES],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", proc.stdout
