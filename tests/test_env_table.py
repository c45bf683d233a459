"""Drift guard: every ``REPRO_*`` variable the package reads is
documented in the README's environment table, and nothing else is.

A new variable therefore needs a row naming the user need it serves;
a removed one takes its row with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z_]+")


def _source_names():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _readme_rows():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", text, re.MULTILINE))


def test_readme_env_table_matches_source():
    assert _source_names() == _readme_rows()
