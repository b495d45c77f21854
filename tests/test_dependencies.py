"""Quality gate: ``pyproject.toml`` declares exactly what ``src/`` imports.

Every third-party package imported anywhere in ``src/repro`` (lazy
imports inside functions included) must be a declared dependency, and
every declared dependency must be imported somewhere, so an install
neither breaks on a missing package nor pulls in a dead one.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"


def _third_party_imports() -> dict[str, str]:
    """Top-level name of every absolute non-stdlib import outside
    ``repro`` -> one file importing it."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def _declared() -> set[str]:
    """Import names of ``[project] dependencies`` (``a-b`` imports as
    ``a_b``)."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }


def test_every_third_party_import_is_declared():
    declared = _declared()
    undeclared = {
        name: where
        for name, where in _third_party_imports().items()
        if name.lower() not in declared
    }
    assert not undeclared, f"imported but not declared: {undeclared}"


def test_every_declared_dependency_is_imported():
    imported = {name.lower() for name in _third_party_imports()}
    unused = _declared() - imported
    assert not unused, f"declared but never imported: {sorted(unused)}"
