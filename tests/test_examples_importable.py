"""Smoke checks: every example script parses, imports, and exposes main.

Full example runs take minutes; the fast guarantee here is that each
script stays syntactically valid and its imports resolve against the
current API (the usual way examples rot).
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLE_FILES}
    assert {
        "quickstart",
        "bert_finetune",
        "lammps_melt",
        "speedup_sweep",
        "breakdown_report",
    } <= names


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_parses(path):
    tree = ast.parse(path.read_text())
    # every example is runnable as a script
    has_main_guard = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body
    )
    assert has_main_guard, f"{path.stem} lacks a __main__ guard"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_resolve(path, monkeypatch):
    """Import the module without executing main()."""
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)  # top level only; main() not called
    assert hasattr(module, "main") or hasattr(module, "part1_functional")


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_has_docstring(path):
    tree = ast.parse(path.read_text())
    doc = ast.get_docstring(tree)
    assert doc and len(doc) > 40, f"{path.stem} needs a real docstring"
