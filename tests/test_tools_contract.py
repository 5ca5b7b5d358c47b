"""The names the scripts under tools/ import from the package must exist.

Nothing runs those scripts, and they import private helpers such as
geometric._matrix, so a renamed helper would go unnoticed by every other
test.  Each script is parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _imports():
    """(script, module, name) for every name a tools/ script imports from qhurwitz."""
    found = []
    for path in sorted(TOOLS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qhurwitz":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


IMPORTS = _imports()


def test_the_private_helpers_are_among_the_imports():
    names = {name for script, _, name in IMPORTS if script == "geometric_cost_times.py"}
    assert {"_character_sums", "_colength_characters", "_geometric_cost", "_matrix",
            "_species_eigenvalues"} <= names


@pytest.mark.parametrize("script, module, name", IMPORTS)
def test_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script}: from {module} import {name}"
