"""The package's public names, the import boundaries between its pipelines, and what a cold request imports."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qhurwitz

SOURCES = Path(qhurwitz.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCES.glob("*.py"))}

#: Sibling modules a pipeline module may not import from.  The package root
#: re-exports every pipeline, so importing from it crosses every boundary.
FORBIDDEN = {
    "combinatorial": {"tau", "geometric", "__init__"},
    "geometric": {"tau", "combinatorial", "__init__"},
}

#: The one name the geometric pipeline reads from characters: not the spectral
#: layer (spectral_sum, content lists, cost) the other two pipelines share.
GEOMETRIC_FROM_CHARACTERS = {"character_table"}


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(qhurwitz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(qhurwitz.__all__) == len(set(qhurwitz.__all__))
    assert set(qhurwitz.__all__) == public


def package_imports(tree) -> dict[str, set]:
    """Sibling module -> names imported from it; None stands for the module itself."""
    imported: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "qhurwitz":
                    imported.setdefault(module or "__init__", set()).add(None)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                package, _, module = (node.module or "").partition(".")
                if package != "qhurwitz":
                    continue
            else:
                module = node.module or ""
            for alias in node.names:
                if not module and alias.name in MODULES:
                    imported.setdefault(alias.name, set()).add(None)
                else:
                    imported.setdefault(module or "__init__", set()).add(alias.name)
    return imported


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_a_function(module):
    nested = {
        (function.name, node.lineno)
        for function in ast.walk(MODULES[module])
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not nested, f"{module}.py imports inside functions: {sorted(nested)}"


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_pipeline_imports_no_other_pipeline(module):
    imported = package_imports(MODULES[module])
    assert "characters" in imported, "the import walk found no sibling import"
    crossing = sorted(set(imported) & FORBIDDEN[module])
    assert crossing == [], f"{module}.py imports from {crossing}"


def test_geometric_reads_only_the_character_table():
    names = package_imports(MODULES["geometric"])["characters"]
    assert names == GEOMETRIC_FROM_CHARACTERS


def absolute_imports(tree) -> set:
    """Top-level names of the absolute imports of a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add((node.module or "").partition(".")[0])
    return names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_dataclasses_import(module):
    # dataclasses pulls in inspect, ast, dis and tokenize: milliseconds of
    # every request's start.
    assert "dataclasses" not in absolute_imports(MODULES[module])


def test_cold_request_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter without site, as close to a bare CLI request as a
    # test gets: import the CLI and serve the smallest request.  The CLI
    # writes its CSV text itself, so csv is not loaded either.
    script = (
        "import sys\n"
        "import qhurwitz.cli\n"
        "qhurwitz.cli.main(['chartable', '--n', '1'])\n"
        "print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCES.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
