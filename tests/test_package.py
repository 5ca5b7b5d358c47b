"""The package's public names, the import boundaries between its pipelines, and what a cold request runs."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qhurwitz
from test_readme_limits import code_block
from test_traced_contract import CACHES, TARGETS

SOURCES = Path(qhurwitz.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCES.glob("*.py"))}

#: Sibling modules a layer module may not import from.  The package root
#: re-exports every pipeline, so importing from it crosses every boundary.
#: The geometric leg stays clear of the spectral layer the other two share,
#: and the character tables of the spectral layer and the weights.
FORBIDDEN = {
    "combinatorial": {"tau", "geometric", "__init__"},
    "geometric": {"tau", "combinatorial", "spectral", "__init__"},
    "characters": {"spectral", "qweights", "series", "__init__"},
}

#: The one name the geometric pipeline reads from characters: not the spectral
#: layer (spectral_sum, content lists, cost) the other two pipelines share.
GEOMETRIC_FROM_CHARACTERS = {"character_table"}


def test_all_names_exactly_the_public_attributes():
    # The root reads its public names from their modules on access, so the
    # names are dir()'s, and each must resolve.
    public = {
        name
        for name in dir(qhurwitz)
        if not name.startswith("_") and not isinstance(getattr(qhurwitz, name), types.ModuleType)
    }
    assert len(qhurwitz.__all__) == len(set(qhurwitz.__all__))
    assert set(qhurwitz.__all__) == public


ORACLE = "oracle: a brute-force or reference computation that guards a pipeline"
PIPELINE = "pipeline helper: a value type, error, parser or scalar helper the pipelines or the CLI run"
PINNED = "pinned by bench/traced.py"

#: Every public name that README's Library sketch does not import, with the
#: reason it stays public.
UNDOCUMENTED_PUBLIC = {
    "BranchConfiguration": ORACLE,
    "CapacityError": PIPELINE,
    "CharacterTable": PIPELINE,
    "FAMILIES": PIPELINE,
    "HurwitzTable": PIPELINE,
    "Partition": PIPELINE,
    "PoleError": PIPELINE,
    "TransferMatrix": PIPELINE,
    "TriangleReport": PIPELINE,
    "TruncatedSeries": PIPELINE,
    "centralizer_order": PIPELINE,
    "check_partition": PIPELINE,
    "colength": PIPELINE,
    "content_product_coeffs": PINNED,
    "dimension": ORACLE,
    "enumerate_factorizations": ORACLE,
    "enumerate_partitions": PIPELINE,
    "format_partition": PIPELINE,
    "frobenius_hurwitz": PINNED,
    "hook_product": PIPELINE,
    "jucys_murphy_eigenvalue_check": ORACLE,
    "multispecies_hurwitz_entry": PIPELINE,
    "multispecies_hurwitz_matrix": ORACLE,
    "multispecies_hurwitz_number": PIPELINE,
    "multispecies_transfer_matrix": PINNED,
    "parse_partition": PIPELINE,
    "parse_rational": PIPELINE,
    "parse_species_flag": PIPELINE,
    "partition_count": PIPELINE,
    "path_counts": ORACLE,
    "poly_mul": PIPELINE,
    "reciprocal": PIPELINE,
    "signature_of": ORACLE,
    "symmetrized_weight": PINNED,
    "transfer_matrix": PINNED,
    "weight_coefficient": PINNED,
    "weight_coefficients": PIPELINE,
}


def test_every_public_name_is_documented_or_has_a_reason():
    # README's Library sketch documents the public API; any other public
    # name needs a reason to stay, and a pinned one must be a tracer target.
    sketch = {
        alias.name
        for node in ast.walk(ast.parse(code_block("## Library sketch")))
        if isinstance(node, ast.ImportFrom) and node.module == "qhurwitz"
        for alias in node.names
    }
    public = set(qhurwitz.__all__)
    assert sketch <= public
    assert sorted(public - sketch - set(UNDOCUMENTED_PUBLIC)) == [], "public, undocumented and given no reason"
    assert sorted(set(UNDOCUMENTED_PUBLIC) - (public - sketch)) == [], "given a reason, but not public or documented"
    traced = {attribute.partition(".")[0] for *_, attribute in TARGETS + CACHES}
    assert {name for name, reason in UNDOCUMENTED_PUBLIC.items() if reason == PINNED} <= traced


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


#: The one import inside a function, as (function, statement) per module: the
#: CLI loads json only to write a JSON document, so compute tau and CSV
#: chartables never load it.
NESTED_IMPORTS = {"cli": {("_emit_json", "import json")}}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_a_function(module):
    nested = {
        (function.name, ast.unparse(node))
        for function in ast.walk(MODULES[module])
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert nested <= NESTED_IMPORTS.get(module, set()), f"{module}.py imports inside functions: {sorted(nested)}"


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_pipeline_imports_no_other_pipeline(module):
    imported = package_imports(MODULES[module])
    assert "partitions" in imported, "the import walk found no sibling import"
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


#: Run a CLI request in this interpreter, then print one JSON line: its exit
#: code, the modules loaded and the modules that ran.  A module registered
#: lazily has run once its type is ModuleType again; reading any attribute of
#: it would run it, so only its type is read.  json is imported only after
#: the modules are listed.
COLD_REQUEST = """
import sys, types
import qhurwitz.cli
code = qhurwitz.cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
ran = [name for name in loaded if type(sys.modules[name]) is types.ModuleType]
import json
print(json.dumps({"code": code, "loaded": loaded, "ran": ran}))
"""


def cold_request(argv: str) -> tuple[set, set]:
    """(loaded, ran): the modules of one request in a fresh interpreter without site.

    Without site, this is as close to a bare CLI request as a test gets.
    """
    env = dict(os.environ, PYTHONPATH=str(SOURCES.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", COLD_REQUEST, *argv.split()],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    document = json.loads(result.stdout.splitlines()[-1])
    assert document["code"] == 0
    return set(document["loaded"]), set(document["ran"])


def test_cold_request_loads_neither_dataclasses_nor_inspect():
    # The CLI writes its CSV text itself, so csv is not loaded either.  The
    # smallest request runs only the character tables and what they need.
    loaded, ran = cold_request("chartable --n 1")
    assert not {"csv", "dataclasses", "inspect"} & loaded
    layers = {f"qhurwitz.{module}" for module in MODULES} - {"qhurwitz.__init__", "qhurwitz.__main__"}
    assert layers <= loaded, "every layer module is registered by import qhurwitz"
    own = {"qhurwitz", "qhurwitz.cli", "qhurwitz.errors", "qhurwitz.partitions", "qhurwitz.characters"}
    assert {name for name in ran if name.partition(".")[0] == "qhurwitz"} <= own
    assert not {"fractions", "decimal"} & loaded


@pytest.mark.parametrize("argv, idle", [
    ("compute tau --n 4 --species H:q=1/2 --maxdeg 2", {"geometric", "combinatorial", "sn"}),
    (
        "compute geometric --n 4 --mu 2,2 --nu 4 --species H:q=1/2 --degrees 2",
        {"spectral", "combinatorial", "tau", "sn"},
    ),
    ("oracle paths --n 4 --d 2 --mu 2,2 --nu 4", {"spectral", "qweights", "series", "geometric", "tau"}),
], ids=["tau", "geometric", "oracle"])
def test_a_leg_runs_no_other_leg(argv, idle):
    _, ran = cold_request(argv)
    assert not {f"qhurwitz.{module}" for module in idle} & ran


#: A rational request of every command that computes: series mode is for the
#: library's identity oracles, and the CLI never runs it.
RATIONAL_REQUESTS = {
    "geometric": "compute geometric --n 4 --mu 2,2 --nu 4 --species E:q=1/2 --species H:p=-1/3 --degrees 1;1",
    "combinatorial": "compute combinatorial --n 4 --mu 2,2 --nu 4 --species E':q=1/2 --degrees 2",
    "tau": "compute tau --n 4 --species H:q=1/2 --maxdeg 2",
    "tau-row": "compute tau --n 4 --species E:q=2/5 --maxdeg 2 --mu 3,1 --N 1",
    "triangle": "verify triangle --n-max 3 --deg-max 1 --species E:q=1/2 --species H:p=1/5",
    "oracle": "oracle paths --n 3 --d 2 --mu 3 --nu 2,1",
}


@pytest.mark.parametrize("argv", RATIONAL_REQUESTS.values(), ids=RATIONAL_REQUESTS)
def test_no_command_runs_series_mode(argv):
    _, ran = cold_request(argv)
    assert "qhurwitz.series" not in ran


@pytest.mark.parametrize("argv", [
    "compute tau --n 4 --species H:q=1/2 --maxdeg 2",
    "compute tau --n 4 --species H:q=1/2 --maxdeg 2 --mu 2,2 --format csv",
    "chartable --n 4 --format csv",
], ids=["tau-json", "tau-row-csv", "chartable-csv"])
def test_requests_that_write_their_own_text_load_no_json(argv):
    loaded, _ = cold_request(argv)
    assert "json" not in loaded
