"""The names the scripts under tools/ import from the package must exist, and their table is current.

Nothing runs those scripts, and they import private helpers such as
geometric._matrix, so a renamed helper would go unnoticed by every other
test.  Each script is parsed, not imported or run, except that
tools/src_lines.py's counters are run on sample files.  The committed table
of tools/geometric_cost_times.py must record the cost model as it is, and
README "Limits" must state the time a unit that table records.  The rows of
tools/frontiers.txt, which tools/frontiers.sh runs, are parsed here without
running a request.
"""

import ast
import csv
import importlib
import importlib.util
import re
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

from qhurwitz import Species, WeightConfig
from qhurwitz.cli import _read_exact, build_parser
from qhurwitz.geometric import GEOMETRIC_COST_LIMIT, _geometric_cost
from test_readme_limits import limits_rows

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
    assert {"_character_sums", "_colength_characters", "_geometric_cost", "_species_eigenvalues"} <= names


@pytest.mark.parametrize("script, module, name", IMPORTS)
def test_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script}: from {module} import {name}"


def _cost_rows():
    """The rows of tools/geometric_cost_times.csv, as written by tools/geometric_cost_times.py."""
    with open(TOOLS / "geometric_cost_times.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def test_recorded_costs_are_the_cost_model():
    # An empty cost is one past the weight-bit limit, which the script leaves
    # out; every other cost is what _geometric_cost charges today.
    species = {}
    for row in _cost_rows():
        n, d = int(row["n"]), int(row["d"])
        if row["species"] not in species:
            family, _, rest = row["species"].partition(":q=")
            numerator, _, denominator = rest.partition("/")
            base, _, power = denominator.partition("^")
            species[row["species"]] = Species(family, Fraction(int(numerator), int(base) ** int(power or 1)))
        one = species[row["species"]]
        assert one.bits == int(row["bits"])
        config = WeightConfig((one,), n)
        for name, entry in (("entry_cost", True), ("matrix_cost", False)):
            cost = _geometric_cost(config, [(d,)], entry)
            if row[name]:
                assert int(row[name]) == cost, (row, name)
            else:
                assert cost == one.bits * d * d > GEOMETRIC_COST_LIMIT, (row, name)


def test_readme_states_the_recorded_time_a_unit():
    # README "Limits" states the largest and the median in-process time a
    # unit, walk included, of every number and matrix charged 2 * 10^5 or
    # more; both are read from the recorded table, to 0.1 us.
    row = next(bound for operation, bound in limits_rows() if operation.startswith("`multispecies_hurwitz_number`"))
    stated = re.search(r"at most (\d+\.\d) us a unit, (\d+\.\d) us in the median", row)
    assert stated, "Limits row states no time a unit"
    most, median = map(float, stated.groups())
    units = [
        (float(row["walk_s"]) + float(row[f"{kind}_s"])) / int(row[f"{kind}_cost"]) * 10**6
        for row in _cost_rows()
        for kind in ("entry", "matrix")
        if row[f"{kind}_s"] and row[f"{kind}_cost"] and int(row[f"{kind}_cost"]) >= 2 * 10**5
    ]
    assert units
    assert most - 0.1 < max(units) <= most
    assert round(statistics.median(units), 1) == median


@pytest.fixture
def src_lines():
    """tools/src_lines.py as a module, its __main__ block not run."""
    spec = importlib.util.spec_from_file_location("src_lines", TOOLS / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_code_outside_docstrings_and_comments(tmp_path, src_lines):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a trailing comment\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    return """a string\n'
        'that is not a docstring"""\n'
    )
    # x = 1, def f(): and the two lines of the returned string.
    assert src_lines.code_lines(sample) == 4


def test_src_lines_counts_the_names_of_exports(tmp_path, src_lines):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Package docstring."""\n'
        "import sys\n"
        "\n"
        "#: A comment.\n"
        '_EXPORTS = {\n    "errors": ("CapacityError", "PoleError"),\n    "sn": (),\n    "scalars": ("reciprocal",),\n}\n'
        "def f():\n"
        '    _EXPORTS = {"inner": ("not", "counted")}\n'
    )
    assert src_lines.exported_names(sample) == 3
    sample.write_text("EXPORTS = {}\n")
    with pytest.raises(ValueError, match="no module-level _EXPORTS"):
        src_lines.exported_names(sample)


def _frontier_rows():
    """(digest, marker, argv) for each row of tools/frontiers.txt, split as the script's bash splits it."""
    rows = []
    for line in (TOOLS / "frontiers.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            digest, marker, request = line.split(None, 2)
            rows.append((digest, marker, request.split()))
    return rows


FRONTIER_ROWS = _frontier_rows()


def test_the_frontier_table_has_every_row():
    # 6 compute tau tables, 7 point or filtered requests, 6 compute geometric
    # requests and 5 verify triangle suites.
    assert len(FRONTIER_ROWS) == 24


@pytest.mark.parametrize("digest, marker, argv", FRONTIER_ROWS)
def test_frontier_row_is_well_formed(digest, marker, argv):
    assert re.fullmatch(r"[0-9a-f]{64}", digest), digest
    assert marker in ("frontier", "inside"), marker
    # Read straight from the CLI table, as the full parser parses it.
    read = _read_exact(argv)
    assert read is not None, argv
    assert vars(read) == vars(build_parser().parse_args(argv)), argv
    if marker == "frontier":
        # The script asks for one degree more by adding 1 to the last word.
        assert argv[-2] in ("--maxdeg", "--degrees", "--deg-max") and argv[-1].isdigit(), argv
