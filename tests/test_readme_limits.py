"""The README's "Limits" table states the bounds the code enforces, and its examples run."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from qhurwitz.characters import TABLE_LIMIT
from qhurwitz.cli import main
from qhurwitz.combinatorial import JM_LIMIT, PATH_LIMIT_D, PATH_LIMIT_N
from qhurwitz.geometric import GEOMETRIC_COST_LIMIT
from qhurwitz.partitions import ENUMERATION_LIMIT
from qhurwitz.sn import GROUP_LIMIT
from qhurwitz.spectral import SPECTRAL_COST_LIMIT

README = Path(__file__).resolve().parent.parent / "README.md"

#: Start of each row's operation cell -> {quantity: the constant bounding it}.
LIMITS = {
    "`enumerate_partitions`": {"n": ENUMERATION_LIMIT},
    "`character_table`": {"n": TABLE_LIMIT},
    "`enumerate_factorizations`": {"n": GROUP_LIMIT},
    "`path_counts`": {"n": PATH_LIMIT_N, "d": PATH_LIMIT_D},
    "`jucys_murphy_eigenvalue_check`": {"n": JM_LIMIT},
    "`verify triangle` suite": {
        "geometric cost": GEOMETRIC_COST_LIMIT,
        "spectral cost": SPECTRAL_COST_LIMIT,
    },
    "`multispecies_hurwitz_number`": {"cost": GEOMETRIC_COST_LIMIT},
    "`tau_coefficients`": {"cost": SPECTRAL_COST_LIMIT},
}


def limits_rows() -> list[tuple[str, str]]:
    section = README.read_text().split("## Limits", 1)[1]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            if rows:
                break
            continue
        operation, _, bound = line.strip("| ").partition(" | ")
        if operation != "operation" and not re.fullmatch(r"[-|]*", operation):
            rows.append((operation, bound))
    return rows


def stated_value(text: str) -> int:
    base, _, exponent = text.partition("^")
    return int(base) ** int(exponent) if exponent else int(base)


def test_every_row_states_its_constants():
    rows = limits_rows()
    seen = set()
    for operation, bound in rows:
        keys = [key for key in LIMITS if operation.startswith(key)]
        assert len(keys) == 1, f"Limits row with no known constants: {operation}"
        seen.add(keys[0])
        for quantity, constant in LIMITS[keys[0]].items():
            stated = re.findall(rf"(?<![\w-]){re.escape(quantity)} <= (10\^\d+|\d+)", bound)
            assert stated, f"{operation}: no bound on {quantity}"
            assert {stated_value(text) for text in stated} == {constant}, (operation, quantity)
    assert seen == set(LIMITS)


def code_block(heading: str) -> str:
    """The first fenced block after the heading, without its fences."""
    section = README.read_text().split(heading + "\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_library_sketch_runs_and_its_values_hold():
    source = code_block("## Library sketch")
    comments = {
        token.start[0]: token.string.lstrip("# ")
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr) and statement.end_lineno in comments:
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            # The comment is the value's repr, maybe followed by ", prose".
            stated = comments[statement.end_lineno]
            assert stated == repr(value) or stated.startswith(repr(value) + ", "), stated
            checked += 1
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README", "exec"), namespace)
    assert checked == len(comments) > 0


CLI_LINES = [
    line.removeprefix("qhurwitz ")
    for line in code_block("## CLI").splitlines()
    if line.startswith("qhurwitz ")
]


@pytest.mark.parametrize("line", CLI_LINES)
@pytest.mark.parametrize("options", ["with", "without"])
def test_cli_example_exits_0(capsys, line, options):
    text = re.sub(r"\[([^\]]*)\]", r"\1" if options == "with" else "", line)
    assert main(shlex.split(text)) == 0, text
    assert capsys.readouterr().err == ""
