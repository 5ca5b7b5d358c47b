"""The README "Limits" table states the bounds the code enforces."""

import re
from pathlib import Path

from qhurwitz.characters import TABLE_LIMIT
from qhurwitz.combinatorial import JM_LIMIT, PATH_LIMIT_D, PATH_LIMIT_N
from qhurwitz.geometric import GEOMETRIC_COST_LIMIT
from qhurwitz.partitions import ENUMERATION_LIMIT
from qhurwitz.sn import GROUP_LIMIT
from qhurwitz.tau import SPECTRAL_COST_LIMIT, TRIANGLE_DEGREE_LIMIT, TRIANGLE_N_LIMIT

README = Path(__file__).resolve().parent.parent / "README.md"

#: Start of each row's operation cell -> {quantity: the constant bounding it}.
LIMITS = {
    "`enumerate_partitions`": {"n": ENUMERATION_LIMIT},
    "`character_table`": {"n": TABLE_LIMIT},
    "`enumerate_factorizations`": {"n": GROUP_LIMIT},
    "`path_counts`": {"n": PATH_LIMIT_N, "d": PATH_LIMIT_D},
    "`jucys_murphy_eigenvalue_check`": {"n": JM_LIMIT},
    "`verify_triangle`": {"n": TRIANGLE_N_LIMIT, "slot degrees": TRIANGLE_DEGREE_LIMIT},
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
