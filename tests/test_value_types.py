"""The contract of the package's six value types.

Each is a plain immutable class on scalars.Immutable.  Its repr, equality and
hash are those a frozen dataclass of the same fields has: the reprs below
are the ones the dataclass versions printed, and HurwitzTable's the one a
dataclass over its fields (n, maxdeg, matrices) prints.  Setting or deleting any
attribute raises AttributeError, and pickle and copy round-trip.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qhurwitz import (
    BranchConfiguration,
    HurwitzTable,
    Species,
    TransferMatrix,
    TriangleReport,
    TruncatedSeries,
    WeightConfig,
    frobenius_hurwitz,
    tau_coefficients,
    transfer_matrix,
    verify_triangle,
)

HALF = Fraction(1, 2)
E_HALF = Species("E", HALF)
H_FIFTH = Species("H", Fraction(-1, 5), label="p")
DISCREPANCY = {"degrees": [1], "mu": "2", "nu": "1,1", "geometric": "1/1", "combinatorial": "0/1", "tau": "1/1"}

#: Builders of one instance of each type, each with the repr its dataclass printed.
CASES = {
    "Species": (lambda: E_HALF, "Species(family='E', parameter=Fraction(1, 2), label='q')"),
    "Species series": (
        lambda: Species("E'", TruncatedSeries.variable("q", 2)),
        "Species(family=\"E'\", parameter=TruncatedSeries(1*q), label='q')",
    ),
    "WeightConfig": (
        lambda: WeightConfig([E_HALF, H_FIFTH], 2),
        "WeightConfig(species=(Species(family='E', parameter=Fraction(1, 2), label='q'), "
        "Species(family='H', parameter=Fraction(-1, 5), label='p')), n=2)",
    ),
    "BranchConfiguration": (
        lambda: BranchConfiguration([[2, 1]], (3,), [1, 1, 1]),
        "BranchConfiguration(extra_profiles=((2, 1),), mu=(3,), nu=(1, 1, 1))",
    ),
    "TransferMatrix": (
        lambda: transfer_matrix(E_HALF, 1, 2),
        "TransferMatrix(n=2, rows=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))",
    ),
    "HurwitzTable": (
        lambda: tau_coefficients(WeightConfig((E_HALF,), 2), (1,)),
        "HurwitzTable(n=2, maxdeg=(1,), matrices={"
        "(0,): ((Fraction(1, 2), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 2))), "
        "(1,): ((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1)))})",
    ),
    "TriangleReport": (
        lambda: verify_triangle(WeightConfig((E_HALF, H_FIFTH), 2), (1, 1)),
        "TriangleReport(n=2, maxdeg=(1, 1), species=('E:q=1/2', 'H:p=-1/5'), checked=16, discrepancies=())",
    ),
    "TriangleReport failed": (
        lambda: TriangleReport(n=2, maxdeg=(1,), species=("E:q=1/2",), checked=8, discrepancies=(DISCREPANCY,)),
        "TriangleReport(n=2, maxdeg=(1,), species=('E:q=1/2',), checked=8, discrepancies=({'degrees': [1], "
        "'mu': '2', 'nu': '1,1', 'geometric': '1/1', 'combinatorial': '0/1', 'tau': '1/1'},))",
    ),
}

#: Per type, its fields in order and an instance that differs in one field.
FIELDS = {
    Species: (("family", "parameter", "label"), lambda: Species("E", HALF, label="p")),
    WeightConfig: (("species", "n"), lambda: WeightConfig([E_HALF, H_FIFTH], 3)),
    BranchConfiguration: (("extra_profiles", "mu", "nu"), lambda: BranchConfiguration([[2, 1]], (3,), (3,))),
    TransferMatrix: (("n", "rows"), lambda: transfer_matrix(E_HALF, 2, 2)),
    HurwitzTable: (("n", "maxdeg", "matrices"), lambda: HurwitzTable(n=2, maxdeg=(1,), matrices={})),
    TriangleReport: (
        ("n", "maxdeg", "species", "checked", "discrepancies"),
        lambda: TriangleReport(n=2, maxdeg=(1, 1), species=("E:q=1/2", "H:p=-1/5"), checked=15, discrepancies=()),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_repr_is_the_dataclass_repr(case):
    build, text = CASES[case]
    assert repr(build()) == text


@pytest.mark.parametrize("case", sorted(CASES))
def test_equality_and_hash_follow_the_fields(case):
    build, _ = CASES[case]
    first, second = build(), build()
    cls = type(first)
    fields, build_other = FIELDS[cls]
    assert first == second
    assert not first != second
    other = build_other()
    assert first != other
    assert [name for name in fields if getattr(first, name) != getattr(other, name)]
    try:
        expected = hash(tuple(getattr(first, name) for name in fields))
    except TypeError:
        # A dict, or a series, among the fields is unhashable; so is the value.
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected


def test_instances_of_different_types_are_never_equal():
    values = [build() for build, _ in CASES.values()]
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert a != b
                assert a.__eq__(b) is NotImplemented
    # Equal field values do not make instances of different types equal.
    assert TransferMatrix(2, ()) != HurwitzTable(2, (), {})
    assert E_HALF != (E_HALF.family, E_HALF.parameter, E_HALF.label)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", ["n", "species", "mu", "rows", "entries", "label", "unused", "__dict__"])
def test_setting_or_deleting_any_attribute_raises(case, name):
    build, text = CASES[case]
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text
    assert value == build()


@pytest.mark.parametrize("case", sorted(CASES))
def test_pickle_and_copy_round_trip(case):
    build, text = CASES[case]
    value = build()
    for restored in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(restored) is type(value)
        assert restored == value
        assert repr(restored) == text
        with pytest.raises(AttributeError):
            restored.n = 0


def test_frobenius_hurwitz_cache_hits_an_equal_configuration():
    first = BranchConfiguration([(2, 1)], [3], (2, 1))
    value = frobenius_hurwitz(first)
    hits = frobenius_hurwitz.cache_info().hits
    assert frobenius_hurwitz(BranchConfiguration(((2, 1),), (3,), [2, 1])) == value
    assert frobenius_hurwitz.cache_info().hits == hits + 1
