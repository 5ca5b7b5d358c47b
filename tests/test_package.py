"""The package's __all__ lists exactly its public names."""

import types

import qhurwitz


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(qhurwitz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(qhurwitz.__all__) == len(set(qhurwitz.__all__))
    assert set(qhurwitz.__all__) == public
