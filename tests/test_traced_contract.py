"""The names bench/traced.py wraps must exist in the package.

The tracer resolves its TARGETS and CACHES with getattr and cache_info() only
when a traced benchmark run starts, so a renamed layer function would go
unnoticed by every other test.  The file is parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def _literal(name):
    tree = ast.parse(TRACED.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACED}")


TARGETS = _literal("TARGETS")
CACHES = _literal("CACHES")


@pytest.mark.parametrize("layer, module, attribute", TARGETS)
def test_target_resolves(layer, module, attribute):
    owner = importlib.import_module(f"qhurwitz.{module}")
    if "." in attribute:
        cls_name, member = attribute.split(".")
        assert member in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attribute))


@pytest.mark.parametrize("module, attribute", CACHES)
def test_cache_has_cache_info(module, attribute):
    owner = importlib.import_module(f"qhurwitz.{module}")
    assert callable(getattr(owner, attribute).cache_info)
