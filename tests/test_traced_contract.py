"""The names bench/traced.py wraps must exist in the package, and the tracer must still run.

The tracer resolves its TARGETS and CACHES with getattr and cache_info() only
when a traced benchmark run starts, so a renamed layer function would go
unnoticed by every other test.  The name checks parse the file; the last
test runs it, unchanged, on two requests, because it finds the layer modules
in sys.modules after ``import qhurwitz``, which registers them lazily.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "bench" / "traced.py"


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


@pytest.mark.parametrize("argv", ["chartable --n 3", "compute tau --n 4 --species H:q=1/2 --maxdeg 2"])
def test_tracer_runs_a_request_as_the_cli_does(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = subprocess.run(
        [sys.executable, str(TRACED), str(tmp_path / "r"), *argv.split()],
        env=env, capture_output=True, timeout=60,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "qhurwitz", *argv.split()], env=env, capture_output=True, timeout=60
    )
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    summary = json.loads((tmp_path / "r.json").read_text())
    assert set(summary["caches"]) == {f"{module}.{attribute}" for module, attribute in CACHES}
    # The benchmark's own check: layer self times sum to the cli.main span.
    assert abs(sum(name["self_s"] for name in summary["names"].values()) - summary["main_s"]) < 1e-6
