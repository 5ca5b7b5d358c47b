"""Exact quantum and multispecies weighted Hurwitz numbers.

Three pipelines compute the same numbers.  The tau and combinatorial pipelines
share the spectral layer of ``spectral`` (content lists, kernel, cost); the
geometric pipeline reads only the character tables of ``characters``.

* geometric: symmetrized branch-point weights times covering counts, summed
  over colength classes through their central characters;
* combinatorial: weighted transposition paths, at production scale through
  central-element transfer matrices on the class-sum basis;
* tau: coefficient extraction from content products, the power sum
  coefficient tables of hypergeometric 2D Toda tau functions.

Their exact rational agreement, entry by entry, is the package's primary
verification suite (``verify_triangle`` and the acceptance tests).

Importing the package registers every layer module in ``sys.modules`` through
``importlib.util.LazyLoader`` and runs none of them: a module compiles and
runs on the first access to one of its attributes.  The public names are read
from their modules on access (PEP 562), so a request runs only the modules
its command calls into.  Rational mode, which is every CLI request, reads
its scalar helpers from ``scalars`` and never runs ``series``.
"""

import importlib.util
import sys

#: Each layer module and the public names the package exports from it.  The
#: CLI is not registered: ``python -m qhurwitz.cli`` warns when it finds its
#: module in sys.modules before it runs it.
_EXPORTS = {
    "errors": ("CapacityError", "PoleError"),
    "partitions": (
        "Partition",
        "centralizer_order",
        "check_partition",
        "colength",
        "enumerate_partitions",
        "format_partition",
        "hook_product",
        "parse_partition",
        "partition_count",
    ),
    "scalars": ("reciprocal",),
    "series": ("TruncatedSeries", "poly_mul"),
    "qweights": (
        "FAMILIES",
        "Species",
        "WeightConfig",
        "parse_rational",
        "parse_species_flag",
        "symmetrized_weight",
        "weight_coefficient",
        "weight_coefficients",
    ),
    "characters": ("CharacterTable", "character_table", "dimension"),
    "spectral": ("species_content_coeffs",),
    "sn": (),
    "combinatorial": (
        "TransferMatrix",
        "combinatorial_hurwitz_number",
        "jucys_murphy_eigenvalue_check",
        "multispecies_hurwitz_entry",
        "multispecies_transfer_matrix",
        "path_counts",
        "signature_of",
        "transfer_matrix",
        "weighted_path_count",
    ),
    "geometric": (
        "BranchConfiguration",
        "enumerate_factorizations",
        "frobenius_hurwitz",
        "multispecies_hurwitz_matrix",
        "multispecies_hurwitz_number",
        "quantum_hurwitz_number",
    ),
    "tau": (
        "HurwitzTable",
        "TriangleReport",
        "content_product_coeffs",
        "tau_coefficients",
        "tau_row",
        "verify_triangle",
    ),
}

#: Public name -> the layer module that defines it.
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def _register(module: str):
    """The layer module, put in sys.modules unrun: it runs on the first access to one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOMES[name]], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
