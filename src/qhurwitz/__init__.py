"""Exact quantum and multispecies weighted Hurwitz numbers.

Three pipelines compute the same numbers.  The tau and combinatorial pipelines
share the spectral layer of ``characters`` (content lists, kernel, cost); the
geometric pipeline reads only its character tables.

* geometric: symmetrized branch-point weights times covering counts, summed
  over colength classes through their central characters;
* combinatorial: weighted transposition paths, at production scale through
  central-element transfer matrices on the class-sum basis;
* tau: coefficient extraction from content products, the power sum
  coefficient tables of hypergeometric 2D Toda tau functions.

Their exact rational agreement, entry by entry, is the package's primary
verification suite (``verify_triangle`` and the acceptance tests).
"""

from .characters import CharacterTable, character_table, character_value, dimension
from .combinatorial import (
    TransferMatrix,
    combinatorial_hurwitz_number,
    jucys_murphy_eigenvalue_check,
    multispecies_transfer_matrix,
    path_counts,
    signature_of,
    transfer_matrix,
    weighted_path_count,
)
from .errors import CapacityError, PoleError
from .geometric import (
    BranchConfiguration,
    enumerate_factorizations,
    frobenius_hurwitz,
    multispecies_hurwitz_matrix,
    multispecies_hurwitz_number,
    quantum_hurwitz_number,
)
from .partitions import (
    Partition,
    centralizer_order,
    check_partition,
    colength,
    enumerate_partitions,
    format_partition,
    hook_product,
    parse_partition,
    partition_count,
)
from .qweights import (
    FAMILIES,
    Species,
    WeightConfig,
    parse_rational,
    parse_species_flag,
    quantum_dilog_coeffs,
    symmetrized_weight,
    weight_coefficient,
    weight_coefficients,
)
from .series import TruncatedSeries, poly_exp, poly_mul, reciprocal
from .tau import (
    HurwitzTable,
    TriangleReport,
    content_product_coeffs,
    species_content_coeffs,
    tau_coefficients,
    verify_triangle,
)

__version__ = "0.1.0"

__all__ = [
    "BranchConfiguration",
    "CapacityError",
    "CharacterTable",
    "FAMILIES",
    "HurwitzTable",
    "Partition",
    "PoleError",
    "Species",
    "TransferMatrix",
    "TriangleReport",
    "TruncatedSeries",
    "WeightConfig",
    "centralizer_order",
    "character_table",
    "character_value",
    "check_partition",
    "colength",
    "combinatorial_hurwitz_number",
    "content_product_coeffs",
    "dimension",
    "enumerate_factorizations",
    "enumerate_partitions",
    "format_partition",
    "frobenius_hurwitz",
    "hook_product",
    "jucys_murphy_eigenvalue_check",
    "multispecies_hurwitz_matrix",
    "multispecies_hurwitz_number",
    "multispecies_transfer_matrix",
    "parse_partition",
    "parse_rational",
    "parse_species_flag",
    "partition_count",
    "path_counts",
    "poly_exp",
    "poly_mul",
    "quantum_dilog_coeffs",
    "quantum_hurwitz_number",
    "reciprocal",
    "signature_of",
    "species_content_coeffs",
    "symmetrized_weight",
    "tau_coefficients",
    "transfer_matrix",
    "verify_triangle",
    "weight_coefficient",
    "weight_coefficients",
    "weighted_path_count",
]
