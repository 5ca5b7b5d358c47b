"""The hypergeometric tau-function coefficient table and the three-pipeline triangle.

A weight configuration determines, for every shape lam of n, the content
product

    r_lam(u_1, ..., u_S) = prod_s prod_{cells (i,j) of lam}
                           G_s(param_s, (shift + j - i) * u_s)

where G_s is the weight generating function of the s-th species and u_s its
expansion variable.  No symmetric function indeterminates are ever
materialized: the tau function "is" its power sum coefficient table, which
the spectral layer of ``characters``, shared with the combinatorial
pipeline, assembles from the per-species content lists:

    entry(degrees, mu, nu) =
        sum_lam [u^degrees] r_lam * chi_lam(mu) chi_lam(nu) / (z_mu z_nu).

A table holds every multidegree componentwise at most maxdeg.  The shift
defaults to 0, which is the value at which the coefficients are Hurwitz
numbers; nonzero shifts are supported for the content products and tables
only, with no enumerative meaning claimed.  A table whose spectral_cost
exceeds SPECTRAL_COST_LIMIT raises CapacityError before any content
coefficient is computed.

verify_triangle compares the table entrywise with the geometric and
combinatorial pipelines.  check_triangle_bounds admits a suite of n by the
costs its legs check, summed over the suite: no bound of its own on n or on
the degrees.
"""

from __future__ import annotations

import itertools
from math import prod

from .characters import (
    SPECTRAL_COST_LIMIT,
    character_table,
    check_shift,
    check_spectral_cost,
    content_eigenvalues,
    spectral_cost,
    spectral_sum,
    species_content_coeffs,
)
from .combinatorial import multispecies_transfer_matrices
from .errors import CapacityError
from .geometric import GEOMETRIC_COST_LIMIT, _geometric_cost, multispecies_hurwitz_matrices
from .partitions import Partition, check_partition, format_partition
from .qweights import WeightConfig, multidegrees
from .series import Immutable, TruncatedSeries, format_rational


def content_product_coeffs(
    config: WeightConfig, lam: Partition, maxdeg: tuple[int, ...], shift: int = 0
) -> dict[tuple[int, ...], object]:
    """Multidegree-truncated coefficients of the full content product of lam.

    Keys run over the whole rectangle of multidegrees componentwise at most
    maxdeg; each species contributes only powers of its own slot variable, so
    the table is the outer product of the per-species coefficient lists.  It
    is the one-shape reference the tests compare the pipelines against.
    """
    lam = check_partition(lam)
    if sum(lam) != config.n:
        raise ValueError(f"lam must be a partition of {config.n}")
    maxdeg = config.degrees(maxdeg)
    per_species = [
        species_content_coeffs(s, [lam], m, shift)[0] for s, m in zip(config.species, maxdeg)
    ]
    return {
        degrees: prod(per_species[s][d] for s, d in enumerate(degrees))
        for degrees in multidegrees(maxdeg)
    }


class HurwitzTable(Immutable):
    """Dense table of Hurwitz numbers indexed by (multidegree, mu, nu).

    Entries are present for every pair of partitions of n and every
    multidegree componentwise at most maxdeg.  The zero-multidegree block is
    the diagonal delta_{mu,nu} / z_mu.
    """

    _fields = ("n", "maxdeg", "entries")

    def __init__(self, n: int, maxdeg: tuple[int, ...], entries: dict):
        self._set(n, maxdeg, entries)

    def entry(self, degrees: tuple[int, ...], mu: Partition, nu: Partition):
        return self.entries[(tuple(degrees), tuple(mu), tuple(nu))]

    def multidegrees(self):
        return multidegrees(self.maxdeg)


def tau_coefficients(
    config: WeightConfig, maxdeg: tuple[int, ...], shift: int = 0
) -> HurwitzTable:
    """Coefficient table of the hypergeometric tau function for this configuration.

    entry(degrees, mu, nu) = sum over shapes lam of n of the multidegree
    coefficient of the content product of lam times
    chi_lam(mu) chi_lam(nu) / (z_mu z_nu).  A shift that is not an int
    raises ValueError.
    """
    maxdeg = config.degrees(maxdeg)
    check_shift(shift)
    tbl = character_table(config.n)
    check_spectral_cost(config, maxdeg, prod(m + 1 for m in maxdeg), shift)
    parts = tbl.partitions
    lists = [species_content_coeffs(s, parts, m, shift) for s, m in zip(config.species, maxdeg)]
    blocks = list(multidegrees(maxdeg))
    matrices = spectral_sum(tbl, [content_eigenvalues(lists, degrees) for degrees in blocks])
    rows = itertools.chain.from_iterable(matrices)
    entries = dict(zip(itertools.product(blocks, parts, parts), itertools.chain.from_iterable(rows)))
    return HurwitzTable(n=config.n, maxdeg=maxdeg, entries=entries)


class TriangleReport(Immutable):
    """Result of the three-pipeline comparison over a full table.

    Any disagreeing entry is listed with all three values; agreement of all
    entries is the package's primary correctness statement.
    """

    _fields = ("n", "maxdeg", "species", "checked", "discrepancies")

    def __init__(
        self, n: int, maxdeg: tuple[int, ...], species: tuple[str, ...], checked: int, discrepancies: tuple
    ):
        self._set(n, maxdeg, species, checked, discrepancies)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "maxdeg": list(self.maxdeg),
            "species": list(self.species),
            "checked": self.checked,
            "status": "ok" if self.ok else "fail",
            "discrepancies": list(self.discrepancies),
        }


def check_triangle_bounds(
    config: WeightConfig, maxdeg: tuple[int, ...], first_n: int | None = None
) -> None:
    """Raise CapacityError past the summed cost of a triangle suite over n = first_n..config.n.

    first_n defaults to config.n, the one n of a verify_triangle call.  Each
    n is charged what its three legs check before they work: _geometric_cost
    of the walks up to maxdeg and one matrix per multidegree, and twice the
    spectral_cost of the tau table, since the transfer matrices are one
    spectral_sum over the same blocks and check the same cost.  The sums are
    checked against GEOMETRIC_COST_LIMIT and SPECTRAL_COST_LIMIT as each n is
    added, so a suite stops at its first n past a limit, or at its first n
    past TABLE_LIMIT, whose character table _geometric_cost refuses.
    """
    blocks = prod(m + 1 for m in maxdeg)
    ranges = [range(m + 1) for m in maxdeg]
    geometric = spectral = 0
    for n in range(config.n if first_n is None else first_n, config.n + 1):
        suite_config = WeightConfig(config.species, n)
        geometric += _geometric_cost(suite_config, ranges)
        spectral += 2 * spectral_cost(suite_config, maxdeg, blocks)
        if geometric > GEOMETRIC_COST_LIMIT or spectral > SPECTRAL_COST_LIMIT:
            raise CapacityError(
                f"triangle suite costs at least {geometric} (walk steps and matrix terms "
                f"scaled by weight bits) and {spectral} (kernel products), over the limit of "
                f"{GEOMETRIC_COST_LIMIT} or {SPECTRAL_COST_LIMIT}"
            )


def _value_text(value) -> str:
    """A discrepancy value: "numerator/denominator" for a rational, str of a series."""
    return str(value) if isinstance(value, TruncatedSeries) else format_rational(value)


def verify_triangle(config: WeightConfig, maxdeg: tuple[int, ...]) -> TriangleReport:
    """Compare the geometric, combinatorial and tau pipelines entrywise.

    Exact rational equality is demanded; any discrepancy is reported, not
    raised.  The one bound is check_triangle_bounds at this n: the costs
    that the three legs check, summed; past it CapacityError.
    """
    maxdeg = config.degrees(maxdeg)
    check_triangle_bounds(config, maxdeg)
    table = tau_coefficients(config, maxdeg)
    parts = character_table(config.n).partitions
    combinatorial = multispecies_transfer_matrices(config, maxdeg)
    geometric = multispecies_hurwitz_matrices(config, maxdeg)
    checked = 0
    discrepancies = []
    for degrees in table.multidegrees():
        for mu in parts:
            for nu in parts:
                tau_value = table.entry(degrees, mu, nu)
                comb_value = combinatorial[degrees].hurwitz_entry(mu, nu)
                geom_value = geometric[degrees][(mu, nu)]
                checked += 1
                if not (tau_value == comb_value == geom_value):
                    discrepancies.append(
                        {
                            "degrees": list(degrees),
                            "mu": format_partition(mu),
                            "nu": format_partition(nu),
                            "geometric": _value_text(geom_value),
                            "combinatorial": _value_text(comb_value),
                            "tau": _value_text(tau_value),
                        }
                    )
    return TriangleReport(
        n=config.n,
        maxdeg=maxdeg,
        species=tuple(s.describe() for s in config.species),
        checked=checked,
        discrepancies=tuple(discrepancies),
    )
