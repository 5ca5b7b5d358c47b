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
combinatorial pipelines, after check_triangle_bounds has admitted the suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

from .characters import (
    SPECTRAL_COST_LIMIT,
    character_table,
    check_spectral_cost,
    content_eigenvalues,
    spectral_cost,
    spectral_sum,
    species_content_coeffs,
)
from .combinatorial import multispecies_transfer_matrix
from .errors import CapacityError
from .geometric import GEOMETRIC_COST_LIMIT, _geometric_cost, multispecies_hurwitz_matrix
from .partitions import Partition, check_partition, format_partition
from .qweights import WeightConfig, multidegrees
from .series import TruncatedSeries, format_rational


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


def schur_to_powersum(lam: Partition) -> dict[Partition, Fraction]:
    """Coefficients of the power sums P_mu in the Schur function S_lam.

    The coefficient of P_mu is chi_lam(mu) / z_mu.
    """
    lam = check_partition(lam)
    tbl = character_table(sum(lam)) if lam else None
    if tbl is None:
        return {(): Fraction(1)}
    row = tbl.values[tbl.index(lam)]
    return {
        mu: Fraction(row[j], tbl.centralizer_orders[j])
        for j, mu in enumerate(tbl.partitions)
    }


@dataclass(frozen=True)
class HurwitzTable:
    """Dense table of Hurwitz numbers indexed by (multidegree, mu, nu).

    Entries are present for every pair of partitions of n and every
    multidegree componentwise at most maxdeg.  The zero-multidegree block is
    the diagonal delta_{mu,nu} / z_mu.
    """

    n: int
    maxdeg: tuple[int, ...]
    entries: dict

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
    chi_lam(mu) chi_lam(nu) / (z_mu z_nu).
    """
    maxdeg = config.degrees(maxdeg)
    tbl = character_table(config.n)
    check_spectral_cost(config, maxdeg, prod(m + 1 for m in maxdeg), shift)
    parts = tbl.partitions
    lists = [species_content_coeffs(s, parts, m, shift) for s, m in zip(config.species, maxdeg)]
    entries = {}
    for degrees in multidegrees(maxdeg):
        for mu, row in zip(parts, spectral_sum(tbl, content_eigenvalues(lists, degrees))):
            for nu, value in zip(parts, row):
                entries[(degrees, mu, nu)] = value
    return HurwitzTable(n=config.n, maxdeg=maxdeg, entries=entries)


@dataclass(frozen=True)
class TriangleReport:
    """Result of the three-pipeline comparison over a full table.

    Any disagreeing entry is listed with all three values; agreement of all
    entries is the package's primary correctness statement.
    """

    n: int
    maxdeg: tuple[int, ...]
    species: tuple[str, ...]
    checked: int
    discrepancies: tuple

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


#: Desk-scale bounds for the full triangle comparison.
TRIANGLE_N_LIMIT = 5
TRIANGLE_DEGREE_LIMIT = 3


def check_triangle_bounds(
    config: WeightConfig, maxdeg: tuple[int, ...], first_n: int | None = None
) -> None:
    """Raise CapacityError past the bounds of a triangle suite over n = first_n..config.n.

    first_n defaults to config.n, the one n of a verify_triangle call.  The
    degree bound is checked first, so a suite meets it at its first n; then
    n; then the legs' own estimates summed over the suite: _geometric_cost
    of every multidegree against GEOMETRIC_COST_LIMIT, and spectral_cost of
    every tau table and transfer matrix against SPECTRAL_COST_LIMIT.  The
    tables are counted first and the sums checked as they grow, so a suite
    of many species is refused without walking its multidegrees.
    """
    if any(m > TRIANGLE_DEGREE_LIMIT for m in maxdeg):
        raise CapacityError(
            f"triangle verification is limited to slot degrees <= {TRIANGLE_DEGREE_LIMIT}"
        )
    if config.n > TRIANGLE_N_LIMIT:
        raise CapacityError(f"triangle verification is limited to n <= {TRIANGLE_N_LIMIT}")
    first_n = config.n if first_n is None else first_n
    suite = [replace(config, n=n) for n in range(first_n, config.n + 1)]
    estimates = itertools.chain(
        ((0, spectral_cost(c, maxdeg, prod(m + 1 for m in maxdeg))) for c in suite),
        (
            (_geometric_cost(c, degrees), spectral_cost(c, degrees, 1))
            for c in suite
            for degrees in multidegrees(maxdeg)
        ),
    )
    geometric = spectral = 0
    for geometric_term, spectral_term in estimates:
        geometric += geometric_term
        spectral += spectral_term
        if geometric > GEOMETRIC_COST_LIMIT or spectral > SPECTRAL_COST_LIMIT:
            raise CapacityError(
                f"triangle suite costs at least {geometric} (profile-tuple terms or weight "
                f"bits) and {spectral} (kernel products), over the limit of "
                f"{GEOMETRIC_COST_LIMIT} or {SPECTRAL_COST_LIMIT}"
            )


def _value_text(value) -> str:
    """A discrepancy value: "numerator/denominator" for a rational, str of a series."""
    return str(value) if isinstance(value, TruncatedSeries) else format_rational(value)


def verify_triangle(config: WeightConfig, maxdeg: tuple[int, ...]) -> TriangleReport:
    """Compare the geometric, combinatorial and tau pipelines entrywise.

    Exact rational equality is demanded; any discrepancy is reported, not
    raised.  Bounds: n at most 5, every slot degree at most 3 and the summed
    cost estimates of check_triangle_bounds, which keep the three legs at
    desk scale; past them CapacityError.
    """
    maxdeg = config.degrees(maxdeg)
    check_triangle_bounds(config, maxdeg)
    table = tau_coefficients(config, maxdeg)
    parts = character_table(config.n).partitions
    checked = 0
    discrepancies = []
    for degrees in table.multidegrees():
        matrix = multispecies_transfer_matrix(config, degrees)
        geometric = multispecies_hurwitz_matrix(config, degrees)
        for mu in parts:
            for nu in parts:
                tau_value = table.entry(degrees, mu, nu)
                comb_value = matrix.hurwitz_entry(mu, nu)
                geom_value = geometric[(mu, nu)]
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
