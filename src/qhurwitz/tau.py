"""Content products and the hypergeometric tau-function coefficient pipeline.

A weight configuration determines, for every shape lam of n, the content
product

    r_lam(u_1, ..., u_S) = prod_species prod_{cells (i,j) of lam}
                           G_species(param, (shift + j - i) * u_slot)

where G is the species' weight generating function and each species tracks
its own expansion variable.  No symmetric function indeterminates are ever
materialized: the tau function "is" its power sum coefficient table, which
``characters.spectral_sum``, shared with the combinatorial pipeline, assembles:

    entry(degrees, mu, nu) =
        sum_lam [u^degrees] r_lam * chi_lam(mu) chi_lam(nu) / (z_mu z_nu).

Multidegree truncation is a hard rectangular bound per slot.  The shift
defaults to 0, which is the value at which the coefficients are Hurwitz
numbers; nonzero shifts are supported for the content products and tables
only, with no enumerative meaning claimed.

A table or transfer matrix whose estimated cost (kernel products, or the
Fraction products of its content coefficients scaled by their bit size)
exceeds SPECTRAL_COST_LIMIT raises CapacityError before any content
coefficient is computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

from .characters import character_table, spectral_sum
from .errors import CapacityError
from .partitions import (
    Partition,
    check_partition,
    contents,
    format_partition,
    partition_count,
)
from .qweights import Species, WeightConfig, multidegrees, weight_coefficients
from .series import TruncatedSeries, format_rational, poly_mul


def species_content_coeffs(
    species: Species, shapes, maxdeg: int, shift: int = 0
) -> list[list]:
    """Coefficients, up to degree maxdeg, of the species' content product of each shape.

    One list per shape, in the order of ``shapes``: the product over cells of
    G(param, (shift + content) * u) as a univariate polynomial in the
    species' expansion variable u.  The weights are computed once, and each
    cell factor G(m u) once per distinct shifted content m.  The degree 0
    coefficient is always 1; cells of content -shift contribute nothing.
    """
    weights = weight_coefficients(species.family, species.parameter, maxdeg)
    factors: dict[int, list] = {}
    lists = []
    for lam in shapes:
        poly = [1] + [0] * maxdeg
        for c in contents(lam):
            m = shift + c
            if m == 0:
                continue
            if m not in factors:
                factors[m] = [weights[j] * m**j for j in range(maxdeg + 1)]
            poly = poly_mul(poly, factors[m], maxdeg)
        lists.append(poly)
    return lists


def content_eigenvalues(lists: list, degrees: tuple[int, ...]) -> list:
    """Per shape, the product over species s of lists[s][shape][degrees[s]].

    ``lists`` holds one species_content_coeffs result per species.
    """
    return [prod(coeffs[d] for coeffs, d in zip(shape, degrees)) for shape in zip(*lists)]


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


#: Largest spectral_cost a tau table or transfer matrix may have.
SPECTRAL_COST_LIMIT = 10**7


def spectral_cost(
    config: WeightConfig, maxdeg: tuple[int, ...], blocks: int, shift: int = 0
) -> int:
    """Work estimate, in kernel products, of blocks spectral_sum calls up to maxdeg.

    products * (1 + bits / 2^13)^2, where products counts
      * blocks * p(n)^3 integer products of the kernel, and
      * p(n) * (16 (n - 2)^+ + 1) * sum_s (d_s + 1)^2 Fraction products that
        build the content coefficients: per shape and species, about d^2
        for the weights and, past the first nonzero content, d^2 per cell
        for the polynomial products, each about 16 kernel products.  The
        weights are computed once per species, so the per-shape weight term
        over-estimates; it stays as fitted, which keeps every request's
        admission, and its refit is an open ROADMAP.md item;
    and bits = sum_s d_s * (b_s * d_s + bit length of |shift| + n) is about
    the size of the largest coefficient: b_s * d_s^2 from the weights
    (Species.bits) and d_s factors of a shifted content.  Arithmetic on
    such numbers grows with the square of their size (the gcds of Fraction).
    The constants are fitted to measured times of tau_coefficients.
    """
    n = config.n
    parts = partition_count(n)
    content_bits = (abs(shift) + n).bit_length()
    bits = sum(s.bits * d * d + d * content_bits for s, d in zip(config.species, maxdeg))
    products = blocks * parts**3 + parts * (16 * max(0, n - 2) + 1) * sum(
        (d + 1) ** 2 for d in maxdeg
    )
    return products * (2**13 + bits) ** 2 // 2**26


def check_spectral_cost(
    config: WeightConfig, maxdeg: tuple[int, ...], blocks: int, shift: int = 0
) -> None:
    """Raise CapacityError when spectral_cost exceeds SPECTRAL_COST_LIMIT."""
    cost = spectral_cost(config, maxdeg, blocks, shift)
    if cost > SPECTRAL_COST_LIMIT:
        raise CapacityError(
            f"spectral sum costs about {cost} (kernel products), "
            f"over the limit of {SPECTRAL_COST_LIMIT}"
        )


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
    from .geometric import GEOMETRIC_COST_LIMIT, _geometric_cost

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
    from .combinatorial import multispecies_transfer_matrix
    from .geometric import multispecies_hurwitz_matrix

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
