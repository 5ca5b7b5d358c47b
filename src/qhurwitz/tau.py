"""The hypergeometric tau-function coefficient table and the three-pipeline triangle.

A weight configuration determines, for every shape lam of n, the content
product

    r_lam(u_1, ..., u_S) = prod_s prod_{cells (i,j) of lam}
                           G_s(param_s, (shift + j - i) * u_s)

where G_s is the weight generating function of the s-th species and u_s its
expansion variable.  No symmetric function indeterminates are ever
materialized: the tau function "is" its power sum coefficient table, which
the spectral layer (``spectral``), shared with the combinatorial
pipeline, assembles from the per-species content lists:

    entry(degrees, mu, nu) =
        sum_lam [u^degrees] r_lam * chi_lam(mu) chi_lam(nu) / (z_mu z_nu).

A table holds every multidegree componentwise at most maxdeg.  One
eigenvalue_blocks call over the degree sets range(m_s + 1) forms all their
blocks as per-species outer products, and one spectral_sum call sums the
upper triangle of each, which CharacterTable.symmetric lays out as a tuple
of rows over character_table(n).partitions, the one form of a Hurwitz
matrix that all three legs and the triangle judge share.  The CLI's
compute tau does not run this module: it writes the texts of
spectral_numerators' integer numerators, the core that spectral_sum wraps
into these Fractions.

The degree-t coefficient of r_lam in the u variables is a symmetric
polynomial of degree <= t in the contents of lam, so its central element
is a polynomial of degree <= t in the Jucys-Murphy elements, which lies in
the span of the class sums of colength <= t (Jucys 1974).  So
entry(degrees, mu, nu) is 0 whenever |colength(mu) - colength(nu)| >
sum(degrees), and the kernel sums only inside that window.  The geometric
leg sums every colength class, so the triangle checks the window.  The shift
defaults to 0, which is the value at which the coefficients are Hurwitz
numbers; nonzero shifts are supported for the content products and tables
only, with no enumerative meaning claimed.  A table whose spectral_cost
exceeds SPECTRAL_COST_LIMIT raises CapacityError before any content
coefficient is computed.

tau_row gives per multidegree one row of the table, or one entry, from the
same blocks by spectral_sum given the pairs (mu, nu), admitted by the
whole table's spectral_cost.

verify_triangle compares the table with the geometric and combinatorial
pipelines row by row, and entry by entry only in a row that differs.
check_triangle_bounds admits a suite of n by the costs its legs check,
summed over the suite: no bound of its own on n or on the degrees.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from . import combinatorial, geometric
from .characters import character_table
from .errors import CapacityError
from .partitions import Partition, check_partition, format_partition
from .qweights import WeightConfig, multidegrees
from .scalars import RATIONAL, Immutable, format_rational, sized_text
from .spectral import (
    SPECTRAL_COST_LIMIT,
    eigenvalue_blocks,
    spectral_cost,
    spectral_sum,
    species_content_coeffs,
)


def content_product_coeffs(
    config: WeightConfig, lam: Partition, maxdeg: tuple[int, ...], shift: int = 0
) -> dict[tuple[int, ...], object]:
    """Multidegree-truncated coefficients of the full content product of lam.

    Keys run over the whole rectangle of multidegrees componentwise at most
    maxdeg; each species contributes only powers of its own slot variable, so
    the table is the outer product of the per-species coefficient lists, each
    numerator read over its denominator (a Fraction in rational mode).  It
    is the one-shape reference the tests compare the pipelines against.
    """
    lam = check_partition(lam)
    if sum(lam) != config.n:
        raise ValueError(f"lam must be a partition of {config.n}")
    maxdeg = config.degrees(maxdeg)
    per_species = [species_content_coeffs(s, [lam], m, shift) for s, m in zip(config.species, maxdeg)]
    return {
        degrees: prod(coeffs[d] / Fraction(p[d]) for ([coeffs], p), d in zip(per_species, degrees))
        for degrees in multidegrees(maxdeg)
    }


class HurwitzTable(Immutable):
    """Hurwitz numbers per multidegree, each block a symmetric matrix as CharacterTable.symmetric lays it out.

    ``matrices`` maps every multidegree componentwise at most maxdeg, in
    multidegrees(maxdeg) order, to a tuple of rows over
    character_table(n).partitions: ``matrices[degrees][i][j]`` is the entry
    of (degrees, partitions[i], partitions[j]), equal to the entry at
    (j, i).  The zero-multidegree block is the diagonal delta_{mu,nu} / z_mu.
    entry() indexes through the character table: a partition not of n
    raises ValueError, a multidegree outside the box KeyError.
    """

    _fields = ("n", "maxdeg", "matrices")

    def __init__(self, n: int, maxdeg: tuple[int, ...], matrices: dict):
        self._set(n, maxdeg, matrices)

    def entry(self, degrees: tuple[int, ...], mu: Partition, nu: Partition):
        tbl = character_table(self.n)
        return self.matrices[tuple(degrees)][tbl.index(mu)][tbl.index(nu)]

    @property
    def entries(self) -> dict:
        """A new {(degrees, mu, nu): value} dict over every entry, in multidegree, mu, nu order."""
        parts = character_table(self.n).partitions
        values = itertools.chain.from_iterable(itertools.chain.from_iterable(self.matrices.values()))
        return dict(zip(itertools.product(self.matrices, parts, parts), values))


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
    tbl, keys, blocks = eigenvalue_blocks(config, [range(m + 1) for m in maxdeg], shift)
    matrices = {key: tbl.symmetric(values) for key, values in zip(keys, spectral_sum(tbl, blocks))}
    return HurwitzTable(n=config.n, maxdeg=maxdeg, matrices=matrices)


def tau_row(
    config: WeightConfig, maxdeg: tuple[int, ...], mu: Partition, nu: Partition | None = None, shift: int = 0
) -> dict:
    """{degrees: row}: per multidegree of tau_coefficients(config, maxdeg, shift), the row of mu.

    A row is the tuple of the entries of (mu, nu) over
    character_table(n).partitions, or, with nu given, the 1-tuple of that
    one entry.  The table is symmetric, so the row of mu is its column too.
    It takes about p(n)^2 / 2 kernel products per multidegree, one entry
    p(n) (spectral_sum given the pairs (mu, nu)), and is admitted by the
    whole table's spectral_cost, so a request is refused exactly where its
    table would be.  A partition not of n raises ValueError once admitted.
    """
    tbl, keys, blocks = eigenvalue_blocks(config, [range(m + 1) for m in config.degrees(maxdeg)], shift)
    i = tbl.index(mu)
    pairs = [(i, j) for j in (range(len(tbl.partitions)) if nu is None else [tbl.index(nu)])]
    return dict(zip(keys, spectral_sum(tbl, blocks, pairs)))


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
    geometric_total = spectral_total = 0
    for n in range(config.n if first_n is None else first_n, config.n + 1):
        suite_config = WeightConfig(config.species, n)
        geometric_total += geometric._geometric_cost(suite_config, ranges)
        spectral_total += 2 * spectral_cost(suite_config, maxdeg, blocks)
        if geometric_total > geometric.GEOMETRIC_COST_LIMIT or spectral_total > SPECTRAL_COST_LIMIT:
            raise CapacityError(
                f"triangle suite costs at least {sized_text(geometric_total, 'a number')} (walk steps and "
                f"matrix terms scaled by weight bits) and {sized_text(spectral_total, 'a number')} (kernel "
                f"products), over the limit of {geometric.GEOMETRIC_COST_LIMIT} or {SPECTRAL_COST_LIMIT}"
            )


def _value_text(value) -> str:
    """A discrepancy value: "numerator/denominator" for a rational, str of a series."""
    return format_rational(value) if isinstance(value, RATIONAL) else str(value)


def verify_triangle(config: WeightConfig, maxdeg: tuple[int, ...]) -> TriangleReport:
    """Compare the geometric, combinatorial and tau pipelines entrywise.

    Exact rational equality is demanded; any discrepancy is reported, not
    raised, in multidegree, then mu, then nu order.  The three legs' rows
    over character_table(n).partitions are walked together, and only a row
    whose three tuples differ is compared entry by entry.  The one bound is
    check_triangle_bounds at this n: the costs that the three legs check,
    summed; past it CapacityError.
    """
    maxdeg = config.degrees(maxdeg)
    check_triangle_bounds(config, maxdeg)
    table = tau_coefficients(config, maxdeg)
    parts = character_table(config.n).partitions
    comb_matrices = combinatorial.multispecies_transfer_matrices(config, maxdeg)
    geom_matrices = geometric.multispecies_hurwitz_matrices(config, maxdeg)
    discrepancies = []
    for degrees, tau_rows in table.matrices.items():
        legs = zip(parts, geom_matrices[degrees], comb_matrices[degrees].rows, tau_rows, strict=True)
        for mu, geom_row, comb_row, tau_row in legs:
            if geom_row == comb_row == tau_row:
                continue
            for nu, geom_value, comb_value, tau_value in zip(parts, geom_row, comb_row, tau_row, strict=True):
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
        checked=len(table.matrices) * len(parts) ** 2,
        discrepancies=tuple(discrepancies),
    )
