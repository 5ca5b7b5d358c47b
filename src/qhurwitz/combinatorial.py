"""Combinatorial pipeline: weighted transposition paths and transfer matrices.

A length-d path is a product (a_1 b_1) ... (a_d b_d) h of transpositions
(a < b) applied to an element h; its signature is the partition of d whose
parts are the sizes of the groups of steps sharing a second element b.  A
path is ordered when equal-b steps are consecutive and the run values
strictly increase, i.e. when the b-sequence is weakly increasing.

Path count normalization: the class-to-class count of signature lam is

    m~[lam] = (1/n!) #{(h, seq) : h in class(mu), signature(seq) = lam,
                       product(seq) * h in class(nu)}

and m[lam] is the same with ordered sequences only; they are related by the
multinomial factor |lam|! / prod(lam_i!).  This 1/n! pair-count convention is
the one forced by exact agreement with the geometric and tau pipelines (the
n = 2, d = 1 entry already pins it down uniquely), and the brute-force
enumeration here is the oracle that validates it.

At production scale the weighted path counts are computed spectrally: the
weight generating function evaluated on the Jucys-Murphy elements is a
central element, its matrix on the class-sum basis is

    F^c(mu, nu) = sum_lam [u^c] r_lam * chi_lam(mu) chi_lam(nu) / z_mu

with r_lam the content product, and the Hurwitz-normalized entry F^c/z_nu is
the pipeline-comparison value.  ``spectral.spectral_sum`` sums that
symmetric matrix, as in the tau pipeline, and a TransferMatrix holds it as
returned; its class-basis entry multiplies by z_nu.  The matrices commute;
multispecies counts multiply eigenvalues.  One entry, as a point request
asks for it, is the entry form ``spectral.spectral_row``: one p(n)-term dot
product per block instead of the whole matrix.

The brute-force oracles run only ``sn`` and the character tables: the
weights, the spectral layer and series mode are reached as module objects
when a function calls into them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import qweights, series, sn, spectral
from .characters import character_table
from .errors import CapacityError
from .partitions import Partition, _is_int, check_partition, enumerate_partitions
from .scalars import Immutable

#: Brute-force path enumeration bounds ((n choose 2)^d sequences).
PATH_LIMIT_N = 5
PATH_LIMIT_D = 4

#: Largest n for the explicit group-algebra eigenvalue check.
JM_LIMIT = 5


def signature_of(steps) -> tuple[Partition, bool]:
    """Signature and ordered flag of a transposition sequence.

    Steps are (a, b) pairs with a < b.  The signature groups steps by equal
    second element over the whole sequence; the flag is True when equal-b
    steps are consecutive with strictly increasing values across runs.
    """
    seconds = []
    for a, b in steps:
        if not 1 <= a < b:
            raise ValueError(f"steps need 1 <= a < b, got ({a}, {b})")
        seconds.append(b)
    signature = tuple(sorted(Counter(seconds).values(), reverse=True))
    ordered = all(seconds[i] <= seconds[i + 1] for i in range(len(seconds) - 1))
    return signature, ordered


def path_counts(
    n: int, d: int, mu: Partition, nu: Partition
) -> dict[Partition, tuple[Fraction, Fraction]]:
    """Brute-force class-to-class path counts by signature.

    Returns {signature: (m, m~)} over all partitions of d, with m the ordered
    count and m~ the unrestricted count, both 1/n!-normalized as in the
    module docstring.  n and d must be ints (a bool or any other number
    raises ValueError).
    """
    if not (_is_int(n) and _is_int(d)):
        raise ValueError(f"n and d must be ints, got {n!r} and {d!r}")
    if d < 0:
        raise ValueError("d must be nonnegative")
    return dict(_path_counts(n, d, check_partition(mu), check_partition(nu)))


@lru_cache(maxsize=None)
def _path_counts(
    n: int, d: int, mu: Partition, nu: Partition
) -> dict[Partition, tuple[Fraction, Fraction]]:
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("mu and nu must be partitions of n")
    if n > PATH_LIMIT_N or d > PATH_LIMIT_D:
        raise CapacityError(
            f"path enumeration is limited to n <= {PATH_LIMIT_N}, d <= {PATH_LIMIT_D}"
        )
    group = sn.symmetric_group(n)
    elements, index, type_of = group.elements, group.index, group.type_of
    mu_class = [elements[h] for h in group.classes[mu]]
    steps = group.transpositions()
    # Only the products the walk reads are formed, each once: a step from an
    # element reached, and an element reached times the class of mu, whose
    # hits depend on that element alone.  No multiplication table is built.
    step: dict[tuple[int, int], int] = {}
    hits_at: dict[int, int] = {}
    ordered_raw: dict[Partition, int] = {}
    all_raw: dict[Partition, int] = {}
    for seq in itertools.product(steps, repeat=d):
        signature, ordered = signature_of([(a, b) for a, b, _ in seq])
        acc = group.identity
        for _, _, idx in seq:
            if (acc, idx) not in step:
                step[acc, idx] = index[sn.compose(elements[acc], elements[idx])]
            acc = step[acc, idx]
        if acc not in hits_at:
            g = elements[acc]
            hits_at[acc] = sum(1 for h in mu_class if type_of[index[sn.compose(g, h)]] == nu)
        hits = hits_at[acc]
        if not hits:
            continue
        all_raw[signature] = all_raw.get(signature, 0) + hits
        if ordered:
            ordered_raw[signature] = ordered_raw.get(signature, 0) + hits
    scale = factorial(n)
    return {
        lam: (
            Fraction(ordered_raw.get(lam, 0), scale),
            Fraction(all_raw.get(lam, 0), scale),
        )
        for lam in enumerate_partitions(d)
    }


class TransferMatrix(Immutable):
    """Symmetric Hurwitz matrix of a central element, canonical order.

    rows[i][j] is the Hurwitz-normalized entry of mu = partitions[i] and
    nu = partitions[j], partitions those of character_table(n): the matrix
    spectral_sum returns.  On the class-sum basis the element's matrix is
    that times z_nu (entry).  Matrices over a fixed n commute with each other.
    """

    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[object, ...], ...]):
        self._set(n, rows)

    def entry(self, mu: Partition, nu: Partition):
        """Coefficient of the class nu in the image of the class mu."""
        table = character_table(self.n)
        j = table.index(nu)
        return self.rows[table.index(mu)][j] * table.centralizer_orders[j]

    def hurwitz_entry(self, mu: Partition, nu: Partition):
        table = character_table(self.n)
        return self.rows[table.index(mu)][table.index(nu)]

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        """Hurwitz form of the class-basis product: H_a Z H_b, Z = diag(z_nu)."""
        if self.n != other.n:
            raise ValueError("matrices must share the same class basis")
        z = character_table(self.n).centralizer_orders
        size = len(self.rows)
        rows = tuple(
            tuple(
                sum((self.rows[i][k] * z[k] * other.rows[k][j] for k in range(size)), 0)
                for j in range(size)
            )
            for i in range(size)
        )
        return TransferMatrix(n=self.n, rows=rows)


def transfer_matrix(species: qweights.Species, degree: int, n: int) -> TransferMatrix:
    """Matrix of the degree-``degree`` part of the species' central element.

    Entries are sum_lam [u^degree] r_lam * chi_lam(mu) chi_lam(nu) / z_mu;
    degree 0 is the identity matrix.
    """
    return multispecies_transfer_matrix(qweights.WeightConfig((species,), n), (degree,))


def multispecies_transfer_matrix(config: qweights.WeightConfig, degrees: tuple[int, ...]) -> TransferMatrix:
    """Product of the per-species transfer matrices at the given degrees.

    One spectral_sum over the products of the per-species eigenvalues equals
    the left-to-right ``@`` chain exactly; the factors commute.
    """
    degrees = config.degrees(degrees)
    return _transfer_matrices(config, degrees, [degrees])[degrees]


def multispecies_transfer_matrices(config: qweights.WeightConfig, maxdeg: tuple[int, ...]) -> dict:
    """{degrees: multispecies_transfer_matrix(config, degrees)} for every multidegree up to maxdeg.

    Each species' content lists are built once, at its maxdeg: the list of a
    lower degree is a prefix of that one.
    """
    maxdeg = config.degrees(maxdeg)
    return _transfer_matrices(config, maxdeg)


def _transfer_matrices(config: qweights.WeightConfig, maxdeg: tuple[int, ...], degree_list=None) -> dict:
    """One TransferMatrix per multidegree of degree_list (every one up to maxdeg by default).

    The matrices are admitted by one spectral_cost before any content list
    (spectral.eigenvalue_blocks); one spectral_sum makes them all.
    """
    tbl, degree_list, blocks = spectral.eigenvalue_blocks(config, maxdeg, degree_list=degree_list)
    matrices = spectral.spectral_sum(tbl, blocks)
    return {
        degrees: TransferMatrix(n=config.n, rows=rows) for degrees, rows in zip(degree_list, matrices)
    }


def multispecies_hurwitz_entry(
    config: qweights.WeightConfig, degrees: tuple[int, ...], mu: Partition, nu: Partition
):
    """multispecies_transfer_matrix(config, degrees).hurwitz_entry(mu, nu), by the entry form.

    The entry is one p(n)-term dot product (spectral.spectral_row), not a
    matrix, and it is admitted by the same spectral_cost as that matrix, so
    a request is refused exactly where the matrix would be.  mu and nu are
    partitions of n (anything else raises ValueError after admission).
    """
    degrees = config.degrees(degrees)
    tbl, _, blocks = spectral.eigenvalue_blocks(config, degrees, degree_list=[degrees])
    [[value]] = spectral.spectral_row(tbl, blocks, tbl.index(mu), [tbl.index(nu)])
    return value


def _single_species_request(family: str, q, mu: Partition, nu: Partition):
    """(species, mu, nu) of a one-species path count, validated the same for both counts."""
    species = qweights.Species(family=family, parameter=q)
    mu = check_partition(mu)
    nu = check_partition(nu)
    if sum(mu) != sum(nu):
        raise ValueError("mu and nu must have equal weight")
    return species, mu, nu


def combinatorial_hurwitz_number(family: str, q, d: int, mu: Partition, nu: Partition):
    """Weighted path count from class mu to class nu with d steps.

    The Hurwitz-normalized transfer matrix entry, by the entry form;
    weighted_path_count is its brute-force oracle.
    """
    species, mu, nu = _single_species_request(family, q, mu, nu)
    return multispecies_hurwitz_entry(qweights.WeightConfig((species,), sum(mu)), (d,), mu, nu)


def weighted_path_count(family: str, q, d: int, mu: Partition, nu: Partition):
    """combinatorial_hurwitz_number by brute-force path enumeration.

    Applies the per-signature weights prod(lam_i! g_{lam_i}) / d! to the
    unrestricted counts of path_counts, where g is the family coefficient
    sequence.  The family and q are validated through the same Species.
    """
    species, mu, nu = _single_species_request(family, q, mu, nu)
    counts = path_counts(sum(mu), d, mu, nu)
    weights = qweights.weight_coefficients(species.family, species.parameter, d)
    total = 0
    for lam, (_, unrestricted) in counts.items():
        if not unrestricted:
            continue
        weight = 1
        for part in lam:
            weight = weight * (factorial(part) * weights[part])
        total = total + weight * unrestricted
    return total * Fraction(1, factorial(d))


def jucys_murphy_eigenvalue_check(config: qweights.WeightConfig, lam: Partition, max_degree: int) -> bool:
    """Check the central element acts on the shape-lam idempotent by its content product.

    Builds prod_a G(params, J_a * slot variables) explicitly in the group
    algebra (J_a the Jucys-Murphy elements), truncated at total slot degree
    max_degree, applies it to F_lam = (1/h_lam) sum_mu chi_lam(mu) C_mu, and
    compares with the content product eigenvalue times F_lam.  The expansion
    is pure group-algebra arithmetic, with no character theory on the product
    side, so the diagonalization statement is tested rather than assumed.
    The eigenvalue is the species_content_coeffs lists the tau and
    combinatorial pipelines use, each integer numerator read over its P_d
    as Fraction(numerator, P_d), so the check guards them too.
    """
    lam = check_partition(lam)
    n = config.n
    if sum(lam) != n:
        raise ValueError("lam must be a partition of the configuration degree")
    if n > JM_LIMIT:
        raise CapacityError(f"the eigenvalue check is limited to n <= {JM_LIMIT}")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    variables = tuple(f"u{i}" for i in range(1, len(config.species) + 1))
    cap = max_degree
    group = sn.symmetric_group(n)

    def term(var_index: int, power: int, coeff) -> series.TruncatedSeries:
        """coeff * u^power in the variable of species var_index."""
        expo = tuple(power if i == var_index else 0 for i in range(len(variables)))
        return series.TruncatedSeries(variables, cap, {expo: coeff})

    coeff_lists = [qweights.weight_coefficients(s.family, s.parameter, cap) for s in config.species]

    one = series.TruncatedSeries.one(variables, cap)
    product: dict[int, object] = {group.identity: one}
    for a in range(2, n + 1):
        jm = {group.transposition(b, a): Fraction(1) for b in range(1, a)}
        jm_powers: list[dict[int, object]] = [{group.identity: Fraction(1)}]
        for _ in range(cap):
            jm_powers.append(sn.algebra_mul(jm_powers[-1], jm, group))
        # Coefficient of J_a^t, summed over per-species degree splits of t.
        factor: dict[int, object] = {}
        for split in qweights.multidegrees((cap,) * len(variables)):
            t = sum(split)
            if t > cap:
                continue
            scalar = one
            for var_index, power in enumerate(split):
                scalar = scalar * term(var_index, power, coeff_lists[var_index][power])
            for g, c in jm_powers[t].items():
                factor[g] = factor.get(g, 0) + scalar * c
        product = sn.algebra_mul(product, factor, group)

    tbl = character_table(n)
    lam_index = tbl.index(lam)
    hook = tbl.hook_products[lam_index]
    idempotent: dict[int, Fraction] = {}
    for i, g_type in enumerate(group.type_of):
        value = Fraction(tbl.values[lam_index][tbl.index(g_type)], hook)
        if value:
            idempotent[i] = value

    eigenvalue = one
    for var_index, species in enumerate(config.species):
        [coeffs], denominators = spectral.species_content_coeffs(species, [lam], cap)
        values = map(Fraction, coeffs, denominators)
        eigenvalue = eigenvalue * sum(term(var_index, m, c) for m, c in enumerate(values))

    left = sn.algebra_mul(product, idempotent, group)
    right = {g: eigenvalue * c for g, c in idempotent.items()}
    right = {g: v for g, v in right.items() if v}
    if set(left) != set(right):
        return False
    return all(left[g] == right[g] for g in left)
