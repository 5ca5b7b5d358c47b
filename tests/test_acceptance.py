"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its full stated scale,
demands exact rational equality (zero tolerance everywhere), and prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from qhurwitz import (
    BranchConfiguration,
    Species,
    TruncatedSeries,
    WeightConfig,
    centralizer_order,
    character_table,
    colength,
    combinatorial_hurwitz_number,
    enumerate_factorizations,
    enumerate_partitions,
    frobenius_hurwitz,
    jucys_murphy_eigenvalue_check,
    multispecies_hurwitz_entry,
    path_counts,
    tau_coefficients,
    transfer_matrix,
    verify_triangle,
    weight_coefficient,
    weight_coefficients,
    weighted_path_count,
)
from qhurwitz import sn
from test_geometric import reference_profile_tuples
from test_qseries import quantum_dilog_coeffs
from test_series import poly_exp, poly_mul

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


def report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def two_species_config(n: int) -> WeightConfig:
    return WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=n)


def test_criterion_1_triangle_equality():
    """Geometric = combinatorial = tau, exactly, across the stated grid."""
    failures = []
    for family in ("E", "H"):
        for q in (HALF, THIRD):
            for n in (2, 3, 4):
                config = WeightConfig(species=(Species(family, q),), n=n)
                result = verify_triangle(config, (3,))
                if not result.ok:
                    failures.append((family, str(q), n, result.discrepancies[:2]))
    for n in (2, 3):
        result = verify_triangle(two_species_config(n), (2, 2))
        if not result.ok:
            failures.append(("E+H", n, result.discrepancies[:2]))
    report("criterion 1: triangle equality", failures)


def test_criterion_2_frobenius_vs_brute_force():
    """n! * character sum equals the exhaustive factorization count."""
    failures = []
    for n in range(2, 6):
        parts = enumerate_partitions(n)
        tuples = [
            extra
            for total in range(0, 4)
            for extra in reference_profile_tuples(n, total)
            if len(extra) <= 3
        ]
        for extra in tuples:
            for mu in parts:
                for nu in parts:
                    config = BranchConfiguration(extra, mu, nu)
                    lhs = factorial(n) * frobenius_hurwitz(config)
                    rhs = enumerate_factorizations(config)
                    if lhs != rhs:
                        failures.append((n, extra, mu, nu, str(lhs), rhs))
    report("criterion 2: Frobenius character sum vs brute force", failures)


def test_criterion_3_qseries_identities():
    """Product expansions and dilogarithm exponentials at K=12, z-degree 8."""
    cap, zdeg = 12, 8
    failures = []

    def geometric(base):
        return [base**j for j in range(zdeg + 1)]

    q = TruncatedSeries.variable("q", cap)

    products = {"E": [1] + [0] * zdeg, "E'": [1] + [0] * zdeg, "H": [1] + [0] * zdeg}
    for k in range(cap + 1):
        products["E"] = poly_mul(products["E"], [1, q**k], zdeg)
        if k >= 1:
            products["E'"] = poly_mul(products["E'"], [1, q**k], zdeg)
        products["H"] = poly_mul(products["H"], geometric(q**k), zdeg)

    def closed(family, i):
        return weight_coefficient(family, q, i)

    for family, coeffs in products.items():
        for i in range(zdeg + 1):
            if coeffs[i] != closed(family, i):
                failures.append(("product", family, i))

    dilog = [0] + list(quantum_dilog_coeffs(q, zdeg))
    dilog_minus = [c * Fraction(-1) ** k for k, c in enumerate(dilog)]
    exp_e = poly_exp([-c for c in dilog_minus], zdeg)
    exp_h = poly_exp(dilog, zdeg)
    alternating = [Fraction(-1) ** j for j in range(zdeg + 1)]
    exp_eprime = poly_mul(alternating, exp_e, zdeg)
    for family, side in (("E", exp_e), ("H", exp_h), ("E'", exp_eprime)):
        for i in range(zdeg + 1):
            if side[i] != closed(family, i):
                failures.append(("exponential", family, i))
    report("criterion 3: q-series identities in series mode", failures)


def test_criterion_4_character_table_invariants():
    """Both orthogonality relations and sum of squared dimensions, n <= 8."""
    failures = []
    for n in range(1, 9):
        table = character_table(n)
        size = len(table.partitions)
        for i in range(size):
            for j in range(size):
                row_sum = sum(
                    Fraction(
                        table.values[i][k] * table.values[j][k],
                        table.centralizer_orders[k],
                    )
                    for k in range(size)
                )
                if row_sum != (1 if i == j else 0):
                    failures.append(("row", n, i, j))
                column_sum = sum(
                    table.values[k][i] * table.values[k][j] for k in range(size)
                )
                if column_sum != (table.centralizer_orders[i] if i == j else 0):
                    failures.append(("column", n, i, j))
        dims = [table.values[k][-1] for k in range(size)]
        if sum(d * d for d in dims) != factorial(n):
            failures.append(("dimensions", n))
    report("criterion 4: character table invariants", failures)


def test_criterion_5_path_count_oracle():
    """Brute-force path counts equal the spectral values; multinomial relation."""
    failures = []
    for n in (2, 3, 4):
        parts = enumerate_partitions(n)
        for d in range(0, 4):
            for mu in parts:
                for nu in parts:
                    counts = path_counts(n, d, mu, nu)
                    for lam, (ordered, unrestricted) in counts.items():
                        expected = Fraction(
                            factorial(sum(lam)), prod(factorial(p) for p in lam)
                        ) * ordered
                        if unrestricted != expected:
                            failures.append(("multinomial", n, d, mu, nu, lam))
                    for family in ("E", "H"):
                        via_paths = weighted_path_count(family, HALF, d, mu, nu)
                        via_matrix = combinatorial_hurwitz_number(family, HALF, d, mu, nu)
                        if via_paths != via_matrix:
                            failures.append((family, n, d, mu, nu))
    report("criterion 5: path count oracle vs spectral", failures)


@lru_cache(maxsize=None)
def species_paths(n: int, species: Species, d: int) -> dict:
    """{element index of S_n: weight}: one species' weighted monotone paths of d steps, summed by their product.

    A path is d transpositions (a b), a < b, weakly increasing in b; it
    weighs the product over its runs of equal b of g[run length], g the
    species' weight_coefficients.  Each path's product is formed once per
    (n, species, d), by the dense multiplication table of sn.
    """
    group = sn.symmetric_group(n)
    g = weight_coefficients(species.family, species.parameter, d)
    sums = {}
    for path in itertools.product(group.transpositions(), repeat=d):
        seconds = [b for _, b, _ in path]
        if any(x > y for x, y in zip(seconds, seconds[1:])):
            continue
        product = group.identity
        for *_, step in path:
            product = group.table[product][step]
        weight = prod(g[len(list(run))] for _, run in itertools.groupby(seconds))
        sums[product] = sums.get(product, 0) + weight
    return sums


def multispecies_path_entries(config: WeightConfig, degrees) -> dict:
    """{(mu, nu): the paper's multispecies path count at degrees}, by brute force.

    A path of degrees (d_1..d_S) is sum_s d_s transpositions cut into
    consecutive segments of d_s steps, segment s one species' weighted
    monotone path (species_paths); the path weighs the product of its
    segments' weights.  The entry of (mu, nu) is 1/n! times the weighted
    count of the pairs (path, h), h in the class of mu, whose product lies
    in the class of nu.
    """
    group = sn.symmetric_group(config.n)
    paths = {group.identity: 1}
    for species, d in zip(config.species, degrees):
        paths = sn.algebra_mul(paths, species_paths(config.n, species, d), group)
    entries = {}
    for mu, members in group.classes.items():
        for product, weight in paths.items():
            for h in members:
                key = mu, group.type_of[group.table[product][h]]
                entries[key] = entries.get(key, 0) + weight * Fraction(1, factorial(config.n))
    return entries


def test_criterion_5b_multispecies_path_oracle():
    """Brute-force multispecies weighted path counts equal the spectral entries."""
    failures = []
    configs = [
        (Species("E", HALF), Species("H", THIRD)),
        (Species("H", FIFTH), Species("E'", Fraction(2, 7)), Species("E", -THIRD)),
    ]
    for species in configs:
        for n in (2, 3, 4, 5):
            config = WeightConfig(species, n)
            parts = enumerate_partitions(n)
            for degrees in itertools.product(range(3), repeat=len(species)):
                if sum(degrees) > 4:
                    continue
                paths = multispecies_path_entries(config, degrees)
                for mu in parts:
                    for nu in parts:
                        if paths.get((mu, nu), 0) != multispecies_hurwitz_entry(config, degrees, mu, nu):
                            failures.append((config, degrees, mu, nu))
    report("criterion 5b: multispecies path oracle vs spectral", failures)


def test_criterion_6_transfer_matrix_commutativity():
    """Zero commutators among all species/degree matrices, n <= 5."""
    failures = []
    species = (Species("E", HALF), Species("E", THIRD), Species("H", FIFTH))
    for n in range(2, 6):
        matrices = {
            f"{s.describe()}^{degree}": transfer_matrix(s, degree, n)
            for s in species
            for degree in range(0, 4)
        }
        for (a_name, a), (b_name, b) in itertools.combinations(matrices.items(), 2):
            if (a @ b).rows != (b @ a).rows:
                failures.append((n, a_name, b_name))
    report("criterion 6: transfer matrix commutativity", failures)


def test_criterion_7_jucys_murphy_eigenvalues():
    """Explicit group-algebra product acts diagonally with content eigenvalues."""
    failures = []
    for n in range(1, 5):
        config = WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=n
        )
        for lam in enumerate_partitions(n):
            if not jucys_murphy_eigenvalue_check(config, lam, 2):
                failures.append((n, lam))
    report("criterion 7: Jucys-Murphy eigenvalue relation", failures)


def test_criterion_8_degree_zero_and_parity():
    """Zero-multidegree block is diagonal, parity rule kills odd entries."""
    failures = []
    tables = []
    for family, q, n in (("E", HALF, 2), ("E", THIRD, 3), ("H", HALF, 4)):
        config = WeightConfig(species=(Species(family, q),), n=n)
        tables.append(tau_coefficients(config, (3,)))
    for n in (2, 3):
        tables.append(tau_coefficients(two_species_config(n), (2, 2)))
    for table in tables:
        parts = enumerate_partitions(table.n)
        zero = (0,) * len(table.maxdeg)
        for mu in parts:
            for nu in parts:
                expected = Fraction(1, centralizer_order(mu)) if mu == nu else 0
                if table.entry(zero, mu, nu) != expected:
                    failures.append(("zero block", table.n, mu, nu))
        for degrees in table.matrices:
            total = sum(degrees)
            for mu in parts:
                for nu in parts:
                    if (colength(mu) + total) % 2 != colength(nu) % 2:
                        if table.entry(degrees, mu, nu) != 0:
                            failures.append(("parity", table.n, degrees, mu, nu))
    report("criterion 8: degree zero block and parity vanishing", failures)
