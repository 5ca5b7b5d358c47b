"""Geometric pipeline: weighted counts of branched coverings.

The unweighted count of n-sheeted branched coverings with profiles
(mu^1, ..., mu^k, mu, nu) is computed by the character sum

    sum over shapes lam of n of
        h_lam^k * (chi_lam(mu)/z_mu) (chi_lam(nu)/z_nu)
        * prod_i chi_lam(mu^i)/z_{mu^i}

which equals 1/n! times the number of tuples (g_1, ..., g_k, a, b) with g_i,
a, b in the respective conjugacy classes and g_1 ... g_k a b = identity.  The
denominator z_mu z_nu prod_i z_{mu^i} does not depend on lam, so the sum is
taken over integers and divided once.  The exhaustive tuple count is kept
alongside as the binding brute-force oracle.

Quantum weighted Hurwitz numbers sum this over ORDERED k-tuples of nontrivial
profiles with fixed total colength d, each tuple carrying the symmetrized
weight of its colengths; ordered tuples paired with the 1/k!-symmetrized
weight is the convention forced by exact agreement with the tau-coefficient
pipeline.  The H family carries the sign (-1)^(k+d); E and E' are unsigned.
Multispecies sums run the same tuple enumeration independently per species,
including the empty collection (k_i = 0), which carries weight 1 and is what
makes zero multidegrees consistent.  A single species is the one-species
multispecies sum: quantum_hurwitz_number is that call.

The branch weights are summed once per multidegree, not once per (mu, nu):
the symmetrized weight does not depend on the order of the colengths, so
each species' signed weight is computed once per sorted colength multiset,
and the weights of all tuples with the same sorted extra profiles are added
up before any covering is counted.  multispecies_hurwitz_matrix reuses that
one table for every (mu, nu).  The leg still counts coverings through
frobenius_hurwitz, one configuration at a time, and uses neither the
spectral kernel characters.spectral_sum nor the content coefficients of the
tau pipeline, so its agreement with the other two legs stays a check.

A sum whose estimated cost (ordered profile tuples times the degree, or the
bit size of the exact weights) exceeds GEOMETRIC_COST_LIMIT raises
CapacityError before any enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .characters import character_table
from .errors import CapacityError
from .partitions import (
    Partition,
    check_partition,
    colength,
    enumerate_partitions,
    partitions_with_colength,
)
from .qweights import Species, WeightConfig, symmetrized_weight
from .sn import GROUP_LIMIT, symmetric_group

#: Largest cover degree for the exhaustive factorization count.
FACTORIZATION_LIMIT = GROUP_LIMIT

#: Largest _geometric_cost a geometric sum may have.
GEOMETRIC_COST_LIMIT = 10**6


@dataclass(frozen=True)
class BranchConfiguration:
    """Branch data of a covering: extra profiles plus the two marked profiles.

    All profiles are partitions of n; the extra profiles must be nontrivial
    (different from the identity class).
    """

    n: int
    extra_profiles: tuple[Partition, ...]
    mu: Partition
    nu: Partition

    def __post_init__(self):
        object.__setattr__(self, "extra_profiles", tuple(
            check_partition(p) for p in self.extra_profiles
        ))
        object.__setattr__(self, "mu", check_partition(self.mu))
        object.__setattr__(self, "nu", check_partition(self.nu))
        if sum(self.mu) != self.n or sum(self.nu) != self.n:
            raise ValueError("mu and nu must be partitions of n")
        for profile in self.extra_profiles:
            if sum(profile) != self.n:
                raise ValueError("every extra profile must be a partition of n")
            if colength(profile) == 0:
                raise ValueError("extra profiles must be nontrivial")


@lru_cache(maxsize=None)
def frobenius_hurwitz(config: BranchConfiguration) -> Fraction:
    """Covering count of the configuration, as a character sum.

    Symmetric under permuting the extra profiles and under swapping mu and
    nu.  With no extra profiles this collapses to delta_{mu,nu} / z_mu.  The
    denominator z_mu z_nu prod_i z_{mu^i} does not depend on lam, so the
    integer numerators are summed and divided once.
    """
    tbl = character_table(config.n)
    classes = [tbl.index(p) for p in (config.mu, config.nu, *config.extra_profiles)]
    k = len(classes) - 2
    numerator = 0
    for row, hook in zip(tbl.values, tbl.hook_products):
        term = hook**k
        for idx in classes:
            term *= row[idx]
        numerator += term
    return Fraction(numerator, prod(tbl.centralizer_orders[idx] for idx in classes))


def enumerate_factorizations(config: BranchConfiguration) -> int:
    """Exhaustive count of tuples (g_1, ..., g_k, a, b) multiplying to the identity.

    g_i runs over the class of extra profile i, a over the class of mu and b
    over the class of nu.  Exactly n! times frobenius_hurwitz; the last factor
    b is determined by the rest, so only (g_1, ..., g_k, a) is enumerated.
    """
    if config.n > FACTORIZATION_LIMIT:
        raise CapacityError(f"factorization counts are limited to n <= {FACTORIZATION_LIMIT}")
    group = symmetric_group(config.n)
    table = group.table
    type_of = group.type_of
    nu = config.nu
    mu_class = group.classes[config.mu]
    count = 0
    class_lists = [group.classes[p] for p in config.extra_profiles]
    for combo in itertools.product(*class_lists):
        acc = group.identity
        for g in combo:
            acc = table[acc][g]
        row = table[acc]
        for a in mu_class:
            if type_of[row[a]] == nu:
                count += 1
    return count


@lru_cache(maxsize=None)
def _profile_tuples(n: int, total: int) -> tuple[tuple[Partition, ...], ...]:
    """Ordered tuples of nontrivial profiles of n with colengths summing to total.

    Only colengths 1..n-1 have profiles, so no other part is tried; a
    one-sheeted cover has none at all.
    """
    if n == 1:
        return ((),) if total == 0 else ()
    pools = [partitions_with_colength(n, c) for c in range(1, min(n - 1, total) + 1)]
    tuples: list[list[tuple[Partition, ...]]] = [[()]]
    for t in range(1, total + 1):
        tuples.append([
            rest + (p,)
            for c, pool in enumerate(pools[:t], start=1)
            for rest in tuples[t - c]
            for p in pool
        ])
    return tuple(tuples[total])


def _tuple_count(n: int, total: int) -> int:
    """len(_profile_tuples(n, total)), counted by the same recursion over colengths."""
    if n == 1:
        return int(total == 0)
    sizes = [len(partitions_with_colength(n, c)) for c in range(1, min(n - 1, total) + 1)]
    counts = [1]
    for t in range(1, total + 1):
        counts.append(sum(size * counts[t - c] for c, size in enumerate(sizes[:t], start=1)))
    return counts[total]


def _geometric_cost(config: WeightConfig, degrees: tuple[int, ...]) -> int:
    """Work estimate of a geometric sum, in profile-tuple terms or weight bits.

    The larger of prod_s N_s * max(1, sum of degrees), where N_s counts the
    ordered profile tuples of species s, and sum_s b_s * d_s^2, where b_s is
    the bit length of species s's rational parameter (1 for a series): the
    exact weights grow to about that many bits, which is what bounds n = 2,
    whose N_s is 1 at every degree.  The weight term is at least the degree
    sum, so a large one is returned before any tuple is counted.  A sum with
    no profile tuple at all (n = 1, a positive degree) costs nothing.
    """
    n = config.n
    bits = sum(species.bits * c * c for species, c in zip(config.species, degrees))
    if n >= 2 and bits > GEOMETRIC_COST_LIMIT:
        return bits
    terms = prod(_tuple_count(n, c) for c in degrees)
    return max(terms * max(1, sum(degrees)), bits) if terms else 0


def _branch_weights(config: WeightConfig, degrees: tuple[int, ...]) -> dict:
    """Summed signed weight of every sorted extra-profile tuple.

    Every species contributes an independent ordered tuple of nontrivial
    profiles (possibly empty when its degree is 0) with colength sum equal to
    its degree, weighted by its symmetrized weight, H-type species carrying
    their (-1)^(k+degree) signs; the weight depends only on the sorted
    colengths, so it is computed once per colength multiset.  Ordered tuples
    with the same profiles are summed per species, and the species are then
    combined into one weight per sorted multiset of all extra profiles.
    """
    n = config.n
    combined: dict[tuple[Partition, ...], object] = {(): 1}
    for species, c in zip(config.species, degrees):
        weights: dict[tuple[int, ...], object] = {}
        leg: dict[tuple[Partition, ...], object] = {}
        for profiles in _profile_tuples(n, c):
            key = tuple(sorted(colength(p) for p in profiles))
            if key not in weights:
                w = symmetrized_weight(species.family, species.parameter, key)
                weights[key] = -w if species.family == "H" and (len(key) + c) % 2 else w
            profiles = tuple(sorted(profiles, reverse=True))
            leg[profiles] = leg.get(profiles, 0) + weights[key]
        merged: dict[tuple[Partition, ...], object] = {}
        for before, w_before in combined.items():
            for profiles, w in leg.items():
                key = tuple(sorted(before + profiles, reverse=True))
                merged[key] = merged.get(key, 0) + w_before * w
        combined = merged
    return combined


def _admitted_degrees(config: WeightConfig, degrees) -> tuple[int, ...]:
    """Validated degrees of a geometric sum whose cost is within the limit."""
    degrees = tuple(int(c) for c in degrees)
    if len(degrees) != len(config.species):
        raise ValueError("one degree per species is required")
    if any(c < 0 for c in degrees):
        raise ValueError("degrees must be nonnegative")
    cost = _geometric_cost(config, degrees)
    if cost > GEOMETRIC_COST_LIMIT:
        raise CapacityError(
            f"geometric sum costs about {cost} (profile-tuple terms or weight bits), "
            f"over the limit of {GEOMETRIC_COST_LIMIT}"
        )
    return degrees


def _weighted_count(n: int, branch_weights: dict, mu: Partition, nu: Partition):
    """Sum of covering counts times branch weights, one configuration each."""
    total = 0
    for profiles, weight in branch_weights.items():
        total = total + weight * frobenius_hurwitz(BranchConfiguration(n, profiles, mu, nu))
    return total


def quantum_hurwitz_number(family: str, q, d: int, mu: Partition, nu: Partition):
    """Weighted count of coverings with total extra colength d, single species.

    The one-species case of multispecies_hurwitz_number; q is validated by
    Species.  d = 0 gives delta_{mu,nu}/z_mu.
    """
    mu = check_partition(mu)
    config = WeightConfig((Species(family, q, 1),), sum(mu))
    return multispecies_hurwitz_number(config, (d,), mu, nu)


def multispecies_hurwitz_number(
    config: WeightConfig, degrees: tuple[int, ...], mu: Partition, nu: Partition
):
    """Weighted covering count with per-species colength totals fixed by degrees.

    Sums the covering count of every extra-profile multiset times its
    branch weight (see _branch_weights).  A sum whose _geometric_cost exceeds
    GEOMETRIC_COST_LIMIT raises CapacityError before any enumeration.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    n = config.n
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("mu and nu must be partitions of the configuration degree")
    degrees = _admitted_degrees(config, degrees)
    return _weighted_count(n, _branch_weights(config, degrees), mu, nu)


def multispecies_hurwitz_matrix(config: WeightConfig, degrees: tuple[int, ...]) -> dict:
    """multispecies_hurwitz_number for every pair (mu, nu) of partitions of n.

    Returns {(mu, nu): value}; the branch weights are summed once for all
    pairs.  Same cost limit as the single entry.
    """
    branch_weights = _branch_weights(config, _admitted_degrees(config, degrees))
    parts = enumerate_partitions(config.n)
    return {
        (mu, nu): _weighted_count(config.n, branch_weights, mu, nu)
        for mu in parts
        for nu in parts
    }
