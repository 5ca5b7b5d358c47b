"""Geometric pipeline: weighted counts of branched coverings.

The unweighted count of n-sheeted branched coverings with profiles
(mu^1, ..., mu^k, mu, nu) is computed by the character sum

    sum over shapes lam of n of
        h_lam^k * (chi_lam(mu)/z_mu) (chi_lam(nu)/z_nu)
        * prod_i chi_lam(mu^i)/z_{mu^i}

which equals 1/n! times the number of tuples (g_1, ..., g_k, a, b) with g_i,
a, b in the respective conjugacy classes and g_1 ... g_k a b = identity.  The
exhaustive tuple count is kept alongside as the binding brute-force oracle.

Quantum weighted Hurwitz numbers sum this over ORDERED k-tuples of nontrivial
profiles with fixed total colength d, each tuple carrying the symmetrized
weight of its colengths; ordered tuples paired with the 1/k!-symmetrized
weight is the convention forced by exact agreement with the tau-coefficient
pipeline.  The H family carries the sign (-1)^(k+d); E and E' are unsigned.
Multispecies sums run the same tuple enumeration independently per species,
including the empty collection (k_i = 0), which carries weight 1 and is what
makes zero multidegrees consistent.  A single species is the one-species
multispecies sum: quantum_hurwitz_number is that call.  The symmetrized
weight does not depend on the order of the colengths, so each species'
signed weight is computed once per sorted colength multiset per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import character_table
from .errors import CapacityError
from .partitions import (
    Partition,
    check_partition,
    colength,
    partitions_with_colength,
)
from .qweights import Species, WeightConfig, symmetrized_weight
from .sn import GROUP_LIMIT, symmetric_group

#: Largest cover degree for the exhaustive factorization count.
FACTORIZATION_LIMIT = GROUP_LIMIT


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
    nu.  With no extra profiles this collapses to delta_{mu,nu} / z_mu.
    """
    tbl = character_table(config.n)
    i_mu = tbl.index(config.mu)
    i_nu = tbl.index(config.nu)
    extra = [tbl.index(p) for p in config.extra_profiles]
    k = len(extra)
    total = Fraction(0)
    for row, hook in zip(tbl.values, tbl.hook_products):
        term = Fraction(hook**k * row[i_mu] * row[i_nu],
                        tbl.centralizer_orders[i_mu] * tbl.centralizer_orders[i_nu])
        for idx in extra:
            if row[idx] == 0:
                term = Fraction(0)
                break
            term *= Fraction(row[idx], tbl.centralizer_orders[idx])
        total += term
    return total


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
    """Ordered tuples of nontrivial profiles of n with colengths summing to total."""
    if total == 0:
        return ((),)
    by_colength = {c: partitions_with_colength(n, c) for c in range(1, total + 1)}
    tuples = []
    for k in range(1, total + 1):
        for composition in _compositions(total, k):
            pools = [by_colength[c] for c in composition]
            if any(not pool for pool in pools):
                continue
            tuples.extend(itertools.product(*pools))
    return tuple(tuples)


def _compositions(total: int, k: int):
    """Ordered compositions of total into exactly k positive parts."""
    if k == 1:
        yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


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

    Every species contributes an independent ordered tuple of nontrivial
    profiles (possibly empty when its degree is 0) with colength sum equal to
    its degree; the combined configuration is counted once and weighted by
    the product of the per-species symmetrized weights, H-type species
    carrying their (-1)^(k+degree) signs.  Each species' signed weight is
    computed once per sorted colength multiset.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    n = config.n
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("mu and nu must be partitions of the configuration degree")
    degrees = tuple(int(c) for c in degrees)
    if len(degrees) != len(config.species):
        raise ValueError("one degree per species is required")
    if any(c < 0 for c in degrees):
        raise ValueError("degrees must be nonnegative")
    legs = []
    for species, c in zip(config.species, degrees):
        weights: dict[tuple[int, ...], object] = {}
        leg = []
        for profiles in _profile_tuples(n, c):
            key = tuple(sorted(colength(p) for p in profiles))
            if key not in weights:
                w = symmetrized_weight(species.family, species.parameter, key)
                weights[key] = -w if species.family == "H" and (len(key) + c) % 2 else w
            leg.append((profiles, weights[key]))
        legs.append(leg)
    total = 0
    for combo in itertools.product(*legs):
        weight = 1
        all_profiles: list[Partition] = []
        for profiles, w in combo:
            weight = weight * w
            all_profiles.extend(profiles)
        branch = BranchConfiguration(n, tuple(sorted(all_profiles, reverse=True)), mu, nu)
        total = total + weight * frobenius_hurwitz(branch)
    return total
