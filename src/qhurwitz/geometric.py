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
pipeline.  Every ordering of a multiset of profiles has the same weight and
the same covering count, so the sum runs over multisets, each enumerated
once and weighed by its number of orderings k!/prod m_P!.  The H family
carries the sign (-1)^(k+d); E and E' are unsigned.  Multispecies sums run
the same multiset enumeration independently per species,
including the empty collection (k_i = 0), which carries weight 1 and is what
makes zero multidegrees consistent.  A single species is the one-species
multispecies sum: quantum_hurwitz_number is that call.

The branch weights are summed once per multidegree, not once per (mu, nu):
each species' signed weight is computed once per sorted colength multiset,
and the species' profile multisets are merged into one weight per multiset
of all extra profiles before any covering is counted.  _covering_sums is the
one evaluator of the character sum: per multiset and call it forms the
integer vector h_lam^k prod_i chi_lam(mu^i) over shapes and the denominator
prod_i z_{mu^i} once, and per (mu, nu) one integer dot product with
chi_lam(mu) chi_lam(nu).  frobenius_hurwitz is its one-multiset, one-pair
call, multispecies_hurwitz_number its one-pair call and
multispecies_hurwitz_matrix its all-pairs call.  The leg uses neither the
spectral kernel characters.spectral_sum nor the content coefficients of the
tau pipeline, so its agreement with the other two legs stays a check.

A sum whose estimated cost (ordered profile tuples times the degree, or the
bit size of the exact weights) exceeds GEOMETRIC_COST_LIMIT raises
CapacityError before any enumeration; the ordered tuples are counted, not
enumerated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul

from .characters import character_table
from .errors import CapacityError
from .partitions import (
    Partition,
    check_partition,
    colength,
)
from .qweights import Species, WeightConfig, symmetrized_weight
from .sn import symmetric_group

#: Largest _geometric_cost a geometric sum may have.
GEOMETRIC_COST_LIMIT = 10**6


@dataclass(frozen=True)
class BranchConfiguration:
    """Branch data of a covering: extra profiles plus the two marked profiles.

    All profiles are partitions of the same n = sum(mu); the extra profiles
    must be nontrivial (different from the identity class).
    """

    extra_profiles: tuple[Partition, ...]
    mu: Partition
    nu: Partition

    def __post_init__(self):
        object.__setattr__(self, "extra_profiles", tuple(
            check_partition(p) for p in self.extra_profiles
        ))
        object.__setattr__(self, "mu", check_partition(self.mu))
        object.__setattr__(self, "nu", check_partition(self.nu))
        n = sum(self.mu)
        if sum(self.nu) != n:
            raise ValueError("mu and nu must have equal weight")
        for profile in self.extra_profiles:
            if sum(profile) != n:
                raise ValueError("every extra profile must be a partition of n")
            if colength(profile) == 0:
                raise ValueError("extra profiles must be nontrivial")


def _covering_sums(n: int, branch_weights: dict, pairs) -> dict:
    """{(mu, nu): sum over multisets of weight * covering count of (multiset, mu, nu)}.

    branch_weights maps each multiset of extra profiles to its weight.  Per
    multiset the integers h_lam^k prod_i chi_lam(mu^i) and the denominator
    prod_i z_{mu^i} are formed once; per (mu, nu) each multiset adds one
    Fraction, the integer dot product with chi_lam(mu) chi_lam(nu) over the
    whole denominator.
    """
    tbl = character_table(n)
    z = tbl.centralizer_orders
    columns = list(zip(*tbl.values))
    terms = []
    for profiles, weight in branch_weights.items():
        vector = [hook ** len(profiles) for hook in tbl.hook_products]
        for p in profiles:
            vector = list(map(mul, vector, columns[tbl.index(p)]))
        terms.append((weight, vector, prod(z[tbl.index(p)] for p in profiles)))
    sums = {}
    for mu, nu in pairs:
        i, j = tbl.index(mu), tbl.index(nu)
        chars = list(map(mul, columns[i], columns[j]))
        total = 0
        for weight, vector, scale in terms:
            total = total + weight * Fraction(sum(map(mul, vector, chars)), scale * z[i] * z[j])
        sums[(mu, nu)] = total
    return sums


@lru_cache(maxsize=None)
def frobenius_hurwitz(config: BranchConfiguration) -> Fraction:
    """Covering count of the configuration, as a character sum.

    Symmetric under permuting the extra profiles and under swapping mu and
    nu.  With no extra profiles this collapses to delta_{mu,nu} / z_mu.  The
    one-multiset, one-pair call of _covering_sums.
    """
    pair = (config.mu, config.nu)
    return _covering_sums(sum(config.mu), {config.extra_profiles: 1}, [pair])[pair]


def enumerate_factorizations(config: BranchConfiguration) -> int:
    """Exhaustive count of tuples (g_1, ..., g_k, a, b) multiplying to the identity.

    g_i runs over the class of extra profile i, a over the class of mu and b
    over the class of nu.  Exactly n! times frobenius_hurwitz; the last factor
    b is determined by the rest, so only (g_1, ..., g_k, a) is enumerated.
    symmetric_group refuses n past GROUP_LIMIT with CapacityError.
    """
    group = symmetric_group(sum(config.mu))
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
def _profile_tuples(n: int, total: int) -> tuple[tuple[tuple[Partition, ...], int], ...]:
    """Multisets of nontrivial profiles of n with colengths summing to total.

    Each multiset appears once, as a descending tuple of profiles paired
    with its number of orderings k!/prod m_P!, m_P the multiplicity of
    profile P.  The profiles are those of character_table(n), in its
    descending order, with colength 1..total; a one-sheeted cover has none.
    """
    pool = [(p, colength(p)) for p in character_table(n).partitions if 0 < colength(p) <= total]
    multisets = []
    stack = [((), 0, total)]
    while stack:
        profiles, start, rest = stack.pop()
        if rest == 0:
            orderings = factorial(len(profiles)) // prod(map(factorial, Counter(profiles).values()))
            multisets.append((profiles, orderings))
        stack.extend((profiles + (p,), i, rest - c)
                     for i, (p, c) in enumerate(pool[start:], start) if c <= rest)
    return tuple(multisets)


def _tuple_count(n: int, total: int) -> int:
    """Ordered profile tuples of n with colength sum total: the orderings of _profile_tuples.

    Counted by a recursion over the colength of the last profile, from the
    number of profiles of each colength in character_table(n), without
    enumerating anything.
    """
    if n == 1:
        return int(total == 0)
    sizes = Counter(colength(p) for p in character_table(n).partitions)
    counts = [1]
    for t in range(1, total + 1):
        counts.append(sum(sizes[c] * counts[t - c] for c in range(1, min(n - 1, t) + 1)))
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
    """Summed signed weight of every multiset of extra profiles.

    Every species contributes an independent multiset of nontrivial profiles
    (empty when its degree is 0) with colength sum equal to its degree,
    weighted by its number of orderings times its symmetrized weight, H-type
    species carrying their (-1)^(k+degree) signs; the weight depends only on
    the sorted colengths, so it is computed once per colength multiset.  The
    species are then combined into one weight per descending multiset of all
    extra profiles.
    """
    n = config.n
    combined: dict[tuple[Partition, ...], object] = {(): 1}
    for species, c in zip(config.species, degrees):
        weights: dict[tuple[int, ...], object] = {}
        leg: dict[tuple[Partition, ...], object] = {}
        for profiles, orderings in _profile_tuples(n, c):
            key = tuple(sorted(colength(p) for p in profiles))
            if key not in weights:
                w = symmetrized_weight(species.family, species.parameter, key)
                weights[key] = -w if species.family == "H" and (len(key) + c) % 2 else w
            leg[profiles] = orderings * weights[key]
        merged: dict[tuple[Partition, ...], object] = {}
        for before, w_before in combined.items():
            for profiles, w in leg.items():
                key = tuple(sorted(before + profiles, reverse=True))
                merged[key] = merged.get(key, 0) + w_before * w
        combined = merged
    return combined


def _admitted_degrees(config: WeightConfig, degrees) -> tuple[int, ...]:
    """Validated degrees of a geometric sum whose cost is within the limit."""
    degrees = config.degrees(degrees)
    cost = _geometric_cost(config, degrees)
    if cost > GEOMETRIC_COST_LIMIT:
        raise CapacityError(
            f"geometric sum costs about {cost} (profile-tuple terms or weight bits), "
            f"over the limit of {GEOMETRIC_COST_LIMIT}"
        )
    return degrees


def quantum_hurwitz_number(family: str, q, d: int, mu: Partition, nu: Partition):
    """Weighted count of coverings with total extra colength d, single species.

    The one-species case of multispecies_hurwitz_number; q is validated by
    Species.  d = 0 gives delta_{mu,nu}/z_mu.
    """
    mu = check_partition(mu)
    config = WeightConfig((Species(family, q),), sum(mu))
    return multispecies_hurwitz_number(config, (d,), mu, nu)


def multispecies_hurwitz_number(
    config: WeightConfig, degrees: tuple[int, ...], mu: Partition, nu: Partition
):
    """Weighted covering count with per-species colength totals fixed by degrees.

    Sums the covering count of every extra-profile multiset times its
    branch weight (see _branch_weights), the one-pair call of
    _covering_sums.  A sum whose _geometric_cost exceeds GEOMETRIC_COST_LIMIT
    raises CapacityError before any enumeration.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    n = config.n
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("mu and nu must be partitions of the configuration degree")
    branch_weights = _branch_weights(config, _admitted_degrees(config, degrees))
    return _covering_sums(n, branch_weights, [(mu, nu)])[(mu, nu)]


def multispecies_hurwitz_matrix(config: WeightConfig, degrees: tuple[int, ...]) -> dict:
    """multispecies_hurwitz_number for every pair (mu, nu) of partitions of n.

    Returns {(mu, nu): value}; the branch weights are summed, and each
    multiset's character vector formed, once for all pairs.  Same cost limit
    as the single entry.
    """
    branch_weights = _branch_weights(config, _admitted_degrees(config, degrees))
    parts = character_table(config.n).partitions
    return _covering_sums(config.n, branch_weights, itertools.product(parts, repeat=2))
