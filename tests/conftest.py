"""Hypothesis profile and independent recount helpers for the test suite.

The helpers re-derive everything from definitions: element scans,
itertools recounts, and the floor-and-epsilon formulas from the
literature.  None of them call the package's fast paths, so the fast
paths are never used to check themselves.  element_divisor_terms is the
former small-set divisor source, kept here as the reference the
shared-divisor source is checked against, and per_prime_moebius the
former Möbius sieve, which looped over every prime up to its limit.

Every test starts with an empty subset-histogram cache, so a test that
counts sieve or kernel calls sees the same calls in any order.
"""

from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest
from hypothesis import HealthCheck, settings

from relprime import (
    OverlapError,
    Progression,
    validate_union,
)
from relprime.counting import subset_histogram
from relprime.numtheory import primes_up_to, squarefree_divisor_terms

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def cold_subset_histograms():
    subset_histogram.cache_clear()


def per_prime_moebius(limit: int):
    """mu[0..limit] as an int8 array, marked from every prime <= limit."""
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(limit):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def scan_multiples(p: Progression, d: int) -> int:
    """|{x in p : d | x}| by walking the elements."""
    return sum(1 for x in p.elements() if x % d == 0)


def floor_eps_count(p: Progression, d: int) -> int:
    """The general floor(mk/d) + eps_d form of the AP multiple count.

    k = gcd(d, b); the count is zero when k does not divide a, and eps_d
    is 1 exactly when d does not divide mk and the index residue lands in
    the partial window {0, ..., m-1 - floor((m-1)k/d) * d/k} at the tail.
    """
    a, b, m = p.first, p.step, p.length
    k = gcd(d, b)
    if a % k:
        return 0
    base = m * k // d
    eps = 0
    if m * k % d:
        dk = d // k
        residue = (-(a // k) * pow(b // k, -1, dk)) % dk
        if residue <= m - 1 - (m - 1) * k // d * dk:
            eps = 1
    return base + eps


def coprime_floor_eps_count(p: Progression, d: int) -> int:
    """The floor(m/d) + eps_d specialization for gcd(a, b) = 1.

    Zero when gcd(d, b) > 1; the eps window here is written
    {0, ..., m - floor(m/d)*d - 1}.
    """
    a, b, m = p.first, p.step, p.length
    if gcd(d, b) != 1:
        return 0
    base = m // d
    eps = 0
    if m % d:
        residue = (-a * pow(b, -1, d)) % d
        if residue <= m - base * d - 1:
            eps = 1
    return base + eps


def element_divisor_terms(X, modulus) -> list:
    """Pairs (d, mu(d)) over squarefree d dividing gcd(x, modulus) for
    some x in X, ascending; a modulus of None leaves x itself.

    These are exactly the terms with |X_d| > 0 of the walk divisor_sum
    takes to max X, found by factoring each element instead of sieving.
    """
    terms = {}
    for part in X.parts:
        for x in part.elements():
            r = x if modulus is None else gcd(x, modulus)
            terms.update(squarefree_divisor_terms(r, r))
    return sorted(terms.items())


def subsets_recount(elements, n=None):
    """(total, by_cardinality) over nonempty subsets with gcd 1.

    n, when given, joins every gcd as an extra element.  Combination
    based, so it shares nothing with the package oracle's gcd tables.
    """
    by_k = [0] * (len(elements) + 1)
    for k in range(1, len(elements) + 1):
        for combo in combinations(elements, k):
            g = 0 if n is None else n
            for v in combo:
                g = gcd(g, v)
                if g == 1:
                    break
            if g == 1:
                by_k[k] += 1
    return sum(by_k), by_k


_TUPLE_WALKS = {
    "ordered": lambda values, k: product(values, repeat=k),
    "nondecreasing": combinations_with_replacement,
    "strict": combinations,
}


def tuple_walk(n, k, ordering):
    """Every k-tuple over [1, n] in one ordering, from itertools."""
    return _TUPLE_WALKS[ordering](range(1, n + 1), k)


def tuples_recount(n, k, fold, ordering):
    """k-tuples over [1, n] in one ordering whose gcd with fold is 1.

    fold = 0 adds nothing to the gcd.  An itertools walk over plain
    Python ints, so it shares nothing with the package's class walk.
    """
    return sum(reduce(gcd, entry, fold) == 1 for entry in tuple_walk(n, k, ordering))


def random_progression(rng, max_first=40, max_step=12, max_length=12):
    return Progression(
        rng.randint(1, max_first),
        rng.randint(1, max_step),
        rng.randint(1, max_length),
    )


def random_union(rng, max_parts=3, size_cap=18, max_first=40, max_step=12):
    """A random validated union with |X| <= size_cap; retries on overlap.

    Mixes plain intervals (step 1) in with general progressions, the way
    the acceptance criteria describe the input population.
    """
    while True:
        n_parts = rng.randint(1, max_parts)
        parts = []
        for _ in range(n_parts):
            max_length = max(1, size_cap // n_parts)
            step = 1 if rng.random() < 0.4 else rng.randint(1, max_step)
            parts.append(
                Progression(
                    rng.randint(1, max_first), step, rng.randint(1, max_length)
                )
            )
        if sum(p.length for p in parts) > size_cap:
            continue
        try:
            return validate_union(parts)
        except OverlapError:
            continue
