"""Hot enumeration loops: the Möbius sieve, the subset gcd histogram and
the tuple walks.

The sieve and the subset pass are vectorized numpy; the tuple walks are
itertools over plain Python ints, so they are exact at any size.  Every
function returns the same integers its definition does, and the formula
paths never touch these arrays except through the sieve table, which
numtheory converts to Python ints once.
"""

import itertools
from math import gcd

import numpy as np

BACKEND = "numpy"

ORDERED, NONDECREASING, STRICT = 0, 1, 2


def moebius_values(limit: int) -> np.ndarray:
    """Möbius values mu[0..limit] by sieving; mu[0] is a filler zero."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = True
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def subset_gcd_counts(elements: np.ndarray, fold: int) -> np.ndarray:
    """counts[c] = number of c-element subsets with gcd(subset, fold) == 1.

    Subset index s selects element i exactly when bit i of s is set.  The
    gcd array is grown one element at a time, so entry s of the final array
    is the left-fold gcd over the selected elements seeded with ``fold``
    (fold = 0 leaves the plain gcd of the subset).  Callers keep fold and
    the elements within int64.
    """
    g = np.array([fold], dtype=np.int64)
    size = np.array([0], dtype=np.int64)
    for v in elements:
        g = np.concatenate([g, np.gcd(g, np.int64(v))])
        size = np.concatenate([size, size + 1])
    counts = np.bincount(size[g == 1], minlength=len(elements) + 1)
    counts = counts.astype(np.int64)
    counts[0] = 0  # the empty subset is never counted
    return counts


def tuple_gcd_count(n: int, k: int, fold: int, regime: int) -> int:
    """Count k-tuples over [1, n] in one ordering regime with gcd == 1."""
    values = range(1, n + 1)
    if regime == ORDERED:
        walk = itertools.product(values, repeat=k)
    elif regime == NONDECREASING:
        walk = itertools.combinations_with_replacement(values, k)
    else:
        walk = itertools.combinations(values, k)
    total = 0
    for entry in walk:
        g = fold
        for v in entry:
            if g == 1:
                break
            g = gcd(g, v)
        if g == 1:
            total += 1
    return total
