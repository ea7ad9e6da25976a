"""Hot array loops: the prime and Möbius sieves, the subset gcd histogram
and the tuple walk.

Each has one implementation.  The sieves and the subset pass are
vectorized numpy.  The prime sieve crosses off multiples of the primes
up to the square root of its limit.  The Möbius sieve loops over the
same primes to mark mu, then gives each n its one prime factor above
the square root, if it has one, with one fancy-indexed sign flip per
cofactor m.  The subset pass still visits every subset and
takes its gcd directly, but in blocks of fixed size: it folds
2^12-entry gcd tables against each other, so its memory stays bounded
whatever the budget, while its time grows with 2^|X|.  The tuple walk
counts prefixes by class, (gcd so far, last value), in a dict, taking
one step per class and next value and so never more than one per
prefix, and counts its last position with np.gcd.  It holds its
classes, each of whose gcds divides its last value, so at most n of
them for ordered tuples and about n ln n otherwise, and one window of
at most 2^16 values.  Integers of any size take the same path: gcds
that fit int64 run on int64 arrays, and past int64 on object arrays of
Python ints, which np.gcd takes as well.  Every function returns the
same integers its definition does.

The formula paths touch these arrays only through the Möbius table:
numtheory caches the int8 array moebius_values returns, made
read-only, and each walk over it converts the nonzero entries it reads
to Python ints.

numpy is imported inside each function that builds arrays, never at
module level, so importing the package loads no numpy: it is loaded on
first use, by the sieves and the oracle only.  The constants below are
plain Python and need none.
"""

import sys
from math import gcd, isqrt

BACKEND = "numpy"

ORDERED, NONDECREASING, STRICT = 0, 1, 2

# the subset pass works on tables of 2^_SUBSET_BLOCK_BITS entries, the
# tuple walk's last position on windows of at most _TUPLE_BLOCK values
_SUBSET_BLOCK_BITS = 12
_TUPLE_BLOCK = 1 << 16
INT64_MAX = 2**63 - 1


def _check_sieve_limit(limit: int):
    # a sieve holds limit + 1 entries, and numpy refuses a dimension that
    # size with a bare ValueError; refuse it first, before any allocation
    if limit >= sys.maxsize:
        raise OverflowError(
            f"sieve limit {limit} is too large for an array (at most {sys.maxsize - 1})"
        )


def primes(limit: int):
    """The primes p <= limit, ascending."""
    _check_sieve_limit(limit)
    import numpy as np

    if limit < 2:
        return np.zeros(0, dtype=np.intp)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite)


def moebius_values(limit: int):
    """Möbius values mu[0..limit] by sieving; mu[0] is a filler zero.

    Only the primes p <= isqrt(limit) are looped over: each flips the
    sign of its multiples and zeroes those of p^2.  Every n <= limit has
    at most one prime factor q above isqrt(limit), and n = m * q with
    m <= limit // (isqrt(limit) + 1), so one fancy-indexed flip per m,
    over the large primes q <= limit // m, gives q its sign.
    """
    _check_sieve_limit(limit)
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    root = isqrt(limit)
    every = primes(limit)
    split = int(np.searchsorted(every, root, side="right"))
    for p in every[:split].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    large = every[split:]
    for m in range(1, limit // (root + 1) + 1):
        q = large[: int(np.searchsorted(large, limit // m, side="right"))]
        mu[m * q] *= -1
    return mu


def subset_gcd_counts(elements, fold: int):
    """counts[c] = number of c-element subsets with gcd(subset, fold) == 1.

    Every subset is the union of a low part, drawn from the first
    _SUBSET_BLOCK_BITS elements, and a high part, drawn from the rest.
    The gcd table of the low parts is built once; the high parts are
    walked in blocks of the same size seeded with ``fold``, and each high
    gcd h is folded against the whole low table: h == 1 counts every low
    part, any other h those with gcd(low, h) == 1 (h == 0, from fold 0
    and an empty high part, leaves gcd(low, 0) = low).  fold = 0 leaves
    the plain gcd of the subset.  Accepts a list or an array of integers
    of any size: the gcd tables are int64 when fold and every element
    fit, and object arrays of Python ints otherwise.
    """
    import numpy as np

    values = [int(v) for v in elements]
    dtype = np.int64 if max([fold, *values]) <= INT64_MAX else object
    low, high = values[:_SUBSET_BLOCK_BITS], values[_SUBSET_BLOCK_BITS:]
    low_gcd, low_size = _gcd_table(low, dtype)
    width = len(low) + 1
    every = np.bincount(low_size, minlength=width)
    counts = np.zeros(len(values) + 1, dtype=np.int64)
    for high_gcd, high_size in _subset_blocks(high, fold, dtype):
        for h, offset in zip(high_gcd.tolist(), high_size.tolist()):
            if h == 1:
                hist = every
            else:
                hist = np.bincount(
                    low_size[np.gcd(low_gcd, h) == 1], minlength=width
                )
            counts[offset : offset + width] += hist
    counts[0] = 0  # the empty subset is never counted
    return counts


def _gcd_table(values, dtype):
    # doubling pass: entry s is the gcd of the values selected by bit s
    import numpy as np

    table = np.zeros(1, dtype=dtype)
    size = np.zeros(1, dtype=np.intp)
    for v in values:
        table = np.concatenate([table, np.gcd(table, v)])
        size = np.concatenate([size, size + 1])
    return table, size


def _subset_blocks(values, fold, dtype):
    # (gcd, size) blocks over every subset of values, each gcd folded with
    # fold: the last _SUBSET_BLOCK_BITS values form one table, folded with
    # every gcd of the subsets of the values before them
    import numpy as np

    split = max(len(values) - _SUBSET_BLOCK_BITS, 0)
    table, size = _gcd_table(values[split:], dtype)
    if split:
        outer = _subset_blocks(values[:split], fold, dtype)
    else:
        outer = [(np.array([fold], dtype=dtype), np.zeros(1, dtype=np.intp))]
    for outer_gcd, outer_size in outer:
        for g, s in zip(outer_gcd.tolist(), outer_size.tolist()):
            yield np.gcd(table, g), size + s


def tuple_gcd_count(n: int, k: int, fold: int, regime: int) -> int:
    """Count k-tuples over [1, n] in one ordering regime with gcd == 1.

    The gcd is taken over the tuple's values and ``fold``; fold = 0 adds
    nothing, so those gcds are counted as they are.  Prefixes are counted
    by class, (gcd so far folded with fold, last value), where the last
    value is kept only when it bounds the next one (0 when ordered).  The
    classes move forward one position at a time with math.gcd until one
    position is left, or until a step returns the same classes, since
    every later step would too.  A strict prefix only takes values that
    leave room for the larger ones still to come, so prefixes that cannot
    reach length k drop out at once.  The last position is counted with
    np.gcd over windows of at most _TUPLE_BLOCK values, on Python ints
    once a gcd passes int64 (only k = 1 with a huge fold gets there).
    """
    import numpy as np

    def span(last, depth):
        # the values position depth + 1 may take after last
        if regime == ORDERED:
            return range(1, n + 1)
        if regime == NONDECREASING:
            return range(last, n + 1)
        return range(last + 1, n - (k - depth - 1) + 1)

    classes = {(fold, 1 if regime == NONDECREASING else 0): 1}
    for depth in range(k - 1):
        grown = {}
        for (g, last), count in classes.items():
            for v in span(last, depth):
                key = (gcd(g, v), 0 if regime == ORDERED else v)
                grown[key] = grown.get(key, 0) + count
        if grown == classes:
            break
        classes = grown
    total = 0
    for (g, last), count in classes.items():
        values = span(last, k - 1)
        for lo in range(values.start, values.stop, _TUPLE_BLOCK):
            window = np.arange(lo, min(lo + _TUPLE_BLOCK, values.stop), dtype=np.int64)
            if g > INT64_MAX:
                window = window.astype(object)
            total += count * int(np.count_nonzero(np.gcd(window, g) == 1))
    return total
