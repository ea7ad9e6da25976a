"""Hot loops: the Möbius sieve, the subset class walk and the tuple
walk.

Each has one implementation.  The sieve is vectorized numpy.  One loop
over the primes up to the square root of its limit crosses off their
multiples and marks mu in the same pass; the entries it leaves
uncrossed above the square root are the large primes, and each n gets
its one prime factor above the square root, if it has one, with one
fancy-indexed sign flip per cofactor m.  A sieve past MAX_SIEVE_LIMIT
is refused before anything is allocated.  Both oracle
kernels count by class in a dict.  The subset walk splits every subset
into a low part, from the first 12 elements, and a high part, counts
each side by (gcd, size) class, one step per class and element, and
joins the two sides on coprime gcds.  So neither side holds more
classes than it has parts, 2^12 low and 2^(|X| - 12) high, and usually
far fewer, and each side refuses to hold more than a fixed number of
classes.  It is plain Python and loads no numpy.  The tuple walk
counts prefixes by class, (gcd so far, last value), taking one step
per class and next value and so never more than one per prefix, and
counts its last position with np.gcd.  It holds its classes, each of
whose gcds divides its last value, so at most n of them for ordered
tuples and about n ln n otherwise, and one window of at most 2^16
values.  Integers of any size take the same paths: the tuple window is
int64, cast to an object array of Python ints, which np.gcd takes as
well, only for a gcd past int64.  Every function returns the same
integers its definition does.

The formula paths touch these arrays only through the Möbius table:
numtheory caches the int8 array moebius_values returns, made
read-only, and each walk over it converts the nonzero entries it reads
to Python ints, one chunk at a time.

numpy is imported inside each function that builds arrays, never at
module level, so importing the package loads no numpy: it is loaded on
first use, by the sieve and the tuple walk only.  The constants below
are plain Python and need none.
"""

import sys
from math import gcd, isqrt

from .errors import BudgetExceededError

BACKEND = "numpy"

ORDERED, NONDECREASING, STRICT = 0, 1, 2

# the subset walk's low side takes the first _SUBSET_BLOCK_BITS elements,
# so it holds at most 2^_SUBSET_BLOCK_BITS classes; the tuple walk counts
# its last position in windows of at most _TUPLE_BLOCK values
_SUBSET_BLOCK_BITS = 12
_TUPLE_BLOCK = 1 << 16
# each side of the subset walk refuses more (gcd, size) classes than
# this, so its dicts stay under about 64 MB: tracemalloc saw a 37 MB peak
# at the refusal for x_i = P/p_i, whose gcds pass 64 bits; the default
# budget of 22 elements allows at most 2^10 high classes
_SUBSET_CLASSES = 1 << 17
INT64_MAX = 2**63 - 1
# the largest Möbius sieve, refused past it before any allocation.  The
# sieve peaks at about 3 bytes per entry while it is built and keeps 1,
# so G(2^24, 2) peaked 50 MB above a cold process, in 2.4 s on a 2-core
# host; this admits the 10^7 the docs use and every limit the tests and
# the benchmark reach, at most 3 * 10^6 and 2 * 10^5
MAX_SIEVE_LIMIT = 1 << 24


def _check_sieve_limit(limit: int):
    # refuse a sieve past MAX_SIEVE_LIMIT before any allocation; past what
    # an array can index, where numpy would raise a bare ValueError, the
    # refusal is an OverflowError
    if limit > MAX_SIEVE_LIMIT:
        kind = OverflowError if limit >= sys.maxsize else BudgetExceededError
        raise kind(f"a Möbius sieve to {limit} passes the limit of {MAX_SIEVE_LIMIT}")


def moebius_values(limit: int):
    """Möbius values mu[0..limit] by sieving; mu[0] is a filler zero.

    One loop over the primes p <= isqrt(limit) crosses off p's multiples
    from p^2 on, flips the sign of every multiple of p and zeroes those
    of p^2.  The entries above isqrt(limit) left uncrossed are the large
    primes q.  Every n <= limit has at most one prime factor above
    isqrt(limit), and n = m * q with m <= limit // (isqrt(limit) + 1), so
    one fancy-indexed flip per m, over the q <= limit // m, gives q its
    sign.
    """
    _check_sieve_limit(limit)
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    uncrossed = np.ones(limit + 1, dtype=bool)
    root = isqrt(limit)
    for p in range(2, root + 1):
        if uncrossed[p]:
            uncrossed[p * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    large = root + 1 + np.flatnonzero(uncrossed[root + 1 :])
    for m in range(1, limit // (root + 1) + 1):
        q = large[: int(np.searchsorted(large, limit // m, side="right"))]
        mu[m * q] *= -1
    return mu


def subset_gcd_counts(elements, fold: int) -> list:
    """counts[c] = number of c-element subsets with gcd(subset, fold) == 1.

    Every subset is the union of a low part, drawn from the first
    _SUBSET_BLOCK_BITS elements, and a high part, drawn from the rest.
    Each side is counted by class, (gcd folded with fold, size), so
    neither side holds more classes than it has parts.  A low class
    (g, s) and a high class (h, t) join into the subsets of size s + t
    whose gcd with fold is gcd(g, h), so they count exactly when
    gcd(g, h) == 1.  fold = 0 leaves the plain gcd of the subset; an
    empty part then has gcd 0, and gcd(g, 0) = g.  Accepts a list or an
    array of integers of any size, and returns Python ints.  Past
    _SUBSET_CLASSES classes on either side the walk raises
    BudgetExceededError, before its dicts outgrow about 64 MB.
    """
    values = [int(v) for v in elements]
    low = _subset_classes(values[:_SUBSET_BLOCK_BITS], fold, len(values))
    high = _subset_classes(values[_SUBSET_BLOCK_BITS:], fold, len(values))
    counts = [0] * (len(values) + 1)
    for (g, s), c in low.items():
        for (h, t), d in high.items():
            if gcd(g, h) == 1:
                counts[s + t] += c * d
    counts[0] = 0  # the empty subset is never counted
    return counts


def _subset_classes(values, start, total):
    # (gcd, size) -> number of subsets of values, each gcd folded with start
    classes = {(start, 0): 1}
    for v in values:
        grown = dict(classes)
        for (g, size), count in classes.items():
            key = (gcd(g, v), size + 1)
            grown[key] = grown.get(key, 0) + count
        if len(grown) > _SUBSET_CLASSES:
            raise BudgetExceededError(
                f"the subset walk over {total} elements needs more than "
                f"{_SUBSET_CLASSES} (gcd, size) classes"
            )
        classes = grown
    return classes


def _gcd_with(table, g):
    # np.gcd(table, g) on int64 arrays, cast to Python ints for a g past int64
    import numpy as np

    return np.gcd(table.astype(object, copy=False) if g > INT64_MAX else table, g)


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
            total += count * int(np.count_nonzero(_gcd_with(window, g) == 1))
    return total
