"""Hot array loops: the prime and Möbius sieves, the subset gcd histogram
and the tuple walk.

Each has one implementation.  The sieves and the subset pass are
vectorized numpy.  The prime sieve crosses off multiples of the primes
up to the square root of its limit.  The Möbius sieve loops over the
same primes to mark mu, then gives each n its one prime factor above
the square root, if it has one, with one fancy-indexed sign flip per
cofactor m.  Both oracle kernels count by class in a dict and finish
with np.gcd.  The subset pass splits every subset into a low part, from
the first 12 elements, and a high part: it counts the high parts by
(gcd, size) class, one step per class and element, and folds each
distinct class gcd against the 2^12-entry gcd table of the low parts
once.  So it never takes more steps than there are high parts, and
usually far fewer, and it refuses to hold more than a fixed number of
classes.  The tuple walk counts prefixes by class, (gcd so far, last
value), taking one step per class and next value and so never more
than one per prefix, and counts its last position with np.gcd.  It
holds its classes, each of whose gcds divides its last value, so at
most n of them for ordered tuples and about n ln n otherwise, and one
window of at most 2^16 values.  Integers of any size take the same
path: the arrays are int64, cast to object arrays of Python ints, which
np.gcd takes as well, only for a gcd past int64.  Every function
returns the same integers its definition does.

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
from itertools import groupby
from math import gcd, isqrt

from .errors import BudgetExceededError

BACKEND = "numpy"

ORDERED, NONDECREASING, STRICT = 0, 1, 2

# the subset pass folds its high classes against one table of
# 2^_SUBSET_BLOCK_BITS entries, the tuple walk its last position against
# windows of at most _TUPLE_BLOCK values
_SUBSET_BLOCK_BITS = 12
_TUPLE_BLOCK = 1 << 16
# the subset walk refuses more (gcd, size) classes than this, so its dicts
# stay under about 64 MB: tracemalloc saw a 37 MB peak at the refusal for
# x_i = P/p_i, whose gcds pass 64 bits; the default budget of 22
# elements allows at most 2^10 classes
_SUBSET_CLASSES = 1 << 17
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


def subset_gcd_counts(elements, fold: int) -> list:
    """counts[c] = number of c-element subsets with gcd(subset, fold) == 1.

    Every subset is the union of a low part, drawn from the first
    _SUBSET_BLOCK_BITS elements, and a high part, drawn from the rest.
    The gcd table of the low parts is built once.  The high parts are
    counted by class, (gcd folded with fold, size), in a dict that takes
    the rest of the elements one at a time, so there are never more
    classes than high parts.  Each distinct class gcd h is then folded
    against the whole low table once: the low parts with
    gcd(low, h) == 1, by size, shifted by each class's size and
    multiplied by its count (h == 0, from fold 0 and an empty high part,
    leaves gcd(low, 0) = low).  fold = 0 leaves the plain gcd of the
    subset.  Accepts a list or an array of integers of any size, and
    returns Python ints.  Past _SUBSET_CLASSES classes the walk raises
    BudgetExceededError, before its dicts outgrow about 64 MB.
    """
    import numpy as np

    values = [int(v) for v in elements]
    low, high = values[:_SUBSET_BLOCK_BITS], values[_SUBSET_BLOCK_BITS:]
    classes = {(fold, 0): 1}
    for v in high:
        grown = dict(classes)
        for (g, size), count in classes.items():
            key = (gcd(g, v), size + 1)
            grown[key] = grown.get(key, 0) + count
        if len(grown) > _SUBSET_CLASSES:
            raise BudgetExceededError(
                f"the subset walk over {len(values)} elements needs more than "
                f"{_SUBSET_CLASSES} (gcd, size) classes"
            )
        classes = grown
    low_gcd, low_size = _gcd_table(low)
    counts = [0] * (len(values) + 1)
    for h, sizes in groupby(sorted(classes.items()), key=lambda item: item[0][0]):
        coprime = low_size[_gcd_with(low_gcd, h) == 1]
        hist = np.bincount(coprime, minlength=len(low) + 1).tolist()
        for (_, size), count in sizes:
            for c, n in enumerate(hist):
                counts[size + c] += n * count
    counts[0] = 0  # the empty subset is never counted
    return counts


def _gcd_table(values):
    # doubling pass: entry s is the gcd of the values selected by bit s
    import numpy as np

    table = np.zeros(1, dtype=np.int64)
    size = np.zeros(1, dtype=np.intp)
    for v in values:
        table = np.concatenate([table, _gcd_with(table, v)])
        size = np.concatenate([size, size + 1])
    return table, size


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
