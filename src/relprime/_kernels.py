"""Hot array loops: the prime and Möbius sieves, the subset gcd histogram
and the tuple walks.

All of them are vectorized numpy, with one implementation each.  The
prime sieve crosses off multiples of the primes up to the square root
of its limit, and the Möbius sieve marks mu from the primes it returns.
The two oracle kernels still visit every subset and every tuple and take
its gcd directly, but in blocks of fixed size: the subset pass folds
2^12-entry gcd tables against each other, and the tuple walk grows
prefix arrays of at most 2^16 entries.  So their memory stays bounded
whatever the budget, while their time still grows with 2^|X| and with
the tuple space.  Integers of any size take the same path: gcds that
fit int64 run on int64 arrays, and past int64 on object arrays of
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
from math import isqrt

BACKEND = "numpy"

ORDERED, NONDECREASING, STRICT = 0, 1, 2

# the subset pass works on tables of 2^_SUBSET_BLOCK_BITS entries, the
# tuple walk on prefix arrays of at most _TUPLE_BLOCK entries
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
    """Möbius values mu[0..limit] by sieving; mu[0] is a filler zero."""
    _check_sieve_limit(limit)
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes(limit).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
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
    nothing, so those gcds are counted as they are.  Any other fold is
    applied with np.gcd, on Python ints once it passes int64.
    """
    import numpy as np

    total = 0
    for g in _tuple_gcd_blocks(n, k, regime):
        if fold:
            g = np.gcd(g if fold <= INT64_MAX else g.astype(object), fold)
        total += int(np.count_nonzero(g == 1))
    return total


def _tuple_gcd_blocks(n, k, regime):
    """Yield the gcds of every k-tuple over [1, n], block by block.

    A block is a pair of prefix arrays, (gcd so far, last value), that
    grows one position at a time.  A strict prefix only takes values that
    leave room for the larger ones still to come, so prefixes that cannot
    reach length k drop out at once.  An extension that would pass
    _TUPLE_BLOCK entries is split instead, into slices of the prefix
    array or the value windows of a single prefix.  A block stops early
    when it empties or when an extension leaves it unchanged, since every
    later extension would too.
    """
    import numpy as np

    first = 1 if regime == NONDECREASING else 0
    root = (np.zeros(1, dtype=np.int64), np.array([first], dtype=np.int64), 0)
    pending = [iter([root])]
    while pending:
        block = next(pending[-1], None)
        if block is None:
            pending.pop()
            continue
        g, last, depth = block
        while depth < k and len(g):
            if regime == ORDERED:
                start = np.ones_like(last)
            else:
                start = last if regime == NONDECREASING else last + 1
            stop = n - (k - depth - 1) if regime == STRICT else n
            counts = np.maximum(stop + 1 - start, 0)
            size = int(counts.sum())
            if size > _TUPLE_BLOCK:
                pending.append(_split(g, last, depth, n, int(start[0]), stop))
                break
            offsets = np.cumsum(counts) - counts
            values = np.repeat(start - offsets, counts) + np.arange(size)
            grown = np.gcd(np.repeat(g, counts), values)
            if np.array_equal(grown, g) and np.array_equal(values, last):
                depth = k  # a fixed point: the later positions change nothing
            else:
                g, last, depth = grown, values, depth + 1
        else:
            if len(g):
                yield g


def _split(g, last, depth, n, lo, hi):
    # every prefix grows by at most n values, so slices of _TUPLE_BLOCK // n
    # prefixes fit a block; a single prefix's next values, lo..hi, are
    # walked a window at a time
    import numpy as np

    if len(g) > 1:
        step = max(1, _TUPLE_BLOCK // n)
        for i in range(0, len(g), step):
            yield g[i : i + step], last[i : i + step], depth
        return
    for lo in range(lo, hi + 1, _TUPLE_BLOCK):
        values = np.arange(lo, min(lo + _TUPLE_BLOCK, hi + 1), dtype=np.int64)
        yield np.gcd(g[0], values), values, depth + 1
