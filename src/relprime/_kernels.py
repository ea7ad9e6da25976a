"""Hot loops: the Möbius sieve, the subset class walk and the tuple
walk.

Each has one implementation, in plain Python over bytearrays and
dicts, so the package has no runtime dependency.  The sieve crosses off
the multiples of the primes up to the square root of its limit with
bytearray slice assignments, copies the flags of the primes above the
root onto their multiples, one strided slice per cofactor, marks the
small primes' parity and squares with translate, and maps the result
to mu with one last translate.  A sieve past MAX_SIEVE_LIMIT is refused
before anything is allocated.  Both oracle
kernels count by class in a dict.  The subset walk splits every subset
into a low part, from the first 12 elements, and a high part, counts
each side by (gcd, size) class, one step per class and element, and
joins the two sides on coprime gcds.  So neither side holds more
classes than it has parts, 2^12 low and 2^(|X| - 12) high, and usually
far fewer, and each side refuses to hold more than a fixed number of
classes.  The tuple walk counts prefixes by class, (gcd so far, last
value), taking one step per class and next value and so never more
than one per prefix, and counts its last position once per distinct
class gcd g: g's primes up to n, found by trial division, zero their
multiples in bytearray windows of at most _TUPLE_BLOCK values, and
each class reads its count from a running count of the bytes left
set.  It holds its classes, each of whose gcds divides its last value,
so at most n of them for ordered tuples and about n ln n otherwise,
and one window.  Both walks take integers of any size on the same
path.  Every function returns the same integers its definition does.

The formula paths read the Möbius table only: numtheory caches the
read-only signed-byte view moebius_values returns, and each walk reads
Python ints from it, by itertools.compress or, per block of equal
quotient, by bytes.count.
"""

import sys
from itertools import compress, groupby
from math import gcd, isqrt
from operator import itemgetter

from .errors import BudgetExceededError

BACKEND = "python"

ORDERED, NONDECREASING, STRICT = 0, 1, 2

# the subset walk's low side takes the first _SUBSET_BLOCK_BITS elements,
# so it holds at most 2^_SUBSET_BLOCK_BITS classes; the tuple walk flags
# its last position's coprime values in bytearray windows of at most
# _TUPLE_BLOCK values, one byte each
_SUBSET_BLOCK_BITS = 12
_TUPLE_BLOCK = 1 << 14
# each side of the subset walk refuses more (gcd, size) classes than
# this, so its dicts stay under about 64 MB: tracemalloc saw a 37 MB peak
# at the refusal for x_i = P/p_i, whose gcds pass 64 bits; the default
# budget of 22 elements allows at most 2^10 high classes
_SUBSET_CLASSES = 1 << 17
# the largest Möbius sieve, refused past it before any allocation.  The
# sieve peaks at about 2 bytes per entry while it is built and keeps 1,
# so G(2^24, 2) peaked 42 MB above a cold process, in 0.72 s on a 2-core
# host; this admits the 10^7 the docs use and every limit the tests and
# the benchmark reach, at most 3 * 10^6 and 2 * 10^5
MAX_SIEVE_LIMIT = 1 << 24
# the sieve's byte maps over its three state bits (see moebius_values):
# one flips bit 1, the other sends each state to mu mod 256, 0 wherever
# bit 2, a square, is set; states past 7 never occur
_FLIP_SMALL_PARITY = bytes([1, 0, 3, 2, 5, 4, 7, 6]) + bytes(248)
_MOEBIUS_OF_STATE = bytes([1, 255, 0, 0, 255, 1, 0, 0]) + bytes(248)


def _check_sieve_limit(limit: int):
    # refuse a sieve past MAX_SIEVE_LIMIT before any allocation; past what
    # a bytearray can index, where its size would raise a bare
    # OverflowError, the refusal is an OverflowError too
    if limit > MAX_SIEVE_LIMIT:
        kind = OverflowError if limit >= sys.maxsize else BudgetExceededError
        raise kind(f"a Möbius sieve to {limit} passes the limit of {MAX_SIEVE_LIMIT}")


def moebius_values(limit: int):
    """Möbius values mu[0..limit] by sieving; mu[0] is a filler zero.

    Returned as a read-only memoryview of bytes, cast to signed bytes,
    so indexing, iteration and tolist() give -1, 0 and 1 as Python ints,
    and its .obj holds mu mod 256 for bytes.count.

    Each entry gathers three bits: bit 1 is the parity of its prime
    factors up to isqrt(limit), the small primes; bit 2 says the square
    of one of them divides it; bit 4 says it has a prime factor q above
    isqrt(limit).  It has at most one such q, and each of its divisors
    above isqrt(limit) is a multiple of q.  So when each cofactor m, in
    rising order, copies the prime flags of isqrt(limit) + 1..limit // m
    onto their multiples m * j, the last j written at an entry is its
    least divisor above isqrt(limit): q, flagged, when it has one, and
    an unflagged composite otherwise.  Slice operations on bytearrays
    do every write, and Python loops only over the small primes and the
    cofactors.  The sieve peaks at about 2 bytes per entry.
    """
    _check_sieve_limit(limit)
    root = isqrt(limit)
    state = bytearray(b"\4") * (limit + 1)
    for p in range(2, root + 1):
        if state[p]:
            state[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    small = list(compress(range(2, root + 1), state[2 : root + 1]))
    # cofactor 1 leaves the prime flags above the root where they are;
    # the larger cofactors copy them from flags.  Entry 0 is marked as a
    # square, so that it reads 0
    flags = state[root + 1 : limit // 2 + 1]
    state[: root + 1] = b"\2" + bytes(root)
    for m in range(2, limit // (root + 1) + 1):
        top = limit // m
        state[m * (root + 1) : m * top + 1 : m] = flags[: top - root]
    del flags
    for p in small:
        state[p::p] = state[p::p].translate(_FLIP_SMALL_PARITY)
        state[p * p :: p * p] = b"\2" * len(range(p * p, limit + 1, p * p))
    state = state.translate(_MOEBIUS_OF_STATE)
    return memoryview(bytes(state)).cast("b")


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
    reach length k drop out at once; k = n leaves the one strict tuple
    1..n, whose gcd is 1, and k > n none.  The last position is counted
    once per class gcd, not once per class, from bytearray windows that
    flag the values coprime to it (see _last_position).
    """

    def span(last, depth):
        # the values position depth + 1 may take after last
        if regime == ORDERED:
            return range(1, n + 1)
        if regime == NONDECREASING:
            return range(last, n + 1)
        return range(last + 1, n - (k - depth - 1) + 1)

    if k == 1 and not fold:
        return min(n, 1)  # gcd(0, v) = v, so only v = 1 counts
    if regime == STRICT and k >= n:
        return int(k == n)
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
    return _last_position(classes, n, regime)


def _last_position(classes, n, regime):
    """Sum of count * #{v in [first, n] : gcd(g, v) == 1} over the classes.

    Each class (g, last) -> count, g >= 1, lets its last value run from
    first to n: first = last for nondecreasing tuples, last + 1 otherwise
    (last is 0 when ordered).  One sort of the keys groups the classes by
    g, each group's first values descending.  gcd(g, v) > 1 exactly when
    a prime of g divides v, and no prime past n divides a v <= n, so each
    g needs only its primes up to n (see _primes_of).  A group's values,
    from its lowest first value to n, are flagged coprime in bytearray
    windows of at most _TUPLE_BLOCK values, from the top down: one slice
    assignment zeroes each prime's multiples, and the walk down the
    classes keeps a running count of the flags from each first value up,
    so every byte is counted once.
    """
    total = 0
    for g, group in groupby(sorted(classes, reverse=True), key=itemgetter(0)):
        spans = [(last + (regime != NONDECREASING), classes[g, last]) for _, last in group]
        primes, bottom = _primes_of(g, n), spans[-1][0]
        above, i = 0, 0  # coprime values from the current cut up; next class
        for top in range(n + 1, bottom, -_TUPLE_BLOCK):
            start = max(top - _TUPLE_BLOCK, bottom)
            width = top - start
            flags = bytearray(b"\1") * width
            for p in primes:
                offset = -start % p
                flags[offset::p] = bytes(len(range(offset, width, p)))
            cut = width
            while i < len(spans) and spans[i][0] >= start:
                first, count = spans[i]
                above += flags.count(1, first - start, cut)
                cut = first - start
                total += count * above
                i += 1
            above += flags.count(1, 0, cut)
    return total


def _primes_of(g, n):
    # the primes of g up to n, by trial division over 2 and the odd p: it
    # stops once p passes n or p * p passes what is left of g, and keeps a
    # leftover prime <= n
    primes, p = [], 2
    while p <= n and p * p <= g:
        if g % p == 0:
            primes.append(p)
            while g % p == 0:
                g //= p
        p += 2 if p > 2 else 1
    if 1 < g <= n:
        primes.append(g)
    return primes
