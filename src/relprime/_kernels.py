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
counts its last position once per distinct class gcd g: np.gcd tests
g against its residues up to g / 2 or against the values its classes
may take, whichever is fewer, the tests of many gcds sharing batches
of at most _TUPLE_BLOCK values, and each class reads its count from
running counts of the coprime tests; a last position of at most
_TUPLE_PAIRS classes times values takes one math.gcd per class and
value instead.  It holds its classes, each of whose gcds divides its
last value, so at most n of them for ordered tuples and about n ln n
otherwise, as arrays once the last position starts, and one batch.
Integers of any size take the same paths: a batch is in the narrowest
signed dtype that holds n, every gcd and the batch's offsets, and an
object array of Python ints, which np.gcd takes as well, only past
int64.  Every function returns the same integers its definition does.

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
from itertools import repeat
from math import gcd, isqrt
from operator import mul

from .errors import BudgetExceededError

BACKEND = "numpy"

ORDERED, NONDECREASING, STRICT = 0, 1, 2

# the subset walk's low side takes the first _SUBSET_BLOCK_BITS elements,
# so it holds at most 2^_SUBSET_BLOCK_BITS classes; the tuple walk tests
# its last position in batches of at most _TUPLE_BLOCK values, which keeps
# a batch and the arrays built from it near 0.3 MB for n below 2^15
_SUBSET_BLOCK_BITS = 12
_TUPLE_BLOCK = 1 << 14
# up to this many classes times values, the last position takes one
# math.gcd per class and value: the grouped numpy pass costs about 0.1 ms
# however small, and verify's query_p90_ms read 15% higher without this
# (10 interleaved benchmark pairs on a 2-core host)
_TUPLE_PAIRS = 1 << 10
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
    once per class gcd, not once per class (see _last_position), unless
    the classes times n are at most _TUPLE_PAIRS: then one math.gcd per
    class and value is quicker than any numpy pass.
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
    if len(classes) * n <= _TUPLE_PAIRS:
        return sum(c * [*map(gcd, repeat(g), span(last, k - 1))].count(1) for (g, last), c in classes.items())
    return _last_position(classes, n, regime)


def _last_position(classes, n, regime):
    """Sum of count * #{v in [x + 1, n] : gcd(g, v) == 1} over the classes.

    Each class (g, last) -> count, g > 0, lets its last value run from
    x + 1 to n, and counts Q(n) - Q(x), Q(x) being the number of v <= x
    coprime to g.  Every distinct g is tested once, by np.gcd, against
    whichever is fewer: its residues 1..h, h = (g - 1) // 2, or the
    values from its classes' lowest start to n.  With H(j) the coprime
    ones among the first j tested, Q(x) = (x // m) * phi + R(x mod m).
    For the residues m = g and phi = 2 * H(h) + (g <= 2), since the
    residue g / 2 is coprime only to 2 and the residue 0 only to 1; R(r),
    the coprime residues in 1..r, is H(r) below g / 2 and phi -
    H(g - 1 - r) from there on, since gcd(g, r) = gcd(g, g - r).  For the
    values m passes 2n, so x // m = 0 and R(x) counts the coprime values
    tested up to x, Q(x) less a constant that cancels.  classes is
    emptied once it is copied into arrays, which frees its dict before
    the tests run.
    """
    import numpy as np

    index = {}
    which = np.array([index.setdefault(g, len(index)) for g, _ in classes])
    top = max(n, max(index))
    wide = object if top > INT64_MAX else np.int64
    groups = np.array(list(index), dtype=wide)
    del index
    # x + 1, the span's start, is 1 (ordered), last or last + 1
    x = np.array([last for _, last in classes], dtype=wide) - (regime == NONDECREASING)
    counts = list(classes.values())
    classes.clear()
    low = np.full(len(groups), n, dtype=wide)
    np.minimum.at(low, which, x)
    half = (groups - 1) // 2
    residues = half < n - low
    # a group tests residues modulo g, or values modulo a number past 2n,
    # which leaves them as they are
    modulus = np.where(residues, groups, 2 * n + 1)
    low[residues] = 0
    edges = np.concatenate(([0], np.cumsum(np.where(residues, half, n - low)))).astype(np.int64)
    m, base = modulus[which], (edges[:-1] - low)[which]

    def place(x):
        # the test offset Q(x) reads, and whether R reflects it
        r = x % m
        flip = 2 * r >= m
        return base + np.where(flip, m - 1 - r, r), flip

    (n_at, n_flip), (x_at, x_flip) = place(n), place(x)
    reads = np.concatenate((edges, n_at, x_at)).astype(np.int64)
    del half, modulus, n_at, x_at
    seen = _coprime_prefixes(groups, low + 1, edges, reads, top).astype(wide, copy=False)
    at_n, at_x = seen[len(edges) : len(edges) + len(x)], seen[len(edges) + len(x) :]
    at_base = seen[which]
    phi = 2 * (seen[which + 1] - at_base) + (m <= 2)

    def coprimes_to(x, at, flip):
        h = at - at_base
        return x // m * phi + h + flip * (phi - 2 * h)

    per_class = coprimes_to(n, at_n, n_flip) - coprimes_to(x, at_x, x_flip)
    return sum(map(mul, counts, map(int, per_class)))


def _coprime_prefixes(groups, first, edges, reads, top):
    """How many of the first q tests are coprime, for each q in reads.

    The tests run end to end: those at offsets edges[j] up to edges[j + 1]
    check first[j], first[j] + 1, ... against groups[j].  They are
    checked in batches of at most _TUPLE_BLOCK values, one np.gcd call
    each, in the narrowest signed dtype that holds top and a batch's
    offsets.  reads is sorted once, so each batch takes its reads as one
    slice.
    """
    import numpy as np

    dtype = object if top > INT64_MAX else np.min_scalar_type(-1 - max(top, _TUPLE_BLOCK))
    order = np.argsort(reads, kind="stable")
    reads = reads[order]
    seen = np.zeros(len(reads), dtype=np.int64)
    done = 0
    for start in range(0, int(edges[-1]), _TUPLE_BLOCK):
        stop = min(start + _TUPLE_BLOCK, int(edges[-1]))
        a, b = np.searchsorted(edges, start, side="right") - 1, np.searchsorted(edges, stop)
        bounds = edges[a : b + 1].copy()
        bounds[0], bounds[-1] = start, stop
        takes = bounds[1:] - bounds[:-1]
        # a test at offset p checks first + p - edge
        values = np.repeat((first[a:b] - edges[a:b] + start).astype(dtype), takes)
        values += np.arange(stop - start, dtype=dtype)
        found = np.flatnonzero(np.gcd(values, np.repeat(groups[a:b].astype(dtype), takes)) == 1)
        i, j = np.searchsorted(reads, (start, stop), side="right")
        seen[order[i:j]] = done + np.searchsorted(found, reads[i:j] - start)
        done += len(found)
    return seen
