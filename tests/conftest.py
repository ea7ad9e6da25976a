"""Hypothesis profile and independent recount helpers for the test suite.

The helpers re-derive everything from definitions: element scans,
itertools recounts, and the floor-and-epsilon formulas from the
literature.  None of them call the package's fast paths, so the fast
paths are never used to check themselves.  Former package code is kept
here as the reference its replacement is checked against:
element_divisor_terms is the former small-set divisor source, checked
against the shared-divisor source; per_prime_moebius the first Möbius
sieve, which looped over every prime up to its limit; sieve_primes and
two_pass_moebius the one after it, which sieved the primes first and
then marked mu from them; whole_array_histogram the sieve stream that
converted the whole sieve to Python ints at once;
blocked_subset_counts the first subset pass, which took the gcd of
every subset in blocks; table_fold_subset_counts the pass after it,
which folded its high classes against a numpy gcd table of the low
elements; and per_class_tuple_count the former tuple walk, which
counted its last position once per class.  moebius, radical,
primes_up_to and primorial_up_to, which the package itself never calls,
serve the bridge identities.

Every test starts with an empty subset-histogram cache, so a test that
counts sieve or kernel calls sees the same calls in any order.
"""

from functools import reduce
from itertools import combinations, combinations_with_replacement, groupby, product
from math import gcd, isqrt, prod

import pytest
from hypothesis import HealthCheck, settings

from relprime import (
    OverlapError,
    Progression,
    validate_union,
)
from relprime import _kernels
from relprime.counting import histogram, subset_histogram
from relprime.errors import check_positive
from relprime.numtheory import factorize, squarefree_divisor_terms

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


def sieve_primes(limit: int):
    """The primes p <= limit, ascending, as a numpy array."""
    import numpy as np

    if limit < 2:
        return np.zeros(0, dtype=np.intp)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite)


def primes_up_to(x: int) -> list:
    """All primes p <= x."""
    return sieve_primes(x).tolist()


def primorial_up_to(x: int) -> int:
    """Product of all primes p <= x; 1 when there are none.

    This is the squarefree kernel of x!, so Möbius sums over divisors of
    x! and of this product agree term for term.
    """
    check_positive(x=x)
    return prod(primes_up_to(x))


def radical(n: int) -> int:
    """Squarefree kernel: product of the distinct primes dividing n."""
    return prod(p for p, _ in factorize(n))


def moebius(n: int) -> int:
    """Single mu(n) from the factorization of n."""
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def per_prime_moebius(limit: int):
    """mu[0..limit] as an int8 array, marked from every prime <= limit."""
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(limit):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def two_pass_moebius(limit: int):
    """mu[0..limit] as an int8 array: a prime sieve first, then a pass
    over its primes up to isqrt(limit) and a flip per cofactor m over
    the primes above it."""
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    root = isqrt(limit)
    every = sieve_primes(limit)
    split = int(np.searchsorted(every, root, side="right"))
    for p in every[:split].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    large = every[split:]
    for m in range(1, limit // (root + 1) + 1):
        q = large[: int(np.searchsorted(large, limit // m, side="right"))]
        mu[m * q] *= -1
    return mu


def whole_array_histogram(bound: int, kernel) -> tuple:
    """counting.histogram of kernel(d) over every squarefree d <= bound,
    the whole two-pass sieve converted to Python ints at once."""
    mu = two_pass_moebius(bound)
    d = mu.nonzero()[0]
    return histogram(zip(d.tolist(), mu[d].tolist()), kernel)


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
    based, so it shares nothing with the package oracle's class walk.
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


def blocked_subset_counts(elements, fold):
    """counts[c] = number of c-element subsets with gcd(subset, fold) == 1.

    The former subset pass, which visits every subset: the gcd table of
    the first _kernels._SUBSET_BLOCK_BITS elements is built once, the
    subsets of the rest are walked in blocks of the same size seeded
    with fold, and each of their gcds h is folded against the whole low
    table.  Tables are int64 when fold and every element fit, object
    arrays of Python ints otherwise; counts are int64.
    """
    import numpy as np

    bits = _kernels._SUBSET_BLOCK_BITS
    values = [int(v) for v in elements]
    dtype = np.int64 if max([fold, *values]) <= _kernels.INT64_MAX else object
    low, high = values[:bits], values[bits:]
    low_gcd, low_size = gcd_table(low, dtype)
    width = len(low) + 1
    counts = np.zeros(len(values) + 1, dtype=np.int64)
    for high_gcd, high_size in subset_blocks(high, fold, dtype, bits):
        for h, offset in zip(high_gcd.tolist(), high_size.tolist()):
            hist = np.bincount(low_size[np.gcd(low_gcd, h) == 1], minlength=width)
            counts[offset : offset + width] += hist
    counts[0] = 0
    return counts


def table_fold_subset_counts(elements, fold):
    """counts[c] = number of c-element subsets with gcd(subset, fold) == 1.

    The former subset pass, which walked only its high part by class:
    the subsets of all but the first _kernels._SUBSET_BLOCK_BITS
    elements are counted by (gcd folded with fold, size), and each
    distinct class gcd h is folded once against the whole gcd table of
    those first elements, by a bincount of the sizes of the low parts
    with gcd(low, h) == 1.
    """
    import numpy as np

    bits = _kernels._SUBSET_BLOCK_BITS
    values = [int(v) for v in elements]
    dtype = np.int64 if max([fold, *values]) <= _kernels.INT64_MAX else object
    low, high = values[:bits], values[bits:]
    classes = {(fold, 0): 1}
    for v in high:
        grown = dict(classes)
        for (g, size), count in classes.items():
            key = (gcd(g, v), size + 1)
            grown[key] = grown.get(key, 0) + count
        classes = grown
    low_gcd, low_size = gcd_table(low, dtype)
    counts = [0] * (len(values) + 1)
    for h, sizes in groupby(sorted(classes.items()), key=lambda item: item[0][0]):
        coprime = low_size[np.gcd(low_gcd, h) == 1]
        hist = np.bincount(coprime, minlength=len(low) + 1).tolist()
        for (_, size), count in sizes:
            for c, n in enumerate(hist):
                counts[size + c] += n * count
    counts[0] = 0
    return counts


def gcd_table(values, dtype):
    """(gcd, size) of every subset of values, entry s selecting by bit s."""
    import numpy as np

    table = np.zeros(1, dtype=dtype)
    size = np.zeros(1, dtype=np.intp)
    for v in values:
        table = np.concatenate([table, np.gcd(table, v)])
        size = np.concatenate([size, size + 1])
    return table, size


def subset_blocks(values, fold, dtype, bits):
    """(gcd, size) blocks over every subset of values, each gcd folded
    with fold: the last `bits` values form one table, folded with every
    gcd of the subsets of the values before them."""
    import numpy as np

    split = max(len(values) - bits, 0)
    table, size = gcd_table(values[split:], dtype)
    if split:
        outer = subset_blocks(values[:split], fold, dtype, bits)
    else:
        outer = [(np.array([fold], dtype=dtype), np.zeros(1, dtype=np.intp))]
    for outer_gcd, outer_size in outer:
        for g, s in zip(outer_gcd.tolist(), outer_size.tolist()):
            yield np.gcd(table, g), size + s


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


def per_class_tuple_count(n, k, fold, regime):
    """k-tuples over [1, n] in one regime whose gcd with fold is 1.

    The former tuple walk: the package's class walk, stopping at a fixed
    point, then one np.gcd pass per class over the values its last
    position may take, in windows of at most _kernels._TUPLE_BLOCK int64
    values, cast to Python ints for a gcd past int64.
    """
    import numpy as np

    def span(last, depth):
        if regime == _kernels.ORDERED:
            return range(1, n + 1)
        if regime == _kernels.NONDECREASING:
            return range(last, n + 1)
        return range(last + 1, n - (k - depth - 1) + 1)

    classes = {(fold, 1 if regime == _kernels.NONDECREASING else 0): 1}
    for depth in range(k - 1):
        grown = {}
        for (g, last), count in classes.items():
            for v in span(last, depth):
                key = (gcd(g, v), 0 if regime == _kernels.ORDERED else v)
                grown[key] = grown.get(key, 0) + count
        if grown == classes:
            break
        classes = grown
    total = 0
    for (g, last), count in classes.items():
        values = span(last, k - 1)
        for lo in range(values.start, values.stop, _kernels._TUPLE_BLOCK):
            window = np.arange(lo, min(lo + _kernels._TUPLE_BLOCK, values.stop), dtype=np.int64)
            if g > _kernels.INT64_MAX:
                window = window.astype(object)
            total += count * int(np.count_nonzero(np.gcd(window, g) == 1))
    return total


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
