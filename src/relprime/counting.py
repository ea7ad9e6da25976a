"""The Möbius-sum core, and the four subset counters built on it.

Every count in the package is one sum: mu(d) * weight(kernel(d)) over
squarefree d, where the kernel is |X_d| (union_multiples) for the subset
counters here and floor(n/d) for the tuple counters in shonhiwa.
divisor_sum is the one walk behind all nine.  It has two streams: with
no modulus, every squarefree d up to the bound, read off the cached
int8 Möbius sieve as Python ints, and summed into a weight-free
histogram, the sum of mu per kernel value, which weigh then weighs
once per value, because that walk meets each value many times; with a
modulus, its squarefree divisors, found from its own primes and
weighed term by term.  Small sets take a third source, the divisors
two elements share (shared_divisor_sum).  mobius_sum keeps positive
and negative contributions in two totals, for speed.

The histogram of a dense ground set does not depend on the weight, so
f and f_k for every k share it: subset_histogram caches it per set, the
last 8 sets, keyed by the ProgressionUnion itself.  The cache lives in
the process, so it pays off when one process counts one set several
times, not for a single count in a fresh process.
"""

from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import chain
from math import comb, gcd, isqrt, prod
from operator import floordiv

from .errors import DomainError, check_positive
from .numtheory import moebius_sieve, squarefree_divisor_terms
from .setmodel import ProgressionUnion, interval, union_multiples, validate_union


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k exceeds n."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got {n}, {k}")
    return comb(n, k)


def power_of_two_minus_one(e: int) -> int:
    """Exact 2^e - 1, the number of nonempty subsets of an e-element set."""
    if e < 0:
        raise DomainError(f"exponent must be nonnegative, got {e}")
    return (1 << e) - 1


def mobius_sum(terms) -> int:
    """Fold (coefficient, value) pairs into the exact nonnegative total
    of coefficient * value.

    A coefficient is mu(d) for a single term, or the sum of mu(d) over
    every d that shares one value.  A negative final value would mean a
    formula or kernel bug, never a rounding artifact (there is no
    floating point anywhere), so it raises instead of returning.

    Positive and negative parts go into two totals rather than one, for
    speed: the sieve histogram lists d = 1's value, the largest, first,
    so the negative total starts at d = 2's value, far narrower
    than d = 1's, and each later negative value is added into it
    without copying the full width.  On the 619 grouped pairs of
    f([1, 2*10^5]) one total took about 1.4 times as long as two.
    """
    pos = 0
    neg = 0
    for c, value in terms:
        # single terms carry c = mu(d) and skip a big multiply
        if c == 1:
            pos += value
        elif c == -1:
            neg += value
        elif c > 0:
            pos += c * value
        elif c < 0:
            neg -= c * value
    total = pos - neg
    if total < 0:
        raise ArithmeticError(f"Möbius sum collapsed to {total}; counts cannot be negative")
    return total


def histogram(terms, kernel) -> tuple:
    """(coefficient, e) per distinct e = kernel(d), from (d, mu) pairs.

    The coefficient of e is the sum of mu over the d with kernel(d) = e,
    so weigh of the histogram equals mobius_sum of
    (mu, weight(kernel(d))) term by term, with one weight and one big
    multiply-add per distinct e.  Values whose coefficients cancel to
    zero are dropped.  The pairs keep the order their values were first
    met in, which for the sieve stream starts at d = 1's value, the
    largest; mobius_sum's narrow negative total relies on that order.
    """
    coefficients = defaultdict(int)
    for d, mu in terms:
        coefficients[kernel(d)] += mu
    return tuple((c, e) for e, c in coefficients.items() if c)


def weigh(pairs, weight) -> int:
    """mobius_sum of (coefficient, weight(e)) over (coefficient, e) pairs."""
    return mobius_sum((c, weight(e)) for c, e in pairs)


def sieve_histogram(bound: int, kernel) -> tuple:
    """The histogram of kernel(d) over every squarefree d <= bound.

    The nonzero entries of the sieve to the bound are converted to
    Python ints, so no numpy scalar enters the kernel or the sums.
    """
    mu = moebius_sieve(bound)
    d = mu.nonzero()[0]
    return histogram(zip(d.tolist(), mu[d].tolist()), kernel)


def divisor_sum(modulus, bound: int, kernel, weight) -> int:
    """Sum of mu(d) * weight(kernel(d)) over squarefree d <= bound.

    With modulus None every squarefree d qualifies, and the sum weighs
    their sieve_histogram; otherwise only the divisors of the modulus
    qualify, weighed term by term, since they rarely repeat a value.
    Callers pick the bound so that the terms past it would contribute
    zero.
    """
    if modulus is None:
        return weigh(sieve_histogram(bound, kernel), weight)
    terms = squarefree_divisor_terms(modulus, bound)
    return mobius_sum((mu, weight(kernel(d))) for d, mu in terms)


@lru_cache(maxsize=8)
def subset_histogram(X: ProgressionUnion) -> tuple:
    """sieve_histogram of |X_d| up to max X, cached for the last 8 sets.

    The key is X itself; validate_union sorts its parts, so the same set
    parsed again finds its entry.  The value is an immutable tuple,
    since every caller, on any thread, shares it.
    """
    return sieve_histogram(X.max_element, partial(union_multiples, X))


def shared_divisor_terms(X: ProgressionUnion, modulus) -> tuple:
    """(units, terms) for the shared-divisor split of a subset sum.

    With r_x = gcd(x, modulus) (x itself when modulus is None), units is
    the number of x with r_x = 1 and terms holds the pairs (d, mu(d)),
    ascending, over d = 1 and the squarefree divisors of every g_x.
    g_x is r_x itself when another element has the same r_x, and
    gcd(r_x, R / r_x) otherwise, R the product of the distinct values
    of r_x.  Any d that divides two of the r_x divides both their g_x,
    so every d with |X_d| >= 2 is among the terms.  Only the g_x are
    factored, and each divides its x.
    """
    fold = 0 if modulus is None else modulus
    r = Counter(gcd(x, fold) for part in X.parts for x in part.elements())
    R = prod(r)
    terms = {1: 1}
    for g in {v if n > 1 else gcd(v, R // v) for v, n in r.items() if v > 1}:
        terms.update(squarefree_divisor_terms(g, g))
    return r[1], sorted(terms.items())


def shared_divisor_sum(X: ProgressionUnion, modulus, weight) -> int:
    """subset_sum from the shared-divisor terms, splitting the weight as
    weight(e) = e * weight(1) + v(e).

    Summed over d, mu(d) * |X_d| counts the x with r_x = 1, so the first
    part is weight(1) times the units.  v vanishes at e = 0 and e = 1, so
    the second part needs only the terms with |X_d| >= 2.
    """
    units, terms = shared_divisor_terms(X, modulus)
    w1 = weight(1)
    kernels = ((mu, union_multiples(X, d)) for d, mu in terms)
    shared = ((mu, weight(e) - e * w1) for mu, e in kernels if e > 1)
    return mobius_sum(chain([(units, w1)], shared))


def subset_sum(X: ProgressionUnion, modulus, weight) -> int:
    """Sum of mu(d) * weight(|X_d|) over squarefree d, for a weight with
    weight(0) = 0, as every counter's is; d that divides no element then
    contributes nothing.

    Factoring every element by trial division costs at most
    |X| * sqrt(max X) steps against max X sieve candidates, so when that
    is cheaper the sum comes from shared_divisor_sum, which factors only
    the part of each element another element shares.  Otherwise it is
    divisor_sum up to max X, whose sieve stream is the cached
    subset_histogram; d beyond max X has |X_d| = 0.
    """
    top = X.max_element
    if X.size * isqrt(top) < top:
        return shared_divisor_sum(X, modulus, weight)
    if modulus is None:
        return weigh(subset_histogram(X), weight)
    return divisor_sum(modulus, top, partial(union_multiples, X), weight)


def tuple_sum(n: int, modulus, weight) -> int:
    """Sum of mu(d) * weight(floor(n/d)); d beyond n has floor(n/d) = 0."""
    return divisor_sum(modulus, n, partial(floordiv, n), weight)


def phi_k(X: ProgressionUnion, n: int, k: int) -> int:
    """Count k-element subsets of X relatively prime to n.

    Sums mu(d) * C(|X_d|, k) over squarefree divisors d of n.  Divisors
    beyond max X contribute C(0, k) = 0, so the walk stops there; that is
    what keeps factorial-sized moduli (or their primorial stand-ins)
    tractable.
    """
    check_positive(modulus=n, cardinality=k)
    return subset_sum(X, n, lambda e: binomial(e, k))


def phi(X: ProgressionUnion, n: int) -> int:
    """Count nonempty subsets of X relatively prime to n.

    Sums mu(d) * (2^|X_d| - 1) over squarefree divisors d of n up to
    max X; in this form the truncation is exact because dropped divisors
    have |X_d| = 0.  For n > 1 the same walk also equals the plain
    mu(d) * 2^|X_d| sum over all divisors, whose -1 terms cancel.
    """
    check_positive(modulus=n)
    return subset_sum(X, n, power_of_two_minus_one)


def f_k(X: ProgressionUnion, k: int) -> int:
    """Count relatively prime k-element subsets of X.

    Sums mu(d) * C(|X_d|, k) over all squarefree d up to max X.
    """
    check_positive(cardinality=k)
    return subset_sum(X, None, lambda e: binomial(e, k))


def f(X: ProgressionUnion) -> int:
    """Count relatively prime nonempty subsets of X.

    Sums mu(d) * (2^|X_d| - 1) over all squarefree d up to max X.
    """
    return subset_sum(X, None, power_of_two_minus_one)


def nathanson_f(n: int) -> int:
    """f([1, n]): relatively prime nonempty subsets of the first n integers."""
    return f(_one_to(n))


def nathanson_phi(n: int) -> int:
    """Phi([1, n], n): nonempty subsets of [1, n] relatively prime to n itself.

    The literature writes this sequence with the modulus left implicit;
    this reading is the one under which its cited congruence behaviour
    (divisibility by 3 from n = 3 on) holds.
    """
    return phi(_one_to(n), n)


def _one_to(n: int) -> ProgressionUnion:
    check_positive(**{"sequence index": n})
    return validate_union([interval(1, n)])
