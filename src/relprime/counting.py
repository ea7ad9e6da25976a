"""The Möbius-sum core, and the four subset counters built on it.

Every count in the package is one sum: mu(d) * weight(kernel(d)) over
squarefree d, where the kernel is |X_d| (union_multiples) for the subset
counters here and floor(n/d) for the tuple counters in shonhiwa.  It
has three divisor sources.  With no modulus, every squarefree d up to
the bound, read off the cached Möbius sieve: sieve_histogram streams
the d with mu(d) != 0 through itertools.compress and sums them into a
weight-free histogram, the sum of mu per kernel value, which weigh then
weighs once per value, because that walk meets each value many times;
for floor(n/d), quotient_histogram builds the same histogram per block
of equal quotient with bytes.count, without a step per d.  With a
modulus, divisor_sum walks its squarefree divisors, found from its own
primes and weighed term by term.  Small sets take the third source, the
divisors two elements share (shared_divisor_sum), which refuses a set
whose shared divisors would pass _MAX_SHARED_WORK before building any.

The histogram of a dense ground set does not depend on the weight, so
f and f_k for every k share it: subset_histogram caches it per set, the
last 8 sets, keyed by the ProgressionUnion itself.  The cache lives in
the process, so it pays off when one process counts one set several
times, not for a single count in a fresh process.
"""

from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import chain, compress
from math import comb, gcd, isqrt, prod
from operator import floordiv

from .errors import BudgetExceededError, DomainError, check_positive
from .numtheory import factorize, moebius_sieve, squarefree_divisor_terms, squarefree_products
from .setmodel import ProgressionUnion, interval, union_multiples, validate_union

# the shared-divisor source builds each term once and counts it over
# every part, so it refuses a set whose g_x have s squarefree divisors,
# counted with repeats, where s * (parts + 1) passes this: x_i = P/p_i
# over the first 14 primes needs 1.7 * 2^20 and answers in 0.4 s on a
# 2-core host, over 15 primes 3.9 * 2^20; sets at the limit took at most
# 2.9 s and 104 MB there, and the tests and the benchmark need at most
# 1405
_MAX_SHARED_WORK = 1 << 21


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
    """The exact total of coefficient * value over (coefficient, value)
    pairs, in any order.

    A coefficient is mu(d) for a single term, or the sum of mu(d) over
    every d that shares one value.  A negative total would mean a
    formula or kernel bug, never a rounding artifact (there is no
    floating point anywhere), so it raises instead of returning.
    """
    total = 0
    for c, value in terms:
        # every single term's coefficient is +-1, added without a multiply
        if c == -1:
            total -= value
        else:
            total += value if c == 1 else c * value
    if total < 0:
        raise ArithmeticError(f"Möbius sum collapsed to {total}; counts cannot be negative")
    return total


def histogram(terms, kernel) -> tuple:
    """(coefficient, e) per distinct e = kernel(d), from (d, mu) pairs.

    The coefficient of e is the sum of mu over the d with kernel(d) = e,
    so weigh of the histogram equals mobius_sum of
    (mu, weight(kernel(d))) term by term, with one weight and one big
    multiply-add per distinct e.  Values whose coefficients cancel to
    zero are dropped.
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

    itertools.compress reads the d and the mu(d) with mu(d) != 0 off the
    cached sieve to the bound as Python ints, so the walk holds the
    one-byte-per-entry sieve and never the stream.
    """
    mu = moebius_sieve(bound)
    return histogram(zip(compress(range(len(mu)), mu), compress(mu, mu)), kernel)


def quotient_histogram(n: int) -> tuple:
    """sieve_histogram(n, floor(n/d)), read per block of d with one
    quotient q = floor(n/d).

    A block's coefficient is the sum of mu over its d, two bytes.count
    calls on the sieve's bytes, where -1 is stored as 255.  There are at
    most 2 * isqrt(n) blocks.
    """
    table, pairs, d = moebius_sieve(n).obj, [], 1
    while d <= n:
        q = n // d
        end = n // q + 1
        pairs.append((table.count(1, d, end) - table.count(255, d, end), q))
        d = end
    return tuple((c, q) for c, q in pairs if c)


def divisor_sum(modulus, bound: int, kernel, weight) -> int:
    """Sum of mu(d) * weight(kernel(d)) over the squarefree divisors
    d <= bound of the modulus, weighed term by term, since they rarely
    repeat a value.  Callers pick the bound so that the terms past it
    would contribute zero.
    """
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
    factored, each once, and each divides its x.  A g_x with w distinct
    primes has 2^w squarefree divisors; when their sum over the g_x,
    times the parts of X plus one, passes _MAX_SHARED_WORK,
    BudgetExceededError is raised before any term is built.
    """
    fold = 0 if modulus is None else modulus
    r = Counter(gcd(x, fold) for part in X.parts for x in part.elements())
    R = prod(r)
    shared = {v if n > 1 else gcd(v, R // v) for v, n in r.items() if v > 1}
    factored = [(g, [p for p, _ in factorize(g)]) for g in shared]
    count = sum(1 << len(ps) for _, ps in factored)
    if count * (len(X.parts) + 1) > _MAX_SHARED_WORK:
        raise BudgetExceededError(
            f"the {count} divisors shared among {X.size} elements, each built "
            f"once and counted over {len(X.parts)} parts, pass the limit of "
            f"{_MAX_SHARED_WORK}"
        )
    terms = {1: 1}
    for g, ps in factored:
        terms.update(squarefree_products(ps, g))
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
    the part of each element another element shares.  Otherwise it
    weighs the cached subset_histogram with no modulus, and takes
    divisor_sum up to max X with one; d beyond max X has |X_d| = 0.
    """
    top = X.max_element
    if X.size * isqrt(top) < top:
        return shared_divisor_sum(X, modulus, weight)
    if modulus is None:
        return weigh(subset_histogram(X), weight)
    return divisor_sum(modulus, top, partial(union_multiples, X), weight)


def tuple_sum(n: int, modulus, weight) -> int:
    """Sum of mu(d) * weight(floor(n/d)) over squarefree d, every one
    with modulus None, weighed per quotient from quotient_histogram, else
    the divisors of the modulus; d beyond n has floor(n/d) = 0."""
    if modulus is None:
        return weigh(quotient_histogram(n), weight)
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
