"""Constrained coprime tuple counts over [1, n].

Five thin calls, through _tuple_count, into the Möbius-sum core,
counting.tuple_sum, whose kernel here is floor(n/d), the count of
multiples of d in [1, n].  The modulus variants (S, L, T) walk the
squarefree divisors of m, where terms with d > n vanish; the
unconstrained variants (G, H) take every squarefree d up to n, which is
the same sum with m replaced by any multiple of all primes up to n, and
weigh it once per block of d with one quotient floor(n/d), reading each
block's sum of mu off the sieve to n.

_tuple_count first bounds each count's result bits from bit lengths
alone and refuses, before any weight is taken, a result that could pass
_MAX_RESULT_BITS bits, a power weight that could pass _MAX_POWER_BITS
bits, a binomial weight whose work could pass _MAX_BINOMIAL_WORK, a
sieve past the sieve's limit for G and H, and a walk whose heavy
weights could together pass _HEAVY_WEIGHTS times that power or
binomial limit.
"""

from math import isqrt

from ._kernels import _check_sieve_limit
from .counting import binomial, tuple_sum
from .errors import BudgetExceededError, check_positive
from .numtheory import squarefree_divisor_terms

# 2^28 bits (32 MiB) is past the 10^8 bits of f([1, 10^8]), so one
# constant can bound every counter's result
_MAX_RESULT_BITS = 1 << 28
# the largest binomial weight, C(a, b) with b the smaller side, is
# bounded by b * bitlen(a) bits, and math.comb's work by those bits times
# b; at this bound one weight took 1.4 s for C(10^9, 95000), 2.0 s for
# C(2^64, 65000) and 0.55 s for C(2*10^5, 10^5) on a 2-core host, while
# every query in the tests and the benchmark stays under 300
_MAX_BINOMIAL_WORK = 1 << 38
# the twin bound for the ordered counters' q^k weights, whose work grows
# with their bits alone, about 3x per doubling: one 1000003^k took 0.04,
# 0.34 and 1.0 s for results of 2^20, 2^22 and 2^23 bits on a 2-core
# host, while the benchmark's powers stay under 2^7 bits and the tests'
# under 2^16
_MAX_POWER_BITS = 1 << 22
# the heavy weights' count times the largest one's cost may reach this
# many times that cost's limit: 4, 8, 16 and 31 power weights near 2^22
# bits, those of G(16, 838860), G(64, 599186), G(256, 466033) and
# G(1000, 419430), took 0.42, 0.89, 1.7 and 4.0 s on a 2-core host; the
# costliest walks it admits, S(1000003, 209715, 6) and T(10^9, 95000, 6),
# 4 weights each, took 1.1 and 4.7 s there
_HEAVY_WEIGHTS = 4


def _tuple_count(ordering, n, k, m, weight):
    """tuple_sum(n, m, weight) for a count of k-tuples over [1, n] in one
    ordering, after its arguments are checked and its cost is bounded.

    A result that could pass _MAX_RESULT_BITS bits is refused, bounded
    from bit lengths alone: n^k ordered, C(n+k-1, k) <= (n+k-1)^min(k, n-1)
    nondecreasing and C(n, k) <= n^max(0, min(k, n-k)) strict, zero when
    k > n.  The same bound holds for the largest weight: a power n^k,
    refused past _MAX_POWER_BITS, or a binomial, whose bits times its
    smaller side bound its work, refused past _MAX_BINOMIAL_WORK.

    Only the weights of floor(n/d) for d <= isqrt(n) can have half the
    largest weight's bits or more.  A binomial's smaller side is also at
    most floor(n/d), so past d = 2n / exponent its work is under a
    quarter of the largest's.  Those d, every one with no modulus m and
    the squarefree divisors of m otherwise, are the heavy weights, and
    their number times the largest weight's cost is refused past
    _HEAVY_WEIGHTS times its limit.  The divisors of m are counted only
    when as many weights as candidate d would pass it.
    """
    check_positive(n=n, k=k, m=1 if m is None else m)
    base, exponent = {
        "ordered": (n, k),
        "nondecreasing": (n + k - 1, min(k, n - 1)),
        "strict": (n, max(0, min(k, n - k))),
    }[ordering]
    bits = exponent * base.bit_length()
    if bits > _MAX_RESULT_BITS:
        raise BudgetExceededError(
            f"counting {k}-tuples over [1, {n}] may give a result of {bits} bits, "
            f"past the limit of {_MAX_RESULT_BITS}"
        )
    if ordering == "ordered":
        cost, limit, heavy = bits, _MAX_POWER_BITS, isqrt(n)
        weights = f"power weights of {bits} bits, past"
    else:
        cost, limit = bits * exponent, _MAX_BINOMIAL_WORK
        heavy = min(isqrt(n), 2 * n // max(exponent, 1))
        weights = f"binomial weights of {bits} bits, whose work passes"
    if cost > limit:
        raise BudgetExceededError(
            f"counting {k}-tuples over [1, {n}] may take {weights} the limit of {limit}"
        )
    if m is None:
        _check_sieve_limit(n)  # the walk sieves to n, so a sieve too large is named first
    elif heavy * cost > _HEAVY_WEIGHTS * limit:
        heavy = len(squarefree_divisor_terms(m, heavy))
    if heavy * cost > _HEAVY_WEIGHTS * limit:
        raise BudgetExceededError(
            f"counting {k}-tuples over [1, {n}] may take {heavy} weights of up to "
            f"{bits} bits, whose work passes the limit of {_HEAVY_WEIGHTS * limit}"
        )
    return tuple_sum(n, m, weight)


def s_count(n: int, k: int, m: int) -> int:
    """Ordered k-tuples from [1, n] whose gcd together with m is 1.

    Sum of mu(d) * floor(n/d)^k over divisors d of m.
    """
    return _tuple_count("ordered", n, k, m, lambda q: q**k)


def g_count(n: int, k: int) -> int:
    """Ordered k-tuples from [1, n] with gcd 1.

    Sum of mu(d) * floor(n/d)^k over d up to n.
    """
    return _tuple_count("ordered", n, k, None, lambda q: q**k)


def l_count(n: int, k: int, m: int) -> int:
    """Nondecreasing k-tuples (multisets) from [1, n] coprime to m.

    Sum of mu(d) * C(floor(n/d) + k - 1, k): each term counts selections
    of k values with repetition from the floor(n/d) multiples of d.
    """
    return _tuple_count("nondecreasing", n, k, m, lambda q: binomial(q + k - 1, k))


def h_count(n: int, k: int) -> int:
    """Nondecreasing k-tuples from [1, n] with gcd 1.

    Sum of mu(d) * C(floor(n/d) + k - 1, k) over d up to n.
    """
    return _tuple_count("nondecreasing", n, k, None, lambda q: binomial(q + k - 1, k))


def t_count(n: int, k: int, m: int) -> int:
    """Strictly increasing k-tuples (k-subsets) of [1, n] coprime to m.

    Sum of mu(d) * C(floor(n/d), k) over divisors d of m.  k larger than
    n yields 0 by the binomial convention rather than an error.
    """
    return _tuple_count("strict", n, k, m, lambda q: binomial(q, k))
