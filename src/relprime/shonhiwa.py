"""Constrained coprime tuple counts over [1, n].

Five thin calls into the Möbius-sum core, counting.divisor_sum (through
tuple_sum), whose kernel here is floor(n/d), the count of multiples of d
in [1, n].  The modulus variants (S, L, T) walk the squarefree divisors
of m, where terms with d > n vanish; the unconstrained variants (G, H)
walk every squarefree d up to n, which is the same sum with m replaced
by any multiple of all primes up to n.

Each counter first bounds its result's bits from bit lengths alone and
refuses, before any weight is taken, a result that could pass
_MAX_RESULT_BITS bits, a power weight that could pass _MAX_POWER_BITS
bits, or a binomial weight whose work could pass _MAX_BINOMIAL_WORK.
"""

from .counting import binomial, tuple_sum
from .errors import BudgetExceededError, check_positive

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


def _check_result_bits(ordering, n, k):
    """Refuse a count of k-tuples over [1, n] whose result could pass
    _MAX_RESULT_BITS bits, bounded from bit lengths alone: n^k ordered,
    C(n+k-1, k) <= (n+k-1)^min(k, n-1) nondecreasing and
    C(n, k) <= n^max(0, min(k, n-k)) strict, zero when k > n.  The
    same bound holds for the largest weight: a power n^k, refused past
    _MAX_POWER_BITS, or a binomial, whose bits times its smaller side
    bound its work, refused past _MAX_BINOMIAL_WORK."""
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
        if bits > _MAX_POWER_BITS:
            raise BudgetExceededError(
                f"counting {k}-tuples over [1, {n}] may take power weights of "
                f"{bits} bits, past the limit of {_MAX_POWER_BITS}"
            )
    elif bits * exponent > _MAX_BINOMIAL_WORK:
        raise BudgetExceededError(
            f"counting {k}-tuples over [1, {n}] may take binomial weights of "
            f"{bits} bits, whose work passes the limit of {_MAX_BINOMIAL_WORK}"
        )


def s_count(n: int, k: int, m: int) -> int:
    """Ordered k-tuples from [1, n] whose gcd together with m is 1.

    Sum of mu(d) * floor(n/d)^k over divisors d of m.
    """
    check_positive(n=n, k=k, m=m)
    _check_result_bits("ordered", n, k)
    return tuple_sum(n, m, lambda q: q**k)


def g_count(n: int, k: int) -> int:
    """Ordered k-tuples from [1, n] with gcd 1.

    Sum of mu(d) * floor(n/d)^k over d up to n.
    """
    check_positive(n=n, k=k)
    _check_result_bits("ordered", n, k)
    return tuple_sum(n, None, lambda q: q**k)


def l_count(n: int, k: int, m: int) -> int:
    """Nondecreasing k-tuples (multisets) from [1, n] coprime to m.

    Sum of mu(d) * C(floor(n/d) + k - 1, k): each term counts selections
    of k values with repetition from the floor(n/d) multiples of d.
    """
    check_positive(n=n, k=k, m=m)
    _check_result_bits("nondecreasing", n, k)
    return tuple_sum(n, m, lambda q: binomial(q + k - 1, k))


def h_count(n: int, k: int) -> int:
    """Nondecreasing k-tuples from [1, n] with gcd 1.

    Sum of mu(d) * C(floor(n/d) + k - 1, k) over d up to n.
    """
    check_positive(n=n, k=k)
    _check_result_bits("nondecreasing", n, k)
    return tuple_sum(n, None, lambda q: binomial(q + k - 1, k))


def t_count(n: int, k: int, m: int) -> int:
    """Strictly increasing k-tuples (k-subsets) of [1, n] coprime to m.

    Sum of mu(d) * C(floor(n/d), k) over divisors d of m.  k larger than
    n yields 0 by the binomial convention rather than an error.
    """
    check_positive(n=n, k=k, m=m)
    _check_result_bits("strict", n, k)
    return tuple_sum(n, m, lambda q: binomial(q, k))
