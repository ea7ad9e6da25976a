"""Constrained coprime tuple counts over [1, n].

Five thin calls into the Möbius-sum core, counting.divisor_sum (through
tuple_sum), whose kernel here is floor(n/d), the count of multiples of d
in [1, n].  The modulus variants (S, L, T) walk the squarefree divisors
of m, where terms with d > n vanish; the unconstrained variants (G, H)
walk every squarefree d up to n, which is the same sum with m replaced
by any multiple of all primes up to n.

Each counter first bounds its result's bits from bit lengths alone and
refuses, before any weight is taken, a result that could pass
_MAX_RESULT_BITS bits.
"""

from .counting import binomial, tuple_sum
from .errors import BudgetExceededError, check_positive

# 2^28 bits (32 MiB) is past the 10^8 bits of f([1, 10^8]), so one
# constant can bound every counter's result
_MAX_RESULT_BITS = 1 << 28


def _check_result_bits(ordering, n, k):
    """Refuse a count of k-tuples over [1, n] whose result could pass
    _MAX_RESULT_BITS bits, bounded from bit lengths alone: n^k ordered,
    C(n+k-1, k) <= (n+k-1)^min(k, n-1) nondecreasing and
    C(n, k) <= n^min(k, n-k) strict."""
    base, exponent = {
        "ordered": (n, k),
        "nondecreasing": (n + k - 1, min(k, n - 1)),
        "strict": (n, min(k, n - k)),
    }[ordering]
    bits = exponent * base.bit_length()
    if bits > _MAX_RESULT_BITS:
        raise BudgetExceededError(
            f"counting {k}-tuples over [1, {n}] may give a result of {bits} bits, "
            f"past the limit of {_MAX_RESULT_BITS}"
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
