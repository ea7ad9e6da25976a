"""Möbius sieve, squarefree divisor terms, and factoring.

Everything works on plain Python integers so results stay exact at any
size.  The Möbius sieve is the only table: moebius_sieve caches the
read-only signed-byte view that _kernels.moebius_values sieves, the
last 8 limits, shared by every caller; it loops in Python only over the
primes up to the square root of the limit and its cofactors, and
refuses a limit past _kernels.MAX_SIEVE_LIMIT.  Its entries read as
Python ints, so fixed-width scalars never reach a big-integer sum.
counting caches a weight-free histogram per dense ground set on top of
it, so a repeated count on one set skips both.
Factoring has one trial-division loop, _prime_factors, which finds
each prime and its exponent in one pass; factorize and the squarefree
divisor walk both read it.  It stays pure Python: past 2^16 it stops
at a leftover that a Miller-Rabin test on the bases up to 41 proves
prime, exact below 3317044064679887385961981, so no probable prime
ever enters a count.
"""

from functools import lru_cache

from . import _kernels
from .errors import check_positive

# _WITNESS_BOUND is the least strong pseudoprime to all of _WITNESSES,
# the first 13 primes (Sorenson and Webster, Strong pseudoprimes to
# twelve prime bases, Math. Comp. 86 (2017))
_TRIAL_ONLY = 1 << 16
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3317044064679887385961981


@lru_cache(maxsize=8)
def moebius_sieve(limit: int):
    """mu[0..limit] as a read-only memoryview of signed bytes, sieved by
    _kernels.moebius_values; mu[0] is a filler zero."""
    check_positive(limit=limit)
    return _kernels.moebius_values(limit)


def factorize(n: int) -> list:
    """Prime factorization [(p, e), ...] by trial division, ascending p."""
    check_positive(n=n)
    return _prime_factors(n, n)


def squarefree_divisor_terms(n: int, bound: int) -> list:
    """Pairs (d, mu(d)) over squarefree divisors d <= bound of n, ascending.

    Möbius sums over d | n only ever need these terms: non-squarefree
    divisors carry mu = 0, and callers arrange that divisors beyond their
    bound contribute nothing.  Only the primes of n up to min(n, bound)
    are looked for, by trial division, so a modulus of any size costs at
    most that many steps; primorials and factorial stand-ins shed their
    small primes fast and stop once the cofactor is prime.
    """
    check_positive(modulus=n)
    cap = min(n, bound)
    if cap < 1:
        return []
    return squarefree_products([p for p, _ in _prime_factors(n, cap)], cap)


def squarefree_products(primes, cap: int) -> list:
    """Pairs (d, mu(d)) over the products d <= cap of distinct primes
    from the list primes, ascending, the empty product 1 first."""
    terms = [(1, 1)]
    for p in primes:
        terms += [(d * p, -mu) for d, mu in terms if d * p <= cap]
    terms.sort()
    return terms


def _prime_factors(n: int, cap: int) -> list:
    """Pairs (p, e) over the distinct primes p <= cap dividing n, with
    p^e the exact power of p in n, ascending, by trial division.

    Trial division stops once p exceeds cap or p^2 exceeds what is left
    of n; the leftover is then 1, a prime, or built from primes above cap,
    and joins with e = 1 when it is a prime <= cap.  Past p = 2^16 it
    also stops once _proven_prime clears the leftover, tested once for
    each value the leftover takes, so a large prime factor costs one
    test instead of a walk to its square root.
    """
    factors = []
    rest = n
    tested = 1  # the last leftover found composite
    p = 2
    while p <= cap and p * p <= rest:
        if rest % p == 0:
            rest //= p
            e = 1
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        elif p > _TRIAL_ONLY and rest != tested:
            if _proven_prime(rest):
                break
            tested = rest
        p += 1 if p == 2 else 2
    if 1 < rest <= cap:
        factors.append((rest, 1))
    return factors


def _proven_prime(n: int) -> bool:
    """True when the odd n > 41 is prime, by Miller-Rabin on the bases
    _WITNESSES; False when n is composite, or too large for those bases
    to prove anything."""
    if n >= _WITNESS_BOUND:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

