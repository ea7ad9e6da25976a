"""Möbius, squarefree divisor, and factoring building blocks."""

import sys
from collections import Counter
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relprime import BudgetExceededError, DomainError, f, f_k, g_count, h_count, parse_set_spec
from relprime import _kernels
from relprime._kernels import moebius_values
from relprime.numtheory import factorize, moebius_sieve, squarefree_divisor_terms
from relprime import numtheory
from conftest import moebius, per_prime_moebius, primes_up_to, primorial_up_to, radical


def test_sieve_small_values():
    table = moebius_sieve(12)
    assert table[1] == 1
    assert table[2] == -1
    assert table[4] == 0
    assert table[6] == 1
    assert table[12] == 0


def test_sieve_limit_one():
    assert moebius_sieve(1).tolist() == [0, 1]


def test_sieve_is_a_shared_read_only_int8_array():
    table = moebius_sieve(30)
    assert table.format == "b"
    assert len(table) == 31
    with pytest.raises(TypeError):
        table[6] = 0
    assert moebius_sieve(30) is table
    assert type(table.obj) is bytes
    assert table[6] == 1


def test_sieve_rejects_zero():
    with pytest.raises(DomainError):
        moebius_sieve(0)


def test_sieve_matches_single_value():
    table = moebius_sieve(400)
    for d in range(1, 401):
        assert table[d] == moebius(d)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=20000))
@example(10**6)
def test_square_root_sieve_equals_the_per_prime_sieve(limit):
    assert list(moebius_values(limit)) == per_prime_moebius(limit).tolist()


class Allocated(Exception):
    pass


def test_sieves_past_the_limit_are_refused_before_allocating(monkeypatch):
    def allocate(*args, **kwargs):
        raise Allocated

    # the sieve's first allocation is a bytearray; this stub shadows the
    # builtin inside _kernels only
    monkeypatch.setattr(_kernels, "bytearray", allocate, raising=False)
    limit = _kernels.MAX_SIEVE_LIMIT
    assert limit >= 10**7  # the largest walk the docs show
    for call in (
        lambda: moebius_values(limit + 1),
        lambda: moebius_sieve(limit + 1),
        lambda: g_count(10**9, 2),
        lambda: h_count(10**9, 2),
        lambda: f(parse_set_spec("1000000000..1000100000")),
        lambda: f_k(parse_set_spec("ap(1,1000,100000)"), 3),
    ):
        with pytest.raises(BudgetExceededError, match=f"passes the limit of {limit}$"):
            call()
    with pytest.raises(Allocated):
        moebius_values(limit)  # at the limit, so the sieve is built
    # past what an array can index the refusal stays an OverflowError
    with pytest.raises(OverflowError):
        moebius_values(sys.maxsize)


def test_moebius_identity_over_divisors():
    # sum of mu over the divisors of n picks out n = 1
    for n in range(1, 2001):
        total = sum(mu for _, mu in squarefree_divisor_terms(n, n))
        assert total == (1 if n == 1 else 0)


def test_factorize():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    with pytest.raises(DomainError):
        factorize(0)


def test_primes_and_primorial():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primorial_up_to(1) == 1
    assert primorial_up_to(6) == 30
    assert primorial_up_to(10) == 210
    with pytest.raises(DomainError):
        primorial_up_to(0)


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(97) == 97
    assert radical(360) == 30


def test_factorial_and_primorial_share_squarefree_divisors():
    # all prime factors of a squarefree divisor of x! are <= x, so the
    # squarefree divisors of x! and of the primorial of x coincide
    for x in (1, 2, 7, 10, 19, 30):
        fact = factorial(x)
        prim = primorial_up_to(x)
        assert fact % prim == 0
        terms = squarefree_divisor_terms(prim, prim)
        assert terms[-1][0] == prim  # the primorial is squarefree
        for d, _ in terms:
            assert fact % d == 0
        for d in range(1, 2001):
            if moebius(d) != 0 and fact % d == 0:
                assert prim % d == 0


def test_squarefree_divisor_terms_factor_route():
    assert squarefree_divisor_terms(6, 10) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert squarefree_divisor_terms(6, 2) == [(1, 1), (2, -1)]
    assert squarefree_divisor_terms(12, 100) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert squarefree_divisor_terms(1, 5) == [(1, 1)]
    with pytest.raises(DomainError):
        squarefree_divisor_terms(0, 5)


def test_squarefree_divisor_terms_sieve_route_agrees():
    cases = [(510510, 100), (720, 25), (97, 200), (1, 3)]
    for n, bound in cases:
        want = [
            (d, moebius(d))
            for d in range(1, min(n, bound) + 1)
            if n % d == 0 and moebius(d) != 0
        ]
        assert squarefree_divisor_terms(n, bound) == want


def test_squarefree_divisor_terms_huge_modulus():
    # a modulus too large to factor: only divisibility testing up to the
    # bound is available, and it must still find exactly the right terms
    prim = primorial_up_to(200)
    assert prim > 10**12
    terms = squarefree_divisor_terms(prim, 30)
    expected = [
        (d, moebius(d))
        for d in range(1, 31)
        if moebius(d) != 0 and all(p <= 200 for p, _ in factorize(d))
    ]
    assert terms == expected


def test_squarefree_divisors_are_the_nonzero_divisor_terms():
    # the squarefree divisors of n are the products of its distinct
    # primes, signed by how many they take; the primes come from the
    # reference factoring, not from the walk under test
    cases = [*range(1, 300), 720, 510510, 2**40, 3**25, 10**12, 999983 * 999979]
    for n in cases:
        primes = [p for p, _ in factor_by_trial(n)]
        assert squarefree_divisor_terms(n, n) == signed_products(primes)


def factor_by_trial(n):
    """[(p, e), ...] by trying every d up to the square root: the reference."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def signed_products(primes):
    """(d, mu(d)), ascending, over the products d of subsets of the distinct primes."""
    return sorted(
        (prod(c), (-1) ** r) for r in range(len(primes) + 1) for c in combinations(primes, r)
    )


# the least strong pseudoprimes to the first 4, 9 and 12 prime bases:
# Miller-Rabin on fewer bases than the first 13 would clear one as prime
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)
# the least strong pseudoprime to all 13 bases 2..41:
# 1287836182261 * 2575672364521
WITNESS_BOUND = 3317044064679887385961981


def test_strong_pseudoprimes_come_out_composite():
    for n in STRONG_PSEUDOPRIMES:
        assert not numtheory._proven_prime(n), n
    # the first two factor within reach of the reference
    for n in STRONG_PSEUDOPRIMES[:2]:
        factors = factorize(n)
        assert factors == factor_by_trial(n)
        assert len(factors) == 3
    # the third's smallest prime is about 4 * 10^11: no d <= 10^5 divides it
    assert squarefree_divisor_terms(STRONG_PSEUDOPRIMES[2], 10**5) == [(1, 1)]


def test_primality_test_proves_nothing_at_its_bound():
    # the bound passes all 13 bases, so it must not be cleared as prime
    assert not numtheory._proven_prime(WITNESS_BOUND)
    assert squarefree_divisor_terms(WITNESS_BOUND, 10**5) == [(1, 1)]


def test_primality_test_matches_trial_division():
    for n in (*range(43, 20000, 2), *range(2**32 + 1, 2**32 + 600, 2)):
        assert numtheory._proven_prime(n) == (factor_by_trial(n) == [(n, 1)]), n


# primes on either side of the 2^16 threshold and far past it; the large
# ones are cleared by the primality test, and factoring them by trial
# division would take 10^6 to 10^9 steps.  A leftover made of two large
# primes is still walked to its square root, so at most one joins.
NEAR_THRESHOLD = (2, 3, 65521, 65537, 65539, 131071)
LARGE_PRIMES = (1000000000039, 100000000000031, 10000000000000061,
                1000000000000000003, 2**61 - 1)


@settings(max_examples=30)
@given(
    st.lists(st.sampled_from(NEAR_THRESHOLD), max_size=4),
    st.lists(st.sampled_from(LARGE_PRIMES), max_size=1),
    st.integers(min_value=1, max_value=3),
)
def test_factorize_past_the_threshold(small, large, exponent):
    n = prod(small) ** exponent * prod(large)
    want = sorted(Counter([*small * exponent, *large]).items())
    assert factorize(n) == want
    products = signed_products([p for p, _ in want])
    for cap in (65536, 10**6, n):
        assert squarefree_divisor_terms(n, cap) == [(d, mu) for d, mu in products if d <= cap]


@settings(max_examples=30)
@given(st.integers(min_value=2**32, max_value=2**34))
def test_factorize_matches_trial_division_past_the_threshold(n):
    assert factorize(n) == factor_by_trial(n)
