"""The five constrained-tuple counters over [1, n]."""

import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relprime import (
    BudgetExceededError,
    DomainError,
    brute_tuples,
    g_count,
    h_count,
    interval,
    l_count,
    phi_k,
    s_count,
    t_count,
    validate_union,
)
from relprime import shonhiwa
from relprime.counting import binomial
from conftest import primorial_up_to, radical


def test_s_count_examples():
    assert s_count(6, 1, 6) == 2  # 1 and 5
    for n, k in [(3, 2), (5, 3), (7, 1)]:
        assert s_count(n, k, 1) == n**k
    assert s_count(3, 2, 30) == 7


def test_g_count_examples():
    assert g_count(3, 2) == 7
    for k in (1, 2, 5):
        assert g_count(1, k) == 1
    assert g_count(4, 2) == 11


def test_l_count_examples():
    assert l_count(2, 2, 2) == 2
    for n, m in [(4, 6), (7, 10), (9, 1)]:
        assert l_count(n, 1, m) == s_count(n, 1, m)
    assert l_count(3, 2, 6) == 4


def test_h_count_examples():
    assert h_count(2, 2) == 2
    for k in (1, 3, 4):
        assert h_count(1, k) == 1
    assert h_count(3, 3) == brute_tuples(3, 3, None, "nondecreasing")


def test_t_count_examples():
    assert t_count(4, 2, 6) == 5
    for n, k in [(5, 2), (6, 3), (4, 1)]:
        assert t_count(n, k, 1) == binomial(n, k)
    assert t_count(4, 2, 6) == phi_k(validate_union([interval(1, 4)]), 6, 2)


def test_t_count_k_beyond_n():
    assert t_count(3, 5, 6) == 0
    assert t_count(2, 9, 1) == 0


def test_domain_errors():
    for call in (
        lambda: s_count(0, 1, 1),
        lambda: s_count(1, 0, 1),
        lambda: s_count(1, 1, 0),
        lambda: g_count(0, 2),
        lambda: l_count(3, 2, 0),
        lambda: h_count(3, 0),
        lambda: t_count(0, 1, 1),
    ):
        with pytest.raises(DomainError):
            call()


def test_wide_results_are_refused_before_any_weight(monkeypatch):
    def no_weights(*args):
        raise AssertionError("a weight was computed")

    monkeypatch.setattr(shonhiwa, "tuple_sum", no_weights)
    limit = shonhiwa._MAX_RESULT_BITS
    for call in (
        lambda: g_count(10, 10**20),
        lambda: s_count(10, 10**8, 6),
        lambda: g_count(2, limit // 2 + 1),  # one position past the limit
        lambda: l_count(10**8, 10**8, 6),
        lambda: h_count(10**8, 10**8),
        lambda: t_count(10**9, 10**8, 6),
    ):
        with pytest.raises(BudgetExceededError, match="past the limit of 268435456$"):
            call()
    with pytest.raises(AssertionError, match="a weight was computed"):
        g_count(2, limit // 2)  # at the limit, so the weights are taken


def test_matches_brute_tuples_small_grid():
    for n in range(1, 8):
        for k in range(1, 4):
            assert g_count(n, k) == brute_tuples(n, k, None, "ordered")
            assert h_count(n, k) == brute_tuples(n, k, None, "nondecreasing")
            for m in (1, 2, 6, 30, 49):
                assert s_count(n, k, m) == brute_tuples(n, k, m, "ordered")
                assert l_count(n, k, m) == brute_tuples(n, k, m, "nondecreasing")
                assert t_count(n, k, m) == brute_tuples(n, k, m, "strict")


def test_strict_tuples_are_subset_counts():
    for n in range(1, 12):
        for k in range(1, n + 1):
            for m in (2, 6, 15):
                X = validate_union([interval(1, n)])
                assert t_count(n, k, m) == phi_k(X, m, k)


def test_primorial_bridges():
    for n in range(1, 13):
        P = primorial_up_to(n)
        for k in range(1, 4):
            assert g_count(n, k) == s_count(n, k, P)
            assert h_count(n, k) == l_count(n, k, P)


def test_huge_modulus_walk():
    # primorial(50) is far above 10^12, yet every squarefree d <= n
    # divides it, so S collapses to G
    P = primorial_up_to(50)
    assert P > 10**12
    for n in (10, 25, 50):
        for k in (1, 2, 3):
            assert s_count(n, k, P) == g_count(n, k)


def test_ordering_sandwich():
    rng = random.Random(65537)
    for _ in range(200):
        n = rng.randint(1, 25)
        k = rng.randint(1, 6)
        m = rng.randint(1, 90)
        t, l, s = t_count(n, k, m), l_count(n, k, m), s_count(n, k, m)
        assert t <= l <= s


def test_modulus_radical_invariance():
    rng = random.Random(24601)
    for _ in range(100):
        n = rng.randint(1, 30)
        k = rng.randint(1, 5)
        m = rng.randint(1, 500)
        assert s_count(n, k, m) == s_count(n, k, radical(m))
        assert l_count(n, k, m) == l_count(n, k, radical(m))
        assert t_count(n, k, m) == t_count(n, k, radical(m))


def grouped_by_gcd(n, count, k):
    # the k-tuples whose gcd is g are g times those over [1, n // g] with
    # gcd 1; equal quotients n // g are counted once, times their number
    quotients = Counter(n // g for g in range(1, n + 1))
    return sum(times * count(q, k) for q, times in quotients.items())


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=5))
def test_tuples_grouped_by_gcd_are_every_tuple(n, k):
    assert grouped_by_gcd(n, g_count, k) == n**k
    assert grouped_by_gcd(n, h_count, k) == comb(n + k - 1, k)
