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
    cli,
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
from relprime.numtheory import squarefree_divisor_terms
from conftest import primorial_up_to, radical


def test_s_count_examples():
    assert s_count(6, 1, 6) == 2  # 1 and 5
    for n, k in [(3, 2), (5, 3), (7, 1)]:
        assert s_count(n, k, 1) == n**k
    assert s_count(3, 2, 30) == 7
    assert s_count(1, 10**30, 6) == 1  # 1^k = 1, so no bound may refuse it


def test_g_count_examples():
    assert g_count(3, 2) == 7
    for k in (1, 2, 5, 10**30):
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


def test_t_count_k_beyond_n(capsys):
    assert t_count(3, 5, 6) == 0
    assert t_count(2, 9, 1) == 0
    # far beyond n the binomial-work bound must not see a negative side
    assert t_count(3, 600000, 6) == 0
    assert cli.main(["count", "T", "--n", "3", "--k", "600000", "--m", "6", "--tsv"]) == 0
    assert capsys.readouterr().out.split()[-1] == "0"


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
    # the power bound, far lower, is tested on its own below
    monkeypatch.setattr(shonhiwa, "_MAX_POWER_BITS", limit)
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


def test_costly_power_weights_are_refused_before_any_weight(monkeypatch):
    def no_weights(*args):
        raise AssertionError("a weight was computed")

    monkeypatch.setattr(shonhiwa, "tuple_sum", no_weights)
    limit = shonhiwa._MAX_POWER_BITS
    # each is under the 2^28-bit result bound; the first two, of
    # 21 * 8*10^6 bits, would take minutes for one 349525^8000000
    for call in (
        lambda: s_count(2**20, 8 * 10**6, 6),
        lambda: g_count(2**20, 8 * 10**6),
        lambda: g_count(2, limit // 2 + 1),  # one position past the limit
    ):
        with pytest.raises(BudgetExceededError,
                           match="power weights of .* past the limit of 4194304$"):
            call()
    with pytest.raises(AssertionError, match="a weight was computed"):
        s_count(2, limit // 2, 6)  # at the limit, so the weights are taken


def test_costly_binomial_weights_are_refused_before_any_weight(monkeypatch):
    # each passes the result bound, and would take C(about 2*10^6, 10^6)
    monkeypatch.setattr(shonhiwa, "binomial", lambda *args: pytest.fail("a weight was computed"))
    for call in (
        lambda: l_count(10**6, 10**6, 6),
        lambda: h_count(10**6, 10**6),
        lambda: t_count(2 * 10**6, 10**6, 6),
    ):
        with pytest.raises(BudgetExceededError,
                           match="whose work passes the limit of 274877906944$"):
            call()


def test_binomial_work_is_the_bits_times_the_smaller_side(monkeypatch):
    # C(10, 4) has at most 4 * bitlen(10) = 16 bits, times 4
    monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", 64)
    assert t_count(10, 4, 6) == brute_tuples(10, 4, 6, "strict")
    assert l_count(7, 4, 6) == brute_tuples(7, 4, 6, "nondecreasing")
    monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", 63)
    for call in (lambda: t_count(10, 4, 6), lambda: l_count(7, 4, 6), lambda: h_count(7, 4)):
        with pytest.raises(BudgetExceededError, match="binomial weights of 16 bits"):
            call()
    # ordered tuples weigh powers, not binomials
    monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", 0)
    assert s_count(10, 4, 6) == brute_tuples(10, 4, 6)
    assert g_count(10, 4) == brute_tuples(10, 4)


def test_heavy_weights_together_are_refused_before_any_weight(monkeypatch):
    def no_weights(*args):
        raise AssertionError("a weight was computed")

    monkeypatch.setattr(shonhiwa, "tuple_sum", no_weights)
    # each passes every per-weight bound; the first took 42 s
    for call, count in (
        (lambda: g_count(100000, 246723), 316),
        (lambda: g_count(25, 671089), 5),  # one position past the limit
        (lambda: s_count(1000, 419430, 30030), 15),
        (lambda: s_count(36, 559241, 30), 5),  # 1, 2, 3, 5 and 6 divide 30
        (lambda: t_count(10**9, 30000, 30030), 64),
        (lambda: l_count(10**9, 30000, 30030), 64),
    ):
        with pytest.raises(BudgetExceededError,
                           match=f"may take {count} weights of up to .* passes the limit of"):
            call()
    for call in (
        lambda: g_count(25, 671088),  # at the limit
        lambda: s_count(36, 559241, 6),  # 4 of the squarefree d <= 6 divide 6
        lambda: s_count(1000003, 209715, 6),
        # a smaller side of at most floor(n/d) leaves 2 heavy weights, not 316
        lambda: h_count(10**5, 10**5),
    ):
        with pytest.raises(AssertionError, match="a weight was computed"):
            call()


def no_weights(*args):
    raise AssertionError("a weight was computed")


def test_nondecreasing_bound_is_its_base_and_exponent_at_the_edge(monkeypatch):
    # h_count(8, 8) bounds C(15, 8) by 15^7, 4 bits times 7, whose work is
    # 28 * 7 = 196; h_count(8, 9) has base 16, 5 bits, so 35 * 7 = 245.
    # A base or an n - 1 one off moves either work across its edge.
    monkeypatch.setattr(shonhiwa, "tuple_sum", no_weights)
    for n, k, bits, work in ((8, 8, 28, 196), (8, 9, 35, 245)):
        monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", work)
        with pytest.raises(AssertionError, match="a weight was computed"):
            h_count(n, k)
        monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", work - 1)
        with pytest.raises(BudgetExceededError, match=f"binomial weights of {bits} bits"):
            h_count(n, k)


@pytest.mark.parametrize("k, bits, work", [(25, 175, 8750), (23, 161, 7406)])
def test_heavy_binomial_weights_stop_at_twice_n_over_the_exponent(monkeypatch, k, bits, work):
    # h_count(100, k) weighs C(q + k - 1, k), at most 7 bits times k and
    # that times k work; 2 * 100 // k = 8 < isqrt(100) heavy weights reach
    # 8 * bits * k, which 4 * work admits and 4 * (work - 1) refuses.
    # 200 // 26 = 7 and 200 // 22 = 9, so a count one off either way, or
    # a divisor of k + 1 or k - 1, crosses the edge.
    monkeypatch.setattr(shonhiwa, "tuple_sum", no_weights)
    monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", work)
    with pytest.raises(AssertionError, match="a weight was computed"):
        h_count(100, k)
    monkeypatch.setattr(shonhiwa, "_MAX_BINOMIAL_WORK", work - 1)
    with pytest.raises(BudgetExceededError, match=f"may take 8 weights of up to {bits} bits"):
        h_count(100, k)


def test_divisors_of_m_are_counted_only_past_the_cheap_bound(monkeypatch):
    calls = []

    def spy(m, bound):
        calls.append((m, bound))
        return squarefree_divisor_terms(m, bound)

    monkeypatch.setattr(shonhiwa, "squarefree_divisor_terms", spy)
    monkeypatch.setattr(shonhiwa, "tuple_sum", lambda *args: 0)
    for count in (s_count, l_count, t_count):
        count(3000, 3, 30030)
    assert calls == []
    s_count(36, 559241, 6)
    assert calls == [(6, 6)]


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
