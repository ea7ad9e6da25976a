"""The four Möbius-sum subset counters and their helpers."""

import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relprime import (
    DomainError,
    Progression,
    brute_f,
    brute_f_k,
    brute_phi,
    brute_phi_k,
    f,
    f_k,
    interval,
    nathanson_f,
    nathanson_phi,
    parse_set_spec,
    phi,
    phi_k,
    validate_union,
)
from relprime.counting import binomial, mobius_sum, power_of_two_minus_one
from conftest import primorial_up_to, radical, random_union


def pascal_binomial(n, k):
    # row-by-row Pascal recurrence, the slow but obviously right way
    if k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1
    value = binomial(64, 32)
    assert len(str(value)) == 19
    assert value == pascal_binomial(64, 32)
    with pytest.raises(DomainError):
        binomial(-1, 2)
    with pytest.raises(DomainError):
        binomial(4, -2)


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=90))
def test_binomial_matches_pascal(n, k):
    assert binomial(n, k) == pascal_binomial(n, k)


def test_power_of_two_minus_one():
    assert power_of_two_minus_one(0) == 0
    assert power_of_two_minus_one(10) == 1023
    assert power_of_two_minus_one(200) == sum(binomial(200, k) for k in range(1, 201))
    with pytest.raises(DomainError):
        power_of_two_minus_one(-1)


def test_mobius_sum_guards_negativity():
    assert mobius_sum([(1, 10), (-1, 3), (0, 999)]) == 7
    assert mobius_sum([]) == 0
    with pytest.raises(ArithmeticError):
        mobius_sum([(1, 1), (-1, 5)])


def test_phi_k_examples():
    assert phi_k(parse_set_spec("1..6"), 6, 1) == 2  # just 1 and 5
    assert phi_k(parse_set_spec("1..6"), 1, 2) == binomial(6, 2)
    assert phi_k(parse_set_spec("1..4"), 6, 5) == 0  # k beyond |X|


def test_phi_examples():
    assert phi(parse_set_spec("1..2 + 5..6"), 6) == 12
    X = parse_set_spec("ap(3,5,4)")
    assert phi(X, 1) == 2**X.size - 1
    assert phi(parse_set_spec("ap(2,2,3)"), 2) == 0  # every element even


def test_f_k_examples():
    assert f_k(parse_set_spec("1..4"), 2) == 5
    assert f_k(parse_set_spec("1..1"), 1) == 1
    evens = parse_set_spec("ap(2,2,4)")
    for k in range(1, 5):
        assert f_k(evens, k) == 0


def test_f_examples():
    assert f(parse_set_spec("1..4")) == 11
    assert f(parse_set_spec("1..1")) == 1
    assert f(parse_set_spec("1..3")) == 5


def test_domain_errors():
    X = parse_set_spec("1..4")
    with pytest.raises(DomainError):
        phi(X, 0)
    with pytest.raises(DomainError):
        phi_k(X, 6, 0)
    with pytest.raises(DomainError):
        f_k(X, -1)
    with pytest.raises(DomainError):
        nathanson_f(0)


def test_degenerate_modulus_one():
    for spec in ("1..5", "ap(4,3,6)", "2..3 + 7..9"):
        X = parse_set_spec(spec)
        assert phi(X, 1) == power_of_two_minus_one(X.size)
        for k in range(1, X.size + 2):
            assert phi_k(X, 1, k) == binomial(X.size, k)


def test_matches_oracle_on_random_sets():
    rng = random.Random(9121)
    for _ in range(60):
        X = random_union(rng, size_cap=12)
        n = rng.randint(1, 60)
        assert f(X) == brute_f(X)
        assert phi(X, n) == brute_phi(X, n)
        for k in range(1, X.size + 2):
            assert f_k(X, k) == brute_f_k(X, k)
            assert phi_k(X, n, k) == brute_phi_k(X, n, k)


def test_cardinality_decomposition():
    rng = random.Random(4357)
    for _ in range(40):
        X = random_union(rng, size_cap=16)
        n = rng.randint(1, 80)
        assert f(X) == sum(f_k(X, k) for k in range(1, X.size + 1))
        assert phi(X, n) == sum(phi_k(X, n, k) for k in range(1, X.size + 1))


def test_primorial_bridge():
    rng = random.Random(775)
    for _ in range(25):
        X = random_union(rng, size_cap=14)
        P = primorial_up_to(X.max_element)
        assert f(X) == phi(X, P)
        for k in range(1, X.size + 1):
            assert f_k(X, k) == phi_k(X, P, k)


def test_bridge_survives_unfactorable_modulus():
    # primorial(200) is far above 10^12; the modulus walk looks only for
    # its primes up to max X
    X = parse_set_spec("1..12 + ap(15,5,3)")
    P = primorial_up_to(200)
    assert P > 10**12
    assert phi(X, P) == phi(X, primorial_up_to(X.max_element)) == f(X)


def test_radical_invariance():
    rng = random.Random(30103)
    for _ in range(30):
        X = random_union(rng, size_cap=14)
        n = rng.randint(1, 4000)
        assert phi(X, n) == phi(X, radical(n))
        assert phi_k(X, n, 2) == phi_k(X, radical(n), 2)


def test_monotone_in_the_ground_set():
    for n in range(2, 12):
        smaller = validate_union([interval(1, n - 1)])
        larger = validate_union([interval(1, n)])
        assert f(smaller) <= f(larger)
    evens = validate_union([Progression(2, 2, 5)])
    full = validate_union([interval(1, 10)])
    assert f(evens) <= f(full)


def test_interval_settings_match_oracle():
    # the [1,n], [m,n], and [l,m] ground sets from the earlier literature
    for spec in ("1..9", "5..12", "3..9"):
        X = parse_set_spec(spec)
        assert f(X) == brute_f(X)
        assert phi(X, 30) == brute_phi(X, 30)
        for k in (1, 2, 3):
            assert f_k(X, k) == brute_f_k(X, k)
            assert phi_k(X, 30, k) == brute_phi_k(X, 30, k)


def test_nathanson_sequences():
    assert [nathanson_f(n) for n in range(1, 6)] == [1, 2, 5, 11, 26]
    assert nathanson_f(2) == 2
    assert nathanson_phi(1) == 1
    assert nathanson_phi(3) % 3 == 0


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=60))
def test_phi_drops_negative_never(n_size, modulus):
    # the signed accumulation must always resolve to a nonnegative count
    X = validate_union([interval(1, n_size)])
    assert phi(X, modulus) >= 0
    assert f(X) >= 0


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=400))
def test_subsets_grouped_by_gcd_are_every_subset(lo, width):
    # the subsets of [lo, hi] whose gcd is g are g times the relatively
    # prime subsets of [ceil(lo/g), floor(hi/g)]; empty intervals are
    # skipped and equal ones counted once, times their number
    hi = lo + width
    intervals = Counter((-(-lo // g), hi // g) for g in range(1, hi + 1))
    total = sum(times * f(validate_union([interval(a, b)]))
                for (a, b), times in intervals.items() if a <= b)
    assert total == 2 ** (width + 1) - 1


def multiples_divided(X, g):
    """X^(g) = {x/g : g divides x} as a union of progressions, or None
    when g divides no element.  A part's multiples of g are its terms
    first + i*step with i = i0 modulo g/gcd(step, g), so they form one
    progression, and dividing by g keeps the parts disjoint."""
    parts = []
    for p in X.parts:
        d = gcd(p.step, g)
        if p.first % d:
            continue
        period = g // d
        i0 = -(p.first // d) * pow(p.step // d, -1, period) % period
        if i0 < p.length:
            parts.append(Progression((p.first + i0 * p.step) // g, p.step // d,
                                     (p.length - 1 - i0) // period + 1))
    return validate_union(parts) if parts else None


@st.composite
def ap_unions(draw):
    """Disjoint unions of up to four progressions with 30-200 elements,
    past the subset oracle's reach: parts side by side, or interleaved on
    one step with distinct residues."""
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        step = draw(st.integers(2, 12))
        residues = draw(st.lists(st.integers(1, step), min_size=1, max_size=count, unique=True))
        parts = [Progression(r + step * draw(st.integers(0, 20)), step, draw(st.integers(1, 100)))
                 for r in residues]
    else:
        parts, lo = [], 1
        for _ in range(count):
            p = Progression(lo + draw(st.integers(0, 50)), draw(st.integers(1, 12)),
                            draw(st.integers(1, 100)))
            parts.append(p)
            lo = p.max_element + 1
    X = validate_union(parts)
    assume(30 <= X.size <= 200)
    return X


def test_multiples_divided_matches_the_elements():
    X = parse_set_spec("ap(3,5,60) + ap(4,5,50)")
    elements = [x for p in X.parts for x in p.elements()]
    for g in range(1, X.max_element + 2):
        Y = multiples_divided(X, g)
        got = sorted(y for p in Y.parts for y in p.elements()) if Y else []
        assert got == sorted(x // g for x in elements if x % g == 0)


@settings(max_examples=40, deadline=None)
@given(ap_unions())
def test_f_over_the_gcds_of_an_ap_union_counts_every_subset(X):
    # a nonempty subset with gcd g is g times a relatively prime subset
    # of X^(g), so f summed over every g counts each subset once
    total = sum(f(Y) for g in range(1, X.max_element + 1) if (Y := multiples_divided(X, g)))
    assert total == 2**X.size - 1


@settings(max_examples=40, deadline=None)
@given(ap_unions(), st.sampled_from([1, 2, 12, 360, 2310, 30030, 720720]))
def test_phi_over_the_divisors_of_m_counts_every_subset(X, m):
    # a nonempty subset A with gcd(A + {m}) = g is g times a subset of
    # X^(g) relatively prime to m/g
    total = sum(phi(Y, m // g) for g in range(1, m + 1)
                if m % g == 0 and (Y := multiples_divided(X, g)))
    assert total == 2**X.size - 1
