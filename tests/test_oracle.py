"""The brute-force oracle itself, recounted a second independent way."""

import random
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest

from relprime import (
    BudgetExceededError,
    DomainError,
    OracleBudget,
    brute_f,
    brute_f_k,
    brute_phi,
    brute_phi_k,
    brute_tuples,
    enumerate_elements,
    interval,
    moebius,
    parse_set_spec,
    primorial_up_to,
    subset_gcd_histogram,
    validate_union,
)
from relprime import _kernels
from conftest import random_union, subsets_recount

import numpy as np


def test_brute_subset_examples():
    assert brute_f(parse_set_spec("1..3")) == 5
    assert brute_f(validate_union([interval(6, 6)])) == 0
    assert brute_f_k(parse_set_spec("1..2"), 2) == 1
    assert brute_phi(parse_set_spec("1..2 + 5..6"), 6) == 12
    X = parse_set_spec("ap(3,4,5)")
    assert brute_phi(X, 1) == 2**X.size - 1
    assert brute_phi(parse_set_spec("ap(2,2,2)"), 4) == 0


def test_histogram_matches_itertools_recount():
    rng = random.Random(555)
    for _ in range(25):
        X = random_union(rng, size_cap=10)
        members = enumerate_elements(X)
        n = rng.randint(1, 50)
        total_plain, by_k_plain = subsets_recount(members)
        total_n, by_k_n = subsets_recount(members, n)
        assert sum(subset_gcd_histogram(X)) == total_plain
        assert list(subset_gcd_histogram(X)) == by_k_plain
        assert list(subset_gcd_histogram(X, n)) == by_k_n
        assert brute_f(X) == total_plain
        assert brute_phi(X, n) == total_n
        for k in range(1, X.size + 2):
            assert brute_f_k(X, k) == (by_k_plain[k] if k <= X.size else 0)
            assert brute_phi_k(X, n, k) == (by_k_n[k] if k <= X.size else 0)


def test_subset_budget():
    X = validate_union([interval(1, 23)])
    with pytest.raises(BudgetExceededError):
        brute_f(X)
    assert brute_f(X, OracleBudget(max_set_size=23)) > 0
    with pytest.raises(BudgetExceededError):
        subset_gcd_histogram(X, 0, OracleBudget(max_set_size=10))


def test_brute_tuple_examples():
    assert brute_tuples(3, 2) == 7
    assert brute_tuples(2, 2, None, "nondecreasing") == 2
    assert brute_tuples(4, 2, 6, "strict") == 5


def test_brute_tuples_match_itertools():
    def recount(n, k, m, walk):
        total = 0
        for entry in walk:
            g = 0 if m is None else m
            for v in entry:
                g = gcd(g, v)
            total += g == 1
        return total

    rng = random.Random(777)
    for _ in range(40):
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        m = rng.choice([None, 1, 2, 6, 30])
        values = range(1, n + 1)
        assert brute_tuples(n, k, m, "ordered") == recount(
            n, k, m, product(values, repeat=k)
        )
        assert brute_tuples(n, k, m, "nondecreasing") == recount(
            n, k, m, combinations_with_replacement(values, k)
        )
        assert brute_tuples(n, k, m, "strict") == recount(
            n, k, m, combinations(values, k)
        )


def test_tuple_budget():
    with pytest.raises(BudgetExceededError):
        brute_tuples(100, 4)  # 10^8 ordered tuples
    assert brute_tuples(100, 2) > 0
    with pytest.raises(BudgetExceededError):
        brute_tuples(5, 2, None, "ordered", OracleBudget(max_tuple_space=24))


def test_tuple_domain():
    with pytest.raises(DomainError):
        brute_tuples(0, 2)
    with pytest.raises(DomainError):
        brute_tuples(3, 0)
    with pytest.raises(DomainError):
        brute_tuples(3, 2, 0)
    with pytest.raises(DomainError):
        brute_tuples(3, 2, None, "sideways")


def test_strict_with_k_beyond_n():
    assert brute_tuples(3, 5, None, "strict") == 0


def test_big_fold_falls_back_to_exact_path():
    # a modulus beyond int64 must not be truncated; only primes <= 6 can
    # matter for subsets of [1, 6], so the huge primorial acts like 30
    X = parse_set_spec("1..6")
    P = primorial_up_to(200)
    assert P >= 2**63
    assert brute_phi(X, P) == brute_phi(X, 30)
    assert [brute_phi_k(X, P, k) for k in (1, 2, 3)] == [
        brute_phi_k(X, 30, k) for k in (1, 2, 3)
    ]
    assert brute_tuples(4, 2, P, "ordered") == brute_tuples(4, 2, 30, "ordered")


def test_oracle_is_deterministic():
    X = parse_set_spec("2..9 + ap(11,3,4)")
    assert brute_f(X) == brute_f(X)
    assert brute_tuples(7, 3, 6) == brute_tuples(7, 3, 6)


def test_kernels_agree_with_definitions():
    # each kernel against a recount from its definition: mu(d) from the
    # factorization, subsets and tuples from itertools walks
    assert list(_kernels.moebius_values(300)) == [0] + [
        moebius(d) for d in range(1, 301)
    ]
    elements = np.array([4, 6, 9, 10, 15, 25, 49], dtype=np.int64)
    for fold in (0, 1, 6, 30):
        _, by_k = subsets_recount(elements.tolist(), fold or None)
        assert list(_kernels.subset_gcd_counts(elements, fold)) == by_k
    walks = {
        _kernels.ORDERED: lambda values: product(values, repeat=3),
        _kernels.NONDECREASING: lambda values: combinations_with_replacement(values, 3),
        _kernels.STRICT: lambda values: combinations(values, 3),
    }
    for regime, walk in walks.items():
        for fold in (0, 6):
            expected = sum(
                reduce(gcd, entry, fold) == 1 for entry in walk(range(1, 6))
            )
            assert _kernels.tuple_gcd_count(5, 3, fold, regime) == expected
