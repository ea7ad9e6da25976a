"""The brute-force oracle itself, recounted a second independent way."""

import random
import time
import tracemalloc
from collections import Counter
from math import comb, gcd, isqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    f,
    f_k,
    g_count,
    h_count,
    interval,
    l_count,
    parse_set_spec,
    phi,
    subset_gcd_histogram,
    t_count,
    validate_union,
)
from relprime import _kernels
from conftest import (
    blocked_subset_counts,
    moebius,
    per_class_tuple_count,
    primes_up_to,
    primorial_up_to,
    random_union,
    subsets_recount,
    table_fold_subset_counts,
    tuple_walk,
    tuples_recount,
)

import numpy as np

REGIMES = {
    _kernels.ORDERED: "ordered",
    _kernels.NONDECREASING: "nondecreasing",
    _kernels.STRICT: "strict",
}
FOLDS = [0, 1, 6, 30030]
HUGE_MODULI = [2**64 + 1, 3 * 2**70 + 35, 3 * 2**65]
# sieve limits at and around prime squares, where crossing off begins,
# and 101^2 near 10^4
SIEVE_LIMITS = [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50,
                120, 121, 122, 168, 169, 170, 300, 10201]
# sets whose elements pass 2^63
HUGE_SETS = [
    "10000000000000000000..10000000000000000015",
    "ap(30000000000000000000,6,10) + ap(30000000000000000001,10,6)",
]


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


def test_negative_fold_is_a_domain_error():
    with pytest.raises(DomainError, match="fold must be nonnegative, got -1"):
        subset_gcd_histogram(validate_union([interval(1, 4)]), -1)


def test_brute_tuple_examples():
    assert brute_tuples(3, 2) == 7
    assert brute_tuples(2, 2, None, "nondecreasing") == 2
    assert brute_tuples(4, 2, 6, "strict") == 5


def test_brute_tuples_match_itertools():
    rng = random.Random(777)
    for _ in range(40):
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        m = rng.choice([None, 1, 2, 6, 30])
        for ordering in ("ordered", "nondecreasing", "strict"):
            assert brute_tuples(n, k, m, ordering) == tuples_recount(
                n, k, m or 0, ordering
            )


def test_tuple_budget():
    with pytest.raises(BudgetExceededError):
        brute_tuples(100, 4)  # 10^8 ordered tuples
    assert brute_tuples(100, 2) > 0
    with pytest.raises(BudgetExceededError):
        brute_tuples(5, 2, None, "ordered", OracleBudget(max_tuple_space=24))


def walk_prefixes(n, k, ordering):
    """The distinct prefixes of every length 1..k of the itertools
    tuples, the tuples included; for n = 1 the walk stops at a fixed
    point after two."""
    # the tuples by their prefix of length k - 1
    shorter = Counter(entry[:-1] for entry in tuple_walk(n, k, ordering))
    prefixes = sum(shorter.values())
    for _ in range(k - 1):
        prefixes += len(shorter)
        shorter = {entry[:-1] for entry in shorter}
    return min(prefixes, 2) if n == 1 else prefixes


def test_tuple_budget_is_the_prefixes_the_walk_builds():
    for regime, ordering in REGIMES.items():
        for n in range(1, 9):
            for k in range(1, 8):
                size = walk_prefixes(n, k, ordering)
                exact = brute_tuples(n, k, None, ordering, OracleBudget(max_tuple_space=size))
                assert exact == tuples_recount(n, k, 0, ordering)
                if size:
                    with pytest.raises(BudgetExceededError):
                        brute_tuples(n, k, None, ordering, OracleBudget(max_tuple_space=size - 1))


def test_tuple_budget_refuses_huge_spaces_at_once():
    start = time.perf_counter()
    for args in ((2, 20000), (3, 10**8), (10**4000, 2), (2, 10**4000, None, "nondecreasing"),
                 (10**4000, 10**4000 - 2, None, "strict")):
        with pytest.raises(BudgetExceededError, match="^more than 10\\^4000 tuples"):
            brute_tuples(*args)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n, k, budget",
    # 3^8400 has 13314 bits, under 13620, though 8400 * bitlen(3) is not;
    # 4^6700 = 2^13400 and its prefixes fit 2^13401 - 1 exactly
    [(3, 8400, 10**4100), (4, 6700, 2**13401 - 1)],
    ids=("3^8400", "4^6700"),
)
def test_ordered_walk_size_settles_from_bit_lengths_only_past_the_cap(n, k, budget):
    # n^k >= 2^(k (bitlen n - 1)) is the one bound that refuses without
    # the power, so these walks, a few classes and k steps, must run
    assert brute_tuples(n, k, None, "ordered", OracleBudget(max_tuple_space=budget)) == g_count(n, k)


@pytest.mark.parametrize(
    "ordering, tuples, prefixes",
    [
        ("nondecreasing", comb(10**2001 + 1, 2), comb(10**2001 + 2, 2) - 1),
        ("strict", comb(10**2001, 2), comb(10**2001 + 1, 2) - 1),
    ],
    ids=("nondecreasing", "strict"),
)
def test_walk_size_edges_past_the_shown_counts(monkeypatch, ordering, tuples, prefixes):
    # budgets past 10^4000 are the cap itself, so the capped binomials
    # decide at their edges: the prefixes at the budget, and the tuples
    # choose the message
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(_kernels, "tuple_gcd_count", walk)
    with pytest.raises(AssertionError, match="the walk ran"):
        brute_tuples(10**2001, 2, None, ordering, OracleBudget(max_tuple_space=prefixes))
    big = "more than 10\\^4000"
    for budget, message in ((prefixes - 1, f"^{big} prefixes of {big} tuples to build"),
                            (tuples, f"^{big} prefixes of {big} tuples to build"),
                            (tuples - 1, f"^{big} tuples to enumerate")):
        with pytest.raises(BudgetExceededError, match=message):
            brute_tuples(10**2001, 2, None, ordering, OracleBudget(max_tuple_space=budget))


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
    # factorization, primes by trial division, subsets and tuples from
    # itertools walks
    top = SIEVE_LIMITS[-1]
    mu = [0] + [moebius(d) for d in range(1, top + 1)]
    prime = [d > 1 and all(d % q for q in range(2, isqrt(d) + 1))
             for d in range(top + 1)]
    for limit in SIEVE_LIMITS:
        assert list(_kernels.moebius_values(limit)) == mu[: limit + 1]
        assert primes_up_to(limit) == [d for d in range(limit + 1) if prime[d]]
    elements = np.array([4, 6, 9, 10, 15, 25, 49], dtype=np.int64)
    for fold in (0, 1, 6, 30):
        _, by_k = subsets_recount(elements.tolist(), fold or None)
        assert list(_kernels.subset_gcd_counts(elements, fold)) == by_k
    for regime, ordering in REGIMES.items():
        for fold in (0, 6):
            expected = tuples_recount(5, 3, fold, ordering)
            assert _kernels.tuple_gcd_count(5, 3, fold, regime) == expected


@pytest.fixture(params=[2, 3])
def small_blocks(request, monkeypatch):
    # subset tables and tuple windows of 2^2 and 2^3 entries, so the
    # subset pass walks classes and the tuple walk runs every window
    bits = request.param
    monkeypatch.setattr(_kernels, "_SUBSET_BLOCK_BITS", bits)
    monkeypatch.setattr(_kernels, "_TUPLE_BLOCK", 1 << bits)
    return bits


def test_subset_kernel_matches_recount_in_small_blocks(small_blocks):
    rng = random.Random(60 + small_blocks)
    for trial in range(30):
        step = rng.choice([1, 2, 6])  # all-even sets never hit gcd 1 early
        picks = rng.sample(range(1, 60), rng.randint(1, 11))
        members = sorted(step * v for v in picks)
        elements = members if trial % 2 else np.array(members, dtype=np.int64)
        for fold in FOLDS:
            _, by_k = subsets_recount(members, fold or None)
            assert list(_kernels.subset_gcd_counts(elements, fold)) == by_k
    # elements at and past 2^63, in the low table and in the classes
    for members in ([2**63 - 4 + 3 * v for v in range(9)],
                    [6 * v for v in range(1, 7)] + [2**64 + 6 * v for v in range(4)]):
        for fold in FOLDS + HUGE_MODULI:
            _, by_k = subsets_recount(members, fold or None)
            assert list(_kernels.subset_gcd_counts(members, fold)) == by_k


@settings(max_examples=150)
@given(
    picks=st.lists(
        st.tuples(st.integers(1, 60), st.sampled_from([1, 6, 2**63, 2**64 + 1])),
        max_size=15,
    ),
    fold=st.sampled_from(FOLDS + [2**64 + 1]),
    bits=st.sampled_from([0, 1, 2, 3, 4, 12]),
)
@example(picks=[(v, 1) for v in range(2, 17)], fold=0, bits=12)
@example(picks=[(v, 2**64 + 1) for v in range(1, 16)], fold=30030, bits=12)
def test_class_walk_matches_the_blocked_pass(picks, fold, bits):
    # the two former passes, one that took the gcd of every subset and one
    # that folded its high classes against a low gcd table, and an
    # itertools recount; products with 2^63 and 2^64 + 1 put elements
    # past int64 on either side of the split or on both.  bits 0 leaves
    # the low side empty, where the blocked pass needs blocks of 2^1
    elements = list(dict.fromkeys(a * b for a, b in picks))
    _, by_k = subsets_recount(elements, fold or None)
    with patch.object(_kernels, "_SUBSET_BLOCK_BITS", bits):
        counts = _kernels.subset_gcd_counts(elements, fold)
        assert counts == table_fold_subset_counts(elements, fold) == by_k
    assert all(type(c) is int for c in counts)
    with patch.object(_kernels, "_SUBSET_BLOCK_BITS", max(bits, 1)):
        assert blocked_subset_counts(elements, fold).tolist() == by_k


def test_oracle_reaches_sets_past_the_default_budget():
    # counts past 2^63, where the classes carry Python ints
    for spec in ("1..100", "ap(3,5,200)"):
        X = parse_set_spec(spec)
        raised = OracleBudget(max_set_size=X.size)
        assert brute_f(X, raised) == f(X) > 2**64
        assert brute_f_k(X, 5, raised) == f_k(X, 5)
        assert brute_phi(X, 30030, raised) == phi(X, 30030)


def test_subset_walk_refuses_past_its_class_ceiling(monkeypatch):
    # x_i = P / p_i gives every subset its own gcd, so 6 elements over a
    # table of 2^2 leave 2^4 classes
    primes = [2, 3, 5, 7, 11, 13]
    P = 30030
    X = validate_union([interval(P // p, P // p) for p in primes])
    monkeypatch.setattr(_kernels, "_SUBSET_BLOCK_BITS", 2)
    monkeypatch.setattr(_kernels, "_SUBSET_CLASSES", 16)
    assert brute_f(X) == 1
    monkeypatch.setattr(_kernels, "_SUBSET_CLASSES", 15)
    with pytest.raises(BudgetExceededError,
                       match="^the subset walk over 6 elements needs more than 15 "):
        brute_f(X)


def test_default_budget_stays_under_the_class_ceiling():
    # the walk holds at most one class per subset of the elements past
    # the table, so the default budget never meets the ceiling
    high = OracleBudget().max_set_size - _kernels._SUBSET_BLOCK_BITS
    assert 2**high <= _kernels._SUBSET_CLASSES


def test_tuple_kernel_matches_recount_in_small_blocks(small_blocks):
    rng = random.Random(70 + small_blocks)
    for _ in range(12):
        n = rng.randint(1, 9)
        k = rng.randint(1, 4)
        for regime, ordering in REGIMES.items():
            for fold in FOLDS + HUGE_MODULI:
                expected = tuples_recount(n, k, fold, ordering)
                assert _kernels.tuple_gcd_count(n, k, fold, regime) == expected
    # classes with more values left for the last position than a window
    for regime, ordering in REGIMES.items():
        for fold in (0, 6, 2**64 + 1):
            expected = tuples_recount(30, 2, fold, ordering)
            assert _kernels.tuple_gcd_count(30, 2, fold, regime) == expected
    # strict prefixes near k = n, most of which run out of larger values
    for n, k in ((8, 6), (9, 9), (10, 7), (30, 29), (6, 7)):
        for fold in FOLDS:
            expected = tuples_recount(n, k, fold, "strict")
            assert _kernels.tuple_gcd_count(n, k, fold, _kernels.STRICT) == expected


def test_oracle_with_moduli_beyond_int64():
    rng = random.Random(80)
    for _ in range(6):
        X = random_union(rng, size_cap=9)
        members = enumerate_elements(X)
        for m in HUGE_MODULI:
            total, by_k = subsets_recount(members, m)
            assert brute_phi(X, m) == total
            assert brute_phi_k(X, m, 2) == (by_k[2] if X.size >= 2 else 0)
    for m in HUGE_MODULI:
        for ordering in REGIMES.values():
            assert brute_tuples(7, 3, m, ordering) == tuples_recount(7, 3, m, ordering)
    for spec in HUGE_SETS:
        X = parse_set_spec(spec)
        members = enumerate_elements(X)
        assert members[-1] > 2**63
        for fold in (0, 6, 2**64 + 1):
            total, by_k = subsets_recount(members, fold or None)
            if fold:
                assert brute_phi(X, fold) == total
                assert [brute_phi_k(X, fold, k) for k in range(1, X.size + 1)] == by_k[1:]
            else:
                assert brute_f(X) == total
                assert [brute_f_k(X, k) for k in range(1, X.size + 1)] == by_k[1:]


def test_tuple_walk_stops_at_a_fixed_point():
    # the first three would take 10^6 steps without the fixed point; the
    # strict ones near k = n would carry classes that can never reach
    # length k if those with too few values left above them were kept
    started = time.perf_counter()
    assert brute_tuples(5, 10**6, 6, "strict") == 0
    assert brute_tuples(1, 10**6) == 1
    assert brute_tuples(1, 10**6, None, "nondecreasing") == 1
    assert brute_tuples(40, 40, None, "strict") == 1
    assert brute_tuples(30, 28, 6, "strict") == tuples_recount(30, 28, 6, "strict")
    assert time.perf_counter() - started < 1.0


def test_deep_walks_are_cheap():
    # one class per step, so each walk's time follows its depth, not the
    # prefixes the budget counts
    started = time.perf_counter()
    assert brute_tuples(200000, 200000, 6, "strict") == 1
    raised = OracleBudget(max_tuple_space=2 * 10**10)
    assert brute_tuples(3, 4000, 6, "nondecreasing", raised) == l_count(3, 4000, 6)
    raised = OracleBudget(max_tuple_space=4 * 10**7)
    assert brute_tuples(2, 8000, None, "nondecreasing", raised) == h_count(2, 8000)
    raised = OracleBudget(max_tuple_space=3 * 10**8)
    assert brute_tuples(20000, 19999, 6, "strict", raised) == t_count(20000, 19999, 6)
    assert time.perf_counter() - started < 4.0


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=9),
    k=st.integers(min_value=1, max_value=6),
    regime=st.sampled_from(sorted(REGIMES)),
    fold=st.sampled_from(FOLDS + HUGE_MODULI[:2]),
    window=st.sampled_from([None, 1, 2, 3]),
)
def test_class_walk_matches_recount(n, k, regime, fold, window):
    with patch.object(_kernels, "_TUPLE_BLOCK", window or _kernels._TUPLE_BLOCK):
        count = _kernels.tuple_gcd_count(n, k, fold, regime)
    assert count == tuples_recount(n, k, fold, REGIMES[regime])


def test_single_position_walks_value_windows():
    n = 3 * _kernels._TUPLE_BLOCK + 5
    for fold in (0, 6, 30030, 2**64 + 1):
        expected = sum(gcd(v, fold) == 1 for v in range(1, n + 1))
        for regime in REGIMES:
            assert _kernels.tuple_gcd_count(n, 1, fold, regime) == expected


@settings(max_examples=150)
@given(
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=4),
    regime=st.sampled_from(sorted(REGIMES)),
    fold=st.sampled_from([0, 1, 6, 30030, 2**64 + 1, 41 * 43, 37 * (10**9 + 7), 10**9 + 7]),
    block=st.integers(min_value=1, max_value=8),
)
@example(n=40, k=2, regime=_kernels.NONDECREASING, fold=0, block=7)
@example(n=40, k=3, regime=_kernels.ORDERED, fold=30030, block=5)
@example(n=40, k=1, regime=_kernels.STRICT, fold=2**64 + 1, block=3)
def test_last_position_by_gcd_matches_the_per_class_count(n, k, regime, fold, block):
    # windows of 1-8 values split a gcd's group between its classes and
    # inside a class's span; 41 * 43 has no prime up to 40, 37 * (10^9 + 7)
    # one, and the prime 10^9 + 7 none, so its trial division runs to n;
    # the tuples are recounted where they are few
    with patch.object(_kernels, "_TUPLE_BLOCK", block):
        count = _kernels.tuple_gcd_count(n, k, fold, regime)
        assert count == per_class_tuple_count(n, k, fold, regime)
    assert _kernels.tuple_gcd_count(n, k, fold, regime) == count
    if n**k <= 20000:
        assert count == tuples_recount(n, k, fold, REGIMES[regime])


def test_last_position_edge_gcds():
    for n in range(1, 16):
        for regime in REGIMES:
            # g = 2 zeroes every even value
            assert _kernels.tuple_gcd_count(n, 1, 2, regime) == (n + 1) // 2
            # a prime past n divides no value up to n: 13 zeroes none for
            # n < 13, 77 only the multiples of 7 (and of 11 from n = 11),
            # and 2^64 + 1 = 274177 * 67280421310721 none
            for fold in (13, 77, 2**64 + 1):
                expected = sum(gcd(v, fold) == 1 for v in range(1, n + 1))
                assert _kernels.tuple_gcd_count(n, 1, fold, regime) == expected
        for ordering in REGIMES.values():
            assert brute_tuples(n, 2, 2, ordering) == tuples_recount(n, 2, 2, ordering)
    # H: 1349 classes, one per gcd; T: about 1700 classes over at most 128 gcds
    assert brute_tuples(1349, 2, None, "nondecreasing") == h_count(1349, 2)
    assert brute_tuples(1708, 2, 510510, "strict") == t_count(1708, 2, 510510)


def test_strict_k_of_n_answers_at_once():
    # k = n leaves the one strict tuple 1..n, so the walk answers 1 instead
    # of taking 10^7 steps of one class each; k > n leaves none
    started = time.perf_counter()
    assert brute_tuples(10**7, 10**7, 6, "strict") == t_count(10**7, 10**7, 6) == 1
    assert time.perf_counter() - started < 1.0
    for n in range(1, 8):
        for k in (n, n + 1):
            for fold in FOLDS + HUGE_MODULI:
                expected = tuples_recount(n, k, fold, "strict")
                assert _kernels.tuple_gcd_count(n, k, fold, _kernels.STRICT) == expected


def test_no_coprime_window_passes_the_block(monkeypatch):
    widths = []

    class Window(bytearray):
        # records the length of every bytearray the walk builds
        def __init__(self, *args):
            super().__init__(*args)
            widths.append(len(self))

        def __mul__(self, times):
            widths.append(len(self) * times)
            return bytearray(self) * times

    cases = [(30, 2, 6, r) for r in REGIMES] + [(40, 1, 2**64 + 1, 0)]
    expected = [tuples_recount(n, k, fold, REGIMES[r]) for n, k, fold, r in cases]
    monkeypatch.setattr(_kernels, "bytearray", Window, raising=False)
    monkeypatch.setattr(_kernels, "_TUPLE_BLOCK", 8)
    assert [_kernels.tuple_gcd_count(*case) for case in cases] == expected
    assert widths and max(widths) <= 8
    monkeypatch.undo()
    # one window of 2^14 bytes at a time, where the whole range takes 1 MB
    tracemalloc.start()
    try:
        count = _kernels.tuple_gcd_count(10**6, 1, 30030, _kernels.STRICT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == t_count(10**6, 1, 30030)
    assert peak < 128 * 2**10


@pytest.mark.parametrize(
    "n, regime, formula",
    [(4000, _kernels.NONDECREASING, h_count), (3000, _kernels.ORDERED, g_count)],
    ids=["H(4000,2)", "G(3000,2)"],
)
def test_last_position_memory_stays_near_a_megabyte(n, regime, formula):
    # the classes' dict alone takes about 0.6 MB for H(4000, 2); the last
    # position adds a sorted list of its keys, one gcd's classes and one
    # window of at most _TUPLE_BLOCK bytes
    tracemalloc.start()
    try:
        count = _kernels.tuple_gcd_count(n, 2, 0, regime)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == formula(n, 2)
    assert peak < 2**20


@pytest.mark.parametrize(
    "count, expected",
    [
        (lambda: brute_f(parse_set_spec("1..26"), OracleBudget(26)),
         lambda: f(parse_set_spec("1..26"))),
        (lambda: _kernels.tuple_gcd_count(2, 23, 0, _kernels.ORDERED),
         lambda: 2**23 - 1),  # every tuple of 1s and 2s but the all-2 one
        (lambda: _kernels.tuple_gcd_count(3000, 2, 0, _kernels.ORDERED),
         lambda: g_count(3000, 2)),
    ],
    ids=["subsets_1..26", "tuples_2^23", "tuples_3000^2"],
)
def test_oracle_memory_stays_within_a_block(count, expected):
    # an unblocked subset pass allocates about 2 GiB for 1..26; the tuple
    # walk holds one window and its classes, whose number grows with n:
    # 3000 gcds after the first of two positions
    tracemalloc.start()
    try:
        value = count()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == expected()
    assert peak < 16 * 2**20
