"""The divisor sources against their definitions and each other.

divisor_sum, the one walk behind every counter, is checked against the
sum built from single Möbius values on both of its streams.  subset_sum
takes small sets from the divisors their elements share instead of
sieving to max X.  That source is called directly here on the same
inputs as its references: conftest's element_divisor_terms, the former
source that factors every element whole; the per-term walk from
divisor_terms below wherever it is affordable; and the oracle wherever
the set is small enough to enumerate.  The modulus source is checked
against the definition of its terms, and the grouped sieve walk against
the per-term sum it replaces.  The source paper's reductions of Phi and
Phi_k to f and f_k on A + {n} tie the sources to each other at sizes
no oracle reaches.
"""

import json
import random
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import combinations, islice
from math import gcd, isqrt, prod
from operator import floordiv
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relprime import (
    BudgetExceededError,
    Progression,
    OverlapError,
    brute_f,
    brute_f_k,
    brute_phi,
    brute_phi_k,
    cli,
    counting,
    f,
    f_k,
    g_count,
    h_count,
    interval,
    numtheory,
    parse_set_spec,
    phi,
    phi_k,
    subset_gcd_histogram,
    validate_union,
)
from relprime.counting import (
    binomial,
    divisor_sum,
    mobius_sum,
    power_of_two_minus_one,
    shared_divisor_sum,
    shared_divisor_terms,
    subset_histogram,
    subset_sum,
    tuple_sum,
)
from relprime.numtheory import squarefree_divisor_terms
from relprime.setmodel import enumerate_elements, union_multiples
from conftest import (
    element_divisor_terms,
    moebius,
    primes_up_to,
    primorial_up_to,
    random_union,
    whole_array_histogram,
)

SMALL_PRIMORIAL = primorial_up_to(13)  # 30030
BIG_PRIMORIAL = primorial_up_to(50)  # about 6.1 * 10^17
HUGE_MODULUS = 2**64 + 1  # 274177 * 67280421310721
MODULI = (None, 1, SMALL_PRIMORIAL, BIG_PRIMORIAL)

# with no modulus the walk sieves to max X
REFERENCE_SIEVE_LIMIT = 2 * 10**6
ORACLE_SIZE_LIMIT = 22

PATHOLOGICAL = ("10000000..10000002", "1000000000000..1000000000002")


def divisor_terms(modulus, bound):
    """The (d, mu(d)) pairs divisor_sum walks, one by one: every squarefree
    d <= bound off the sieve with no modulus, else the squarefree divisors
    d <= bound of the modulus."""
    if modulus is None:
        return [(d, mu) for d, mu in enumerate(numtheory.moebius_sieve(bound).tolist()) if mu]
    return squarefree_divisor_terms(modulus, bound)


def mobius_total(terms, X, weight):
    return mobius_sum((mu, weight(union_multiples(X, d))) for d, mu in terms)


def sparse_union(rng):
    """One to three short progressions whose first terms lie in
    [10^6, 10^12], drawn log-uniformly; retries on overlap."""
    while True:
        parts = [
            Progression(
                int(10 ** rng.uniform(6, 12)),
                rng.randint(1, 1000),
                rng.randint(1, 4),
            )
            for _ in range(rng.randint(1, 3))
        ]
        try:
            return validate_union(parts)
        except OverlapError:
            continue


def agreement_sets():
    rng = random.Random(6151)
    sets = [random_union(rng, size_cap=12) for _ in range(10)]
    sets.append(validate_union([Progression(rng.randint(1, 50), rng.randint(1, 6), 30)]))
    sets.append(validate_union([Progression(rng.randint(10**6, 10**6 + 10**5), 6, 5)]))
    sets += [sparse_union(rng) for _ in range(8)]
    return sets


def oracle(X, modulus, k):
    if modulus is None:
        return brute_f(X) if k is None else brute_f_k(X, k)
    return brute_phi(X, modulus) if k is None else brute_phi_k(X, modulus, k)


def weights_for(X):
    """(k, weight): 2^e - 1 as k = None, then C(e, k) for k in 1..|X|+1."""
    weights = [(None, power_of_two_minus_one)]
    weights += [(k, lambda e, k=k: binomial(e, k)) for k in range(1, X.size + 2)]
    return weights


def units_by_definition(X, modulus):
    fold = 0 if modulus is None else modulus
    return sum(1 for x in enumerate_elements(X) if gcd(x, fold) == 1)


@pytest.mark.parametrize("modulus", MODULI, ids=("none", "one", "small", "big"))
def test_element_source_agrees_with_walk_and_oracle(modulus):
    for X in agreement_sets():
        units, terms = shared_divisor_terms(X, modulus)
        assert units == units_by_definition(X, modulus)
        reference = element_divisor_terms(X, modulus)
        # every shared term divides some element, so it is a reference term
        assert set(terms) <= set(reference)
        walk = None
        sieves = modulus is None
        if not sieves or X.max_element <= REFERENCE_SIEVE_LIMIT:
            walk = [
                (d, mu, union_multiples(X, d))
                for d, mu in divisor_terms(modulus, X.max_element)
            ]
            # the reference keeps exactly the walk's terms with |X_d| > 0
            assert reference == [(d, mu) for d, mu, e in walk if e]
            # the shared source keeps every walk term with |X_d| >= 2
            assert {(d, mu) for d, mu, e in walk if e > 1} <= set(terms)
            # the walk's sum, grouped by |X_d| so every weight costs one pass
            mu_by_e = Counter()
            for _, mu, e in walk:
                mu_by_e[e] += mu
        for k, weight in weights_for(X):
            total = shared_divisor_sum(X, modulus, weight)
            assert total == mobius_total(reference, X, weight), (str(X), modulus, k)
            if walk is not None:
                assert total == sum(c * weight(e) for e, c in mu_by_e.items()), (str(X), modulus, k)
            if X.size <= ORACLE_SIZE_LIMIT:
                assert total == oracle(X, modulus, k), (str(X), modulus, k)


def singleton(rng):
    return validate_union([Progression(rng.choice((1, rng.randint(2, 10**9))), 1, 1)])


def containing_one(rng):
    return validate_union([Progression(1, rng.randint(1, 12), rng.randint(2, 12))])


SHAPES = {
    "singleton": singleton,
    "containing one": containing_one,
    "sparse": sparse_union,
    "random": lambda rng: random_union(rng, size_cap=12),
}


@settings(max_examples=100)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    modulus=st.sampled_from(MODULI + (HUGE_MODULUS,)),
    rng=st.randoms(use_true_random=False),
)
def test_shared_source_sum_equals_reference_and_oracle(shape, modulus, rng):
    X = SHAPES[shape](rng)
    reference = element_divisor_terms(X, modulus)
    for k, weight in weights_for(X):
        total = shared_divisor_sum(X, modulus, weight)
        assert total == mobius_total(reference, X, weight), (str(X), modulus, k)
        assert total == oracle(X, modulus, k), (str(X), modulus, k)


def refuse_sieve(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    # counting holds its own reference to the sieve, so patch both
    for module in (numtheory, counting):
        monkeypatch.setattr(module, "moebius_sieve", refuse)


@pytest.mark.parametrize("spec", PATHOLOGICAL)
def test_sparse_sets_with_huge_elements_never_sieve(spec, monkeypatch):
    refuse_sieve(monkeypatch)
    X = parse_set_spec(spec)
    assert f(X) == brute_f(X) == 3
    for k in range(1, X.size + 2):
        assert f_k(X, k) == brute_f_k(X, k)
    for n in (1, SMALL_PRIMORIAL, BIG_PRIMORIAL):
        assert phi(X, n) == brute_phi(X, n)


def test_dense_sets_still_sieve(monkeypatch):
    limits = []
    sieve = counting.moebius_sieve

    def spy(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(counting, "moebius_sieve", spy)
    X = parse_set_spec("1..2000")
    total = f(X)
    assert limits == [2000]
    assert total == mobius_total(element_divisor_terms(X, None), X, power_of_two_minus_one)


SHARED_PRIME_SETS = (
    # every element past 2^64, with no prime shared between the two parts
    "ap(30000000000000000000,6,10) + ap(30000000000000000001,10,6)",
    # p, 2p, 3p for the prime p = 1000000000039, so every g_x is p itself
    "ap(1000000000039,1000000000039,3)",
    # the same shape for primes whose square roots trial division would
    # walk for about 1 s, 8 s and over a minute: each g_x is p, which the
    # primality test clears once trial division passes 2^16
    "ap(100000000000031,100000000000031,3)",
    "ap(10000000000000061,10000000000000061,3)",
    "ap(1000000000000000003,1000000000000000003,3)",
)


@pytest.mark.parametrize("spec", SHARED_PRIME_SETS)
def test_sets_of_huge_elements_count_fast(spec):
    X = parse_set_spec(spec)
    histograms = {n: subset_gcd_histogram(X, n) for n in (0, 6, SMALL_PRIMORIAL, HUGE_MODULUS)}
    ks = range(1, X.size + 2)
    start = perf_counter()
    counts = {0: (f(X), [f_k(X, k) for k in ks])}
    for n in (6, SMALL_PRIMORIAL, HUGE_MODULUS):
        counts[n] = (phi(X, n), [phi_k(X, n, k) for k in ks])
    elapsed = perf_counter() - start
    for n, (total, by_k) in counts.items():
        hist = histograms[n]
        assert total == sum(hist), (spec, n)
        assert by_k == [hist[k] if k < len(hist) else 0 for k in ks], (spec, n)
    assert elapsed < 1.0


def test_cli_verifies_a_set_with_huge_elements(capsys):
    code = cli.main(["verify", "f", "--set", PATHOLOGICAL[1]])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["verified"] is True
    assert record["result"] == "3"


def one_element_parts(values):
    return " + ".join(f"{v}..{v}" for v in values)


def refuse_building(monkeypatch):
    monkeypatch.setattr(counting, "squarefree_products", lambda *args: pytest.fail("built"))


def test_shared_divisors_past_the_limit_are_refused_before_building(monkeypatch, capsys):
    # x_i = P / p_i over the 22 primes up to 79: each g_x is x_i itself,
    # with 21 primes, so the terms would number 22 * 2^21
    primes = primes_up_to(79)
    P = prod(primes)
    spec = one_element_parts(P // p for p in primes)
    X = parse_set_spec(spec)
    refuse_building(monkeypatch)
    refusal = "22 elements, each built once and counted over 22 parts, pass the limit of 2097152"
    for count in (lambda: f(X), lambda: f_k(X, 3), lambda: phi(X, P), lambda: phi_k(X, P, 2)):
        with pytest.raises(BudgetExceededError, match=refusal):
            count()
    start = perf_counter()
    assert cli.main(["count", "f", "--set", spec]) == 4
    assert perf_counter() - start < 1.0
    assert refusal in capsys.readouterr().err


def test_few_shared_divisors_over_many_parts_are_refused(monkeypatch, capsys):
    # 200 products of 12 of the first 30 primes, as one-element parts:
    # 200 * 2^12 terms, each counted over 200 parts, a walk of minutes
    values = [prod(c) for c in islice(combinations(primes_up_to(113), 12), 200)]
    spec = one_element_parts(values)
    refuse_building(monkeypatch)
    with pytest.raises(BudgetExceededError, match="the 819200 divisors shared"):
        f(parse_set_spec(spec))
    start = perf_counter()
    assert cli.main(["count", "f", "--set", spec]) == 4
    assert perf_counter() - start < 1.0
    assert "counted over 200 parts" in capsys.readouterr().err


def test_shared_divisor_limit_counts_every_g_x_and_part(monkeypatch):
    # 6 elements x_i = 30030 / p_i, each with 5 primes: 6 * 2^5 terms,
    # each built once and counted over 6 parts
    X = parse_set_spec(one_element_parts(30030 // p for p in (2, 3, 5, 7, 11, 13)))
    monkeypatch.setattr(counting, "_MAX_SHARED_WORK", 6 * 2**5 * 7)
    assert f(X) == brute_f(X)
    monkeypatch.setattr(counting, "_MAX_SHARED_WORK", 6 * 2**5 * 7 - 1)
    with pytest.raises(BudgetExceededError):
        f(X)


def squarefree_terms_by_definition(n, bound):
    """(d, mu(d)) over d <= min(n, bound) with d | n and mu(d) != 0."""
    return [
        (d, moebius(d))
        for d in range(1, min(n, bound) + 1)
        if n % d == 0 and moebius(d) != 0
    ]


def test_modulus_terms_match_definition_without_sieving(monkeypatch):
    refuse_sieve(monkeypatch)
    big_prime = 1000000000039
    primorial_43 = primorial_up_to(43)  # about 1.3 * 10^16
    primorial_200 = primorial_up_to(200)
    smooth = 2**45 * 3**20
    assert min(primorial_43, primorial_200, smooth, big_prime) > 10**12
    cases = [
        *[(primorial_43, bound) for bound in (1, 2, 30, 42, 43, 44, 5000)],
        *[(primorial_200, bound) for bound in (30, 199, 200, 3000)],
        *[(smooth, bound) for bound in (1, 2, 5, 6, 10**4)],
        (big_prime, 10**4),
        (30030 * 1000003, 10**4),
        (30030 * 1000003, 30030),
        (720, 720),
        (720, 10**6),
        (97, 97),
        (1, 1),
        (1, 10),
    ]
    for n, bound in cases:
        assert squarefree_divisor_terms(n, bound) == squarefree_terms_by_definition(n, bound), (n, bound)
    # bounds at or past moduli too large to scan up to
    assert squarefree_divisor_terms(smooth, smooth) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert squarefree_divisor_terms(big_prime, big_prime) == [(1, 1), (big_prime, -1)]
    assert squarefree_divisor_terms(big_prime, 10 * big_prime) == [(1, 1), (big_prime, -1)]
    assert squarefree_divisor_terms(30030 * 1000003, 10**9) == squarefree_terms_by_definition(
        30030, 30030
    ) + [(d * 1000003, -mu) for d, mu in squarefree_terms_by_definition(30030, 999)]
    assert squarefree_divisor_terms(primorial_43, 0) == []


def direct_subset_sum(X, weight):
    """The per-term sieve walk that subset_sum groups by |X_d|."""
    terms = divisor_terms(None, X.max_element)
    return mobius_sum((mu, weight(union_multiples(X, d))) for d, mu in terms)


def direct_tuple_sum(n, weight):
    """The per-term sieve walk that tuple_sum groups by floor(n/d)."""
    return mobius_sum((mu, weight(n // d)) for d, mu in divisor_terms(None, n))


def walked_sets():
    """Random unions dense enough that subset_sum takes the sieve walk."""
    rng = random.Random(8861)
    sets = []
    while len(sets) < 20:
        X = random_union(rng, size_cap=60, max_first=12, max_step=3)
        if X.size * isqrt(X.max_element) >= X.max_element:
            sets.append(X)
    return sets


def test_grouped_walk_equals_direct_sum_on_random_unions():
    for X in walked_sets():
        assert f(X) == direct_subset_sum(X, power_of_two_minus_one), str(X)
        for k in range(1, X.size + 2):
            assert f_k(X, k) == direct_subset_sum(X, lambda e: binomial(e, k)), (str(X), k)


def test_cached_histogram_counts_equal_direct_sum_cold_and_warm():
    for X in walked_sets():
        counters = [f] + [partial(f_k, k=k) for k in range(1, X.size + 2)]
        expected = [direct_subset_sum(X, power_of_two_minus_one)]
        expected += [direct_subset_sum(X, lambda e, k=k: binomial(e, k)) for k in range(1, X.size + 2)]
        cold = []
        for count in counters:
            subset_histogram.cache_clear()
            cold.append(count(X))
        hits = subset_histogram.cache_info().hits
        warm = [count(X) for count in counters]
        assert subset_histogram.cache_info().hits == hits + len(counters)
        assert cold == warm == expected, str(X)


def test_a_second_count_on_a_reparsed_set_walks_nothing(monkeypatch):
    kernel_calls = []
    sieve_calls = []
    kernel, sieve = counting.union_multiples, counting.moebius_sieve

    def kernel_spy(X, d):
        kernel_calls.append(d)
        return kernel(X, d)

    def sieve_spy(limit):
        sieve_calls.append(limit)
        return sieve(limit)

    monkeypatch.setattr(counting, "union_multiples", kernel_spy)
    monkeypatch.setattr(counting, "moebius_sieve", sieve_spy)
    first = parse_set_spec("1..2000 + ap(2001,7,300)")
    again = parse_set_spec("ap(2001,7,300) + 1..2000")
    assert again == first
    total = f(first)
    assert kernel_calls and sieve_calls == [first.max_element]
    kernel_calls.clear()
    sieve_calls.clear()
    assert f_k(again, 3) == direct_subset_sum(first, lambda e: binomial(e, 3))
    assert f(again) == total
    assert kernel_calls == sieve_calls == []


def test_histogram_cache_holds_eight_sets_as_tuples():
    sets = walked_sets()[:10]
    for X in sets:
        f(X)
    info = subset_histogram.cache_info()
    assert info.maxsize == 8
    assert info.currsize == 8
    for X in sets[-8:]:
        pairs = subset_histogram(X)
        assert type(pairs) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
        assert all(type(c) is int and c and type(e) is int for c, e in pairs)
    assert subset_histogram.cache_info().misses == info.misses
    # the walk meets d = 1, and so |X|, first
    assert subset_histogram(parse_set_spec("1..2000"))[0] == (1, 2000)


def test_threads_share_the_histogram_cache():
    # more sets than the cache holds and more threads than cores, with
    # frequent switches, so hits, misses and evictions interleave
    sets = walked_sets()[:12]
    expected = [direct_subset_sum(X, power_of_two_minus_one) for X in sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(f, X) for _ in range(4) for X in sets]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 4
    assert subset_histogram.cache_info().currsize == 8


def test_grouped_walk_equals_direct_sum_on_a_wide_interval():
    X = parse_set_spec("1..30000")
    total = f(X)
    assert total.bit_length() == 30000
    assert total == direct_subset_sum(X, power_of_two_minus_one)
    for k in (1, 2, 5, 100, 29999, 30000, 30001):
        assert f_k(X, k) == direct_subset_sum(X, lambda e: binomial(e, k)), k


def test_grouped_walk_equals_direct_sum_for_tuples():
    for n in (1, 2, 3, 10, 97, 1000, 12345, 20000):
        for k in range(1, 5):
            assert g_count(n, k) == direct_tuple_sum(n, lambda q: q**k), (n, k)
            assert h_count(n, k) == direct_tuple_sum(n, lambda q: binomial(q + k - 1, k)), (n, k)


def test_sieve_stream_hands_only_python_ints_to_the_walk(monkeypatch):
    # the sieve is an int8 array; a numpy scalar reaching the kernel or
    # the grouping would wrap around in the kernel's and weight's arithmetic
    streamed = []
    group = counting.histogram

    def spy(terms, kernel):
        terms = list(terms)
        streamed.extend(terms)
        return group(terms, kernel)

    monkeypatch.setattr(counting, "histogram", spy)
    kernel_args = []

    def kernel(d):
        kernel_args.append(d)
        return 3000 // d

    total = divisor_sum(None, 3000, kernel, lambda q: q**5)
    assert total == sum_by_definition(None, 3000, kernel, lambda q: q**5)
    assert streamed == [(d, moebius(d)) for d in range(1, 3001) if moebius(d)]
    assert all(type(d) is int and type(mu) is int for d, mu in streamed)
    assert kernel_args[: len(streamed)] == [d for d, _ in streamed]
    assert all(type(d) is int for d in kernel_args)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=20000), st.integers(min_value=1, max_value=64))
@example(10**6, counting._SIEVE_CHUNK)
def test_chunked_sieve_stream_equals_the_whole_array_stream(bound, chunk):
    # a small chunk crosses chunk edges; the 10^6 example takes the real
    # chunk over four of its edges
    kernels = (partial(floordiv, bound),
               partial(union_multiples, validate_union([Progression(1, 3, bound)])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_SIEVE_CHUNK", chunk)
        for kernel in kernels:
            assert counting.sieve_histogram(bound, kernel) == whole_array_histogram(bound, kernel)


def test_sieve_stream_memory_stays_within_a_chunk():
    # the whole stream to 3 * 10^6 as Python ints would take over 100 MB;
    # the walk holds the sieve, about 3 bytes per entry while it is built,
    # and one chunk of ints
    numtheory.moebius_sieve.cache_clear()
    tracemalloc.start()
    try:
        pairs = counting.sieve_histogram(3 * 10**6, partial(floordiv, 3 * 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(c * e for c, e in pairs) == 1  # sum of mu(d) * floor(n/d) over d <= n
    assert peak < 24 * 2**20


def sum_by_definition(modulus, bound, kernel, weight):
    """Sum of mu(d) * weight(kernel(d)) over d <= bound that divide the
    modulus (every d with no modulus), from single Möbius values."""
    return sum(
        moebius(d) * weight(kernel(d))
        for d in range(1, bound + 1)
        if modulus is None or modulus % d == 0
    )


KERNELS = {
    "floor": lambda bound: partial(floordiv, bound),
    # not monotone in d: each value comes back after a gap
    "residue": lambda bound: lambda d: (7 * d) % 5,
}

TUPLE_WEIGHTS = {
    "2^q - 1": lambda k: power_of_two_minus_one,
    "q^k": lambda k: lambda q: q**k,
    "C(q+k-1,k)": lambda k: lambda q: binomial(q + k - 1, k),
    "C(q,k)": lambda k: lambda q: binomial(q, k),
}


@settings(max_examples=150)
@given(
    modulus=st.sampled_from(MODULI + (HUGE_MODULUS,)),
    bound=st.integers(1, 1500),
    kernel=st.sampled_from(sorted(KERNELS)),
    weight=st.sampled_from(sorted(TUPLE_WEIGHTS)),
    k=st.integers(1, 4),
)
# past 274177, the smaller prime of 2^64 + 1
@example(modulus=HUGE_MODULUS, bound=300000, kernel="floor", weight="C(q,k)", k=2)
@example(modulus=HUGE_MODULUS, bound=300000, kernel="residue", weight="q^k", k=3)
def test_divisor_sum_matches_its_definition(modulus, bound, kernel, weight, k):
    kernel, weight = KERNELS[kernel](bound), TUPLE_WEIGHTS[weight](k)
    expected = sum_by_definition(modulus, bound, kernel, weight)
    if expected < 0:
        # a negative sum is never a count, so the walk refuses it
        with pytest.raises(ArithmeticError):
            divisor_sum(modulus, bound, kernel, weight)
    else:
        assert divisor_sum(modulus, bound, kernel, weight) == expected


@settings(max_examples=100)
@given(
    modulus=st.sampled_from(MODULI + (HUGE_MODULUS,)),
    n=st.integers(1, 3000),
    weight=st.sampled_from(sorted(TUPLE_WEIGHTS)),
    k=st.integers(1, 4),
)
def test_tuple_sum_is_the_subset_sum_over_one_to_n(modulus, n, weight, k):
    weight = TUPLE_WEIGHTS[weight](k)
    one_to_n = validate_union([interval(1, n)])
    assert tuple_sum(n, modulus, weight) == subset_sum(one_to_n, modulus, weight)


AP_UNION_PARTS = st.lists(
    st.tuples(st.integers(1, 3000), st.integers(1, 40), st.integers(1, 40)),
    min_size=1,
    max_size=3,
)


def spy_on_divisor_sources(monkeypatch):
    """Count the calls that reach each divisor source: the sieve stream,
    the modulus stream and the shared-divisor source."""
    reached = Counter()

    def spy(name, source):
        def call(*args):
            reached[name] += 1
            return source(*args)
        return call

    for name, attr in (("sieve", "sieve_histogram"),
                       ("modulus", "squarefree_divisor_terms"),
                       ("shared", "shared_divisor_terms")):
        monkeypatch.setattr(counting, attr, spy(name, getattr(counting, attr)))
    return reached


def union_and_one_more(parts, n):
    """(A, A + n..n) for the AP union A of the parts, or None when the
    parts overlap or n is already in A."""
    try:
        A = validate_union([Progression(*part) for part in parts])
        return A, parse_set_spec(f"{A} + {n}..{n}")
    except OverlapError:
        return None


def test_phi_is_the_f_of_a_union_with_n_minus_f(monkeypatch):
    # a subset of A + {n} that holds n is {n} + B, relatively prime
    # exactly when gcd(B, n) = 1, so Phi(A, n) = f(A + {n}) - f(A)
    reached = spy_on_divisor_sources(monkeypatch)

    @settings(max_examples=150)
    @given(parts=AP_UNION_PARTS, n=st.integers(2, 5000))
    def reduction(parts, n):
        sets = union_and_one_more(parts, n)
        assume(sets is not None)
        A, with_n = sets
        assert phi(A, n) == f(with_n) - f(A)

    reduction()
    assert set(reached) == {"sieve", "modulus", "shared"}


def test_phi_k_is_the_f_k_of_a_union_with_n_minus_f_k(monkeypatch):
    # the same split by size: B has k elements when {n} + B has k + 1
    reached = spy_on_divisor_sources(monkeypatch)

    @settings(max_examples=150)
    @given(parts=AP_UNION_PARTS, n=st.integers(2, 5000), k=st.integers(1, 6))
    def reduction(parts, n, k):
        sets = union_and_one_more(parts, n)
        assume(sets is not None)
        A, with_n = sets
        assert phi_k(A, n, k) == f_k(with_n, k + 1) - f_k(A, k + 1)

    reduction()
    assert set(reached) == {"sieve", "modulus", "shared"}
