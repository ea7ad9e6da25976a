"""The element divisor source against the sieve and modulus walks.

subset_sum factors the elements of small sets instead of sieving to
max X.  Both sources are called directly here on the same inputs: the
walk from divisor_terms is the reference wherever it is affordable,
and the oracle wherever the set is small enough to enumerate.
"""

import json
import random
from collections import Counter

import pytest

from relprime import (
    Progression,
    OverlapError,
    binomial,
    brute_f,
    brute_f_k,
    brute_phi,
    brute_phi_k,
    cli,
    counting,
    f,
    f_k,
    numtheory,
    parse_set_spec,
    phi,
    power_of_two_minus_one,
    primorial_up_to,
    validate_union,
)
from relprime.counting import divisor_terms, element_divisor_terms, mobius_sum
from relprime.setmodel import union_multiples
from conftest import random_union

SMALL_PRIMORIAL = primorial_up_to(13)  # 30030
BIG_PRIMORIAL = primorial_up_to(50)  # about 6.1 * 10^17
MODULI = (None, 1, SMALL_PRIMORIAL, BIG_PRIMORIAL)

# the walk sieves to max X unless there is a modulus small enough to factor
REFERENCE_SIEVE_LIMIT = 2 * 10**6
ORACLE_SIZE_LIMIT = 22

PATHOLOGICAL = ("10000000..10000002", "1000000000000..1000000000002")


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


@pytest.mark.parametrize("modulus", MODULI, ids=("none", "one", "small", "big"))
def test_element_source_agrees_with_walk_and_oracle(modulus):
    for X in agreement_sets():
        terms = element_divisor_terms(X, modulus)
        walk = None
        sieves = modulus is None or modulus > numtheory._TRIAL_FACTOR_LIMIT
        if not sieves or X.max_element <= REFERENCE_SIEVE_LIMIT:
            walk = [
                (d, mu, union_multiples(X, d))
                for d, mu in divisor_terms(modulus, X.max_element)
            ]
            # the element source keeps exactly the walk's terms with |X_d| > 0
            assert terms == [(d, mu) for d, mu, e in walk if e]
            # the walk's sum, grouped by |X_d| so every weight costs one pass
            mu_by_e = Counter()
            for _, mu, e in walk:
                mu_by_e[e] += mu
        weights = [(None, power_of_two_minus_one)]
        weights += [(k, lambda e, k=k: binomial(e, k)) for k in range(1, X.size + 2)]
        for k, weight in weights:
            total = mobius_total(terms, X, weight)
            if walk is not None:
                assert total == sum(c * weight(e) for e, c in mu_by_e.items()), (str(X), modulus, k)
            if X.size <= ORACLE_SIZE_LIMIT:
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


def test_cli_verifies_a_set_with_huge_elements(capsys):
    code = cli.main(["verify", "f", "--set", PATHOLOGICAL[1]])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["verified"] is True
    assert record["result"] == "3"
