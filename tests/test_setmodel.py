"""Progressions, unions, the divisibility kernel, and the set grammar."""

import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relprime import (
    BudgetExceededError,
    DomainError,
    OverlapError,
    Progression,
    SetSpecError,
    count_ap_multiples,
    enumerate_elements,
    interval,
    parse_set_spec,
    union_multiples,
    validate_union,
)
from relprime.setmodel import ENUMERATION_CAP
from conftest import coprime_floor_eps_count, floor_eps_count, random_union, scan_multiples

progressions = st.builds(
    Progression,
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=60),
)


def test_progression_basics():
    p = Progression(2, 4, 3)
    assert p.max_element == 10
    assert list(p.elements()) == [2, 6, 10]
    assert str(p) == "ap(2,4,3)"
    assert str(Progression(1, 1, 4)) == "1..4"


def test_progression_domain():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(DomainError):
            Progression(*bad)


def test_interval_helper():
    assert interval(3, 7) == Progression(3, 1, 5)
    assert interval(4, 4).length == 1
    with pytest.raises(DomainError):
        interval(5, 3)
    with pytest.raises(DomainError):
        interval(0, 3)


def test_count_ap_multiples_examples():
    assert count_ap_multiples(Progression(2, 4, 6), 6) == 2  # 6 and 18
    assert count_ap_multiples(Progression(3, 4, 6), 6) == 0  # gcd(6,4)=2 does not divide 3
    p = Progression(7, 5, 11)
    assert count_ap_multiples(p, 1) == p.length
    for n, d in [(10, 3), (100, 7), (9, 9)]:
        assert count_ap_multiples(Progression(1, 1, n), d) == n // d


def test_count_ap_multiples_rejects_zero_divisor():
    with pytest.raises(DomainError):
        count_ap_multiples(Progression(1, 1, 5), 0)


@given(progressions, st.integers(min_value=1, max_value=100))
def test_count_ap_multiples_matches_scan(p, d):
    assert count_ap_multiples(p, d) == scan_multiples(p, d)


@given(progressions, st.integers(min_value=1, max_value=100))
def test_count_ap_multiples_matches_floor_eps_form(p, d):
    assert count_ap_multiples(p, d) == floor_eps_count(p, d)


@given(progressions, st.integers(min_value=1, max_value=100))
def test_coprime_specialization(p, d):
    from math import gcd

    if gcd(p.first, p.step) == 1:
        assert count_ap_multiples(p, d) == coprime_floor_eps_count(p, d)


@given(progressions)
def test_no_multiples_beyond_max(p):
    assert count_ap_multiples(p, p.max_element + 1) == 0
    assert count_ap_multiples(p, p.max_element) in (0, 1)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=50),
)
def test_interval_equals_step_one_progression(lo, extent, d):
    hi = lo + extent
    p = Progression(lo, 1, extent + 1)
    assert hi // d - (lo - 1) // d == count_ap_multiples(p, d)


def test_union_multiples_examples():
    X = validate_union([interval(1, 2), interval(5, 6)])
    assert union_multiples(X, 2) == 2
    assert union_multiples(X, 3) == 1
    assert union_multiples(X, 1) == X.size == 4


@given(st.integers(min_value=1, max_value=60))
def test_union_multiples_matches_enumeration(d):
    X = validate_union([interval(1, 6), Progression(9, 3, 5), interval(30, 33)])
    members = enumerate_elements(X)
    assert union_multiples(X, d) == sum(1 for x in members if x % d == 0)


def test_validate_union_accepts_disjoint():
    X = validate_union([interval(5, 6), interval(1, 2)])
    assert [p.first for p in X.parts] == [1, 5]
    assert X.max_element == 6
    # odds and evens interleave without touching
    validate_union([Progression(1, 2, 5), Progression(2, 2, 5)])


def test_validate_union_rejects_overlap():
    with pytest.raises(OverlapError) as info:
        validate_union([interval(1, 5), interval(3, 4)])
    err = info.value
    assert err.witness == 3
    assert err.first == Progression(1, 1, 5)
    assert err.second == Progression(3, 1, 2)
    assert "3" in str(err)


def test_validate_union_crt_witness():
    # {2,6,10,14,18,22} and {4,10,16,22,28} first meet at 10
    with pytest.raises(OverlapError) as info:
        validate_union([Progression(2, 4, 6), Progression(4, 6, 5)])
    assert info.value.witness == 10


def test_validate_union_rejects_duplicates_and_empty():
    with pytest.raises(OverlapError):
        validate_union([interval(1, 3), interval(1, 3)])
    with pytest.raises(DomainError):
        validate_union([])


@given(st.lists(progressions, min_size=2, max_size=3))
def test_validate_union_agrees_with_element_sets(parts):
    sets = [set(p.elements()) for p in parts]
    disjoint = sum(len(s) for s in sets) == len(set().union(*sets))
    try:
        validate_union(parts)
        assert disjoint
    except OverlapError as err:
        assert not disjoint
        assert err.witness in set(err.first.elements()) & set(err.second.elements())


def test_enumerate_elements():
    assert enumerate_elements(validate_union([Progression(2, 4, 3)])) == [2, 6, 10]
    X = validate_union([interval(1, 3), interval(7, 8)])
    assert enumerate_elements(X) == [1, 2, 3, 7, 8]
    assert enumerate_elements(validate_union([Progression(5, 1, 1)])) == [5]


def test_enumerate_elements_cap():
    assert ENUMERATION_CAP == 10**6
    assert len(enumerate_elements(parse_set_spec("1..1000000"))) == ENUMERATION_CAP


def test_enumerate_elements_refuses_before_building(monkeypatch):
    # one element past the cap is refused before any element is built
    X = parse_set_spec("1..1000001")
    monkeypatch.setattr(Progression, "elements", lambda self: pytest.fail("built"))
    with pytest.raises(BudgetExceededError, match="1000001 elements"):
        enumerate_elements(X)


def test_parse_set_spec_grammar():
    X = parse_set_spec("1..4")
    assert X.parts == (Progression(1, 1, 4),)
    X = parse_set_spec("  1..4+ ap( 7, 3 ,5 ) ")
    assert X.parts == (Progression(1, 1, 4), Progression(7, 3, 5))
    assert parse_set_spec("ap(2,4,3)").parts == (Progression(2, 4, 3),)
    assert str(parse_set_spec("5..6 + 1..2")) == "1..2 + 5..6"


def test_parse_set_spec_errors():
    for bad in ["", "  ", "1..", "..4", "1..4 +", "-1..4", "1..4 ++ 6..7",
                "ap(1,2)", "ap(1,2,3,4)", "interval(1,4)", "1.. 4x"]:
        with pytest.raises(SetSpecError):
            parse_set_spec(bad)
    with pytest.raises(SetSpecError):
        parse_set_spec("0..3")  # grammar accepts it, the domain does not
    with pytest.raises(SetSpecError):
        parse_set_spec("5..3")
    with pytest.raises(OverlapError):
        parse_set_spec("1..5 + 3..4")


def subsets_by_gcd(elements):
    """N[g], the nonempty subsets whose gcd is g, by a DP over the
    elements: each x sends every gcd g so far to gcd(g, x), and starts
    the subset {x}."""
    N = {}
    for x in elements:
        for g, count in list(N.items()):
            N[gcd(g, x)] = N.get(gcd(g, x), 0) + count
        N[x] = N.get(x, 0) + 1
    return N


def test_subsets_by_gcd_count_the_multiples_of_every_d():
    # the subsets of X_d are those whose gcd d divides, so
    # sum_{d | g} N(g) = 2^|X_d| - 1: the kernel against a gcd DP, with
    # no Möbius sum in between
    rng = random.Random(91)
    for _ in range(60):
        X = random_union(rng, size_cap=16)
        N = subsets_by_gcd(enumerate_elements(X))
        assert sum(N.values()) == 2**X.size - 1
        for d in range(1, X.max_element + 2):
            assert sum(c for g, c in N.items() if g % d == 0) == 2 ** union_multiples(X, d) - 1
