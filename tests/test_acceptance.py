"""End-to-end acceptance checks.

Eight criteria, one test each.  Every test prints a PASS or FAIL line
through the capture bypass so a plain pytest run still shows the
per-criterion outcome, then asserts the property and its time budget.
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from math import isqrt

from relprime import (
    Progression,
    brute_tuples,
    count_ap_multiples,
    f,
    f_k,
    g_count,
    h_count,
    interval,
    l_count,
    nathanson_f,
    nathanson_phi,
    phi,
    phi_k,
    s_count,
    subset_gcd_histogram,
    t_count,
    validate_union,
)
from relprime.numtheory import squarefree_divisor_terms
from conftest import (
    coprime_floor_eps_count,
    floor_eps_count,
    primorial_up_to,
    radical,
    random_union,
    scan_multiples,
)


def report(capsys, number, ok, detail, elapsed, budget):
    line = (
        f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail} "
        f"({elapsed:.1f}s, budget {budget:.0f}s)"
    )
    with capsys.disabled():
        print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_subset_oracle_equivalence(capsys):
    rng = random.Random(101)
    started = time.perf_counter()
    ok = True
    for _ in range(500):
        X = random_union(rng, size_cap=18, max_first=40, max_step=12)
        n = rng.randint(1, 120)
        plain = subset_gcd_histogram(X)
        folded = subset_gcd_histogram(X, n)
        ok = ok and f(X) == sum(plain) and phi(X, n) == sum(folded)
        for k in range(1, X.size + 1):
            ok = ok and f_k(X, k) == plain[k] and phi_k(X, n, k) == folded[k]
        ok = ok and f_k(X, X.size + 1) == 0 and phi_k(X, n, X.size + 1) == 0
        if not ok:
            break
    elapsed = time.perf_counter() - started
    report(capsys, 1, ok, "500 random unions: phi/phi_k/f/f_k match the subset oracle", elapsed, 60)


def test_criterion_2_ap_multiple_kernel(capsys):
    rng = random.Random(202)
    started = time.perf_counter()
    ok = True
    from math import gcd

    for _ in range(10_000):
        p = Progression(rng.randint(1, 50), rng.randint(1, 30), rng.randint(1, 60))
        d = rng.randint(1, 100)
        counted = count_ap_multiples(p, d)
        ok = ok and counted == scan_multiples(p, d) == floor_eps_count(p, d)
        if gcd(p.first, p.step) == 1:
            ok = ok and counted == coprime_floor_eps_count(p, d)
        if not ok:
            break
    elapsed = time.perf_counter() - started
    report(capsys, 2, ok, "10^4 progressions: window form = scan = floor+eps forms", elapsed, 5)


def test_criterion_3_moebius_identity(capsys):
    started = time.perf_counter()
    ok = all(
        sum(mu for _, mu in squarefree_divisor_terms(n, n)) == (1 if n == 1 else 0)
        for n in range(1, 10_001)
    )
    elapsed = time.perf_counter() - started
    report(capsys, 3, ok, "sum of mu over squarefree divisors picks out n = 1, for n <= 10^4", elapsed, 5)


def test_criterion_4_decomposition_and_bridges(capsys):
    rng = random.Random(404)
    started = time.perf_counter()
    ok = True
    for _ in range(200):
        X = random_union(rng, size_cap=18)
        n = rng.randint(1, 120)
        ks = range(1, X.size + 1)
        ok = ok and f(X) == sum(f_k(X, k) for k in ks)
        ok = ok and phi(X, n) == sum(phi_k(X, n, k) for k in ks)
        ok = ok and f(X) == phi(X, primorial_up_to(X.max_element))
        ok = ok and phi(X, n) == phi(X, radical(n))
        if not ok:
            break
    elapsed = time.perf_counter() - started
    report(capsys, 4, ok, "200 unions: cardinality sums, primorial and radical bridges", elapsed, 30)


def test_criterion_5_tuple_suite(capsys):
    started = time.perf_counter()
    ok = True
    for n in range(1, 11):
        one_to_n = validate_union([interval(1, n)])
        for k in range(1, 5):
            ok = ok and g_count(n, k) == brute_tuples(n, k, None, "ordered")
            ok = ok and h_count(n, k) == brute_tuples(n, k, None, "nondecreasing")
            for m in range(1, 61):
                ok = ok and s_count(n, k, m) == brute_tuples(n, k, m, "ordered")
                ok = ok and l_count(n, k, m) == brute_tuples(n, k, m, "nondecreasing")
                strict = brute_tuples(n, k, m, "strict")
                ok = ok and t_count(n, k, m) == strict == phi_k(one_to_n, m, k)
            if not ok:
                break
        if not ok:
            break
    for n in range(1, 21):
        P = primorial_up_to(n)
        for k in range(1, 6):
            ok = ok and g_count(n, k) == s_count(n, k, P)
            ok = ok and h_count(n, k) == l_count(n, k, P)
    elapsed = time.perf_counter() - started
    report(capsys, 5, ok, "tuple counters match the oracle on the full grid, plus bridges", elapsed, 60)


def test_criterion_6_known_sequence(capsys):
    started = time.perf_counter()
    expected = [1, 2, 5, 11, 26, 53, 116, 236, 488, 983]
    got = [nathanson_f(n) for n in range(1, 11)]
    recount = [sum(subset_gcd_histogram(validate_union([interval(1, n)]))) for n in range(1, 11)]
    ok = got == expected == recount
    elapsed = time.perf_counter() - started
    report(capsys, 6, ok, "f([1,n]) for n = 1..10 equals the fixed sequence", elapsed, 30)


def test_criterion_7_cited_property_scans(capsys):
    started = time.perf_counter()
    ok = all(nathanson_phi(n) % 3 == 0 for n in range(3, 201))
    values = (nathanson_f(n) for n in range(2, 201))
    ok = ok and all(isqrt(v) ** 2 != v for v in values)
    elapsed = time.perf_counter() - started
    report(capsys, 7, ok, "phi(n) = 0 mod 3 and f(n) never square, n <= 200", elapsed, 30)


def test_criterion_8_scale_and_reproducibility(capsys):
    started = time.perf_counter()
    first = nathanson_f(2000)
    elapsed_f = time.perf_counter() - started
    ok = first.bit_length() == 2000 and len(str(first)) == 603

    with ThreadPoolExecutor(max_workers=4) as pool:
        repeats = list(pool.map(lambda _: nathanson_f(2000), range(4)))
    ok = ok and all(v == first for v in repeats)

    big_interval = validate_union([interval(1, 10**6)])
    started_phi = time.perf_counter()
    second = phi(big_interval, 510510)
    elapsed_phi = time.perf_counter() - started_phi
    ok = ok and second.bit_length() == 1_000_000
    ok = ok and elapsed_f < 10 and elapsed_phi < 10

    elapsed = time.perf_counter() - started
    report(
        capsys, 8, ok,
        f"f([1,2000]) in {elapsed_f:.2f}s and phi([1,10^6], 510510) in {elapsed_phi:.2f}s, bit-exact across threads",
        elapsed, 60,
    )
