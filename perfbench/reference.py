"""Reference values for benchmark queries, computed without relprime.

The benchmark checks every answer the library returns against these.
They come from the same Möbius identities the paper proves, but share
no code with the package: the set grammar, the Möbius sieve, the
multiple counts |X_d| and the factoring are all rebuilt here, and the
sum is grouped by |X_d| so that even megabit-wide results take
milliseconds.  |X_d| is counted from the elements themselves (an
indicator array for large sets, the divisors of each element for small
ones), never from the package's per-progression formula.
"""

import re
from functools import lru_cache
from math import comb, isqrt

import numpy as np

_SMALL_SET = 64

_TERM = re.compile(r"(\d+)\.\.(\d+)|ap\((\d+),(\d+),(\d+)\)")


def expected(query: dict) -> list:
    """The exact values the query must yield, one per emitted value."""
    fn = query["fn"]
    if query["via"] == "seq":
        out = []
        for n in range(query["lo"], query["hi"] + 1):
            if fn in ("f", "fk", "phi", "phik"):
                out.append(_set_value(fn, f"1..{n}", n, query.get("k")))
            else:
                out.append(_tuple_value(fn, n, query.get("k"), query.get("m")))
        return out
    if "set" in query:
        return [_set_value(fn, query["set"], query.get("n"), query.get("k"))]
    return [_tuple_value(fn, query["n"], query["k"], query.get("m"))]


def _set_value(fn, spec, n, k):
    elements = _elements(spec)
    weight = _subset_weight if k is None or fn in ("f", "phi") else _k_weight(k)
    if fn in ("f", "fk"):
        if len(elements) <= _SMALL_SET:
            return sum(mu * weight(c) for d, mu, c in _small_terms(elements))
        mu, cnt = _mobius(elements[-1]), _multiple_counts(spec)
        return _grouped(mu[1:], cnt[1:], weight)
    total = 0
    for d, mu in _squarefree_divisors(n, elements[-1]):
        if len(elements) <= _SMALL_SET:
            c = sum(1 for x in elements if x % d == 0)
        else:
            c = int(_multiple_counts(spec)[d])
        total += mu * weight(c)
    return total


def _tuple_value(fn, n, k, m):
    if fn in ("S", "G"):
        weight = lambda q: q**k
    elif fn in ("L", "H"):
        weight = lambda q: comb(q + k - 1, k)
    else:
        weight = lambda q: comb(q, k)
    if fn in ("G", "H"):
        d = np.arange(1, n + 1, dtype=np.int64)
        return _grouped(_mobius(n)[1:], n // d, weight)
    return sum(mu * weight(n // d) for d, mu in _squarefree_divisors(m, n))


def _subset_weight(c):
    return (1 << c) - 1


def _k_weight(k):
    return lambda c: comb(c, k)


def _grouped(mu, counts, weight):
    """Sum of mu[i] * weight(counts[i]), one weight per distinct count."""
    keep = (mu != 0) & (counts > 0)
    coef = np.zeros(int(counts.max()) + 1, dtype=np.int64)
    np.add.at(coef, counts[keep], mu[keep].astype(np.int64))
    return sum(int(c) * weight(e) for e, c in enumerate(coef.tolist()) if c)


@lru_cache(maxsize=32)
def _elements(spec: str) -> tuple:
    squeezed = "".join(spec.split())
    values = []
    for term in squeezed.split("+"):
        match = _TERM.fullmatch(term)
        if match is None:
            raise ValueError(f"cannot parse set term {term!r}")
        if match.group(1) is not None:
            values.extend(range(int(match.group(1)), int(match.group(2)) + 1))
        else:
            a, b, length = (int(g) for g in match.groups()[2:])
            values.extend(range(a, a + b * length, b))
    values.sort()
    if len(set(values)) != len(values) or values[0] < 1:
        raise ValueError(f"set {spec!r} is not a disjoint union of positive integers")
    return tuple(values)


@lru_cache(maxsize=32)
def _multiple_counts(spec: str) -> np.ndarray:
    """cnt[d] = number of elements that d divides, for 1 <= d <= max X.

    cnt[d] is the sum of the indicator over multiples of d.  Small d sum
    a strided slice each; for large d, which have fewer than sqrt(M)
    multiples, the j-th multiple of every such d is added at once.
    """
    elements = _elements(spec)
    top = elements[-1]
    indicator = np.zeros(top + 1, dtype=np.int64)
    indicator[list(elements)] = 1
    cnt = np.zeros(top + 1, dtype=np.int64)
    root = isqrt(top)
    for d in range(1, root + 1):
        cnt[d] = indicator[d::d].sum()
    for j in range(1, top // (root + 1) + 1):
        hi = top // j
        if hi <= root:
            break
        cnt[root + 1 : hi + 1] += indicator[j * (root + 1) : j * hi + 1 : j]
    return cnt


@lru_cache(maxsize=8)
def _mobius(limit: int) -> np.ndarray:
    """mu(0..limit) from the primes: flip the sign per prime, zero p^2."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    for p in np.flatnonzero(prime).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def _primes_of(n: int) -> list:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _squarefree_divisors(n: int, bound: int) -> list:
    """(d, mu(d)) for the squarefree divisors d <= bound of n."""
    terms = [(1, 1)]
    for p in _primes_of(n):
        terms += [(d * p, -mu) for d, mu in terms if d * p <= bound]
    return terms


def _small_terms(elements):
    """(d, mu(d), |X_d|) for each squarefree d dividing some element."""
    counts, mus = {}, {}
    for x in elements:
        for d, mu in _squarefree_divisors(x, x):
            counts[d] = counts.get(d, 0) + 1
            mus[d] = mu
    return [(d, mus[d], c) for d, c in counts.items()]
