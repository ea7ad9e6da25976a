"""The four benchmark workloads and the query format they share.

A workload is one round: a fixed list of queries that the worker runs
in order, again and again, until the run's time is up.  Every query is
a plain dict so it can cross a process boundary as JSON:

    {"fn": "f" | "fk" | "phi" | "phik" | "S" | "G" | "L" | "H" | "T",
     "via": "lib" | "count" | "verify" | "seq",
     "set": "<set spec>"            # f, fk, phi, phik (not for seq)
     "n": int, "k": int, "m": int   # as the function takes them
     "lo": int, "hi": int, "flags": [...]}   # seq only

Function names are the CLI's.  "lib" calls the library directly,
"count" and "verify" go through ``cli.main`` in-process, and "seq"
sweeps n over lo..hi through ``cli.main``, one value per n.

Sizes, and whatever else sets a query's cost, sit on fixed ladders;
the seed picks the rest (offsets, moduli, k, order), so two seeds give
different inputs at nearly the same cost: the quantiles a run reports
then land on the same rung of the ladder whatever the seed.
"""

import hashlib
import random

WORKLOADS = ("dense", "sparse", "sweep", "verify")

SET_FUNCTIONS = ("f", "fk", "phi", "phik")
TUPLE_FUNCTIONS = ("S", "G", "L", "H", "T")
PARAMS = {
    "f": (), "fk": ("k",), "phi": ("n",), "phik": ("n", "k"),
    "S": ("n", "k", "m"), "G": ("n", "k"), "L": ("n", "k", "m"),
    "H": ("n", "k"), "T": ("n", "k", "m"),
}

SMALL_MODULI = (30, 210, 2310, 30030, 510510, 9699690)
_SMALL_PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]


def digest(value: int) -> str:
    """Digest of an exact nonnegative integer, linear in its size.

    Built from the integer's bytes, never its decimal string, which is
    quadratic to produce and capped at 4300 digits by default.
    """
    return hashlib.blake2b(
        value.to_bytes(max(1, (value.bit_length() + 7) // 8), "little"),
        digest_size=16,
    ).hexdigest()


def build(name: str, seed: int, scale: float = 1.0) -> list:
    """One round of the named workload; scale < 1 shrinks it for tests."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, scale)


def cli_argv(query: dict) -> list:
    """The ``relprime`` argument list that runs a count/verify/seq query."""
    fn, via = query["fn"], query["via"]
    if via == "seq":
        argv = ["seq", fn, f"{query['lo']}..{query['hi']}"]
        for flag in ("k", "m"):
            if flag in query:
                argv += [f"--{flag}", str(query[flag])]
        return argv + list(query.get("flags", ()))
    argv = [via, fn]
    if fn in SET_FUNCTIONS:
        argv += ["--set", query["set"]]
    for flag in PARAMS[fn]:
        argv += [f"--{flag}", str(query[flag])]
    return argv


def values_of(query: dict) -> int:
    """How many result values one run of the query yields."""
    return query["hi"] - query["lo"] + 1 if query["via"] == "seq" else 1


def _scaled(x, scale, floor=1):
    return max(floor, round(x * scale))


def _ladder(lo, hi, count, rng, jitter=0.1):
    """count sizes spread log-uniformly over [lo, hi], one per rung.

    The seed moves each size by at most a tenth of a rung, so a rung's
    cost barely changes from seed to seed.
    """
    ratio = hi / lo
    return [
        round(lo * ratio ** ((i + 0.5 + rng.uniform(-jitter, jitter)) / count))
        for i in range(count)
    ]


def _big_modulus(rng, floor=10**12):
    """A squarefree modulus above 10^12 made of primes below 2000."""
    primes = rng.sample(_SMALL_PRIMES[10:], 12)
    n = 1
    for p in primes:
        n *= p
        if n > floor:
            return n
    return n


def _union_spec(top, kind, step, rng):
    """A ground set with max element close to top, and its max element.

    kind 0 is the interval [1, top]; kinds 1 and 2 are an initial
    interval followed by one or two progressions of the given step in
    distinct residue classes, so the parts are disjoint.
    """
    if kind == 0:
        return f"1..{top}", top
    head = max(1, min(top // 10, rng.randrange(500, 2000)))
    length = max(1, (top - head - step) // step + 1)
    parts = [f"1..{head}", f"ap({head + 1},{step},{length})"]
    last = head + 1
    if kind == 2:
        last = head + rng.randrange(2, step)
        parts.append(f"ap({last},{step},{length})")
    return " + ".join(parts), last + step * (length - 1)


def _dense(rng, scale):
    # Twelve ground sets with max element 2*10^4..2*10^5, more than the
    # sieve cache's eight entries.  Each set's queries run back to back,
    # f first: f's sieve misses (the table was evicted since the set's
    # last turn) and the set's other sieving queries hit.  Shape and
    # step follow the rung, since they set how many elements a set has.
    tops = [_scaled(t, scale, 40) for t in _ladder(2 * 10**4, 2 * 10**5, 12, rng)]
    groups = []
    for i, top in enumerate(tops):
        spec, largest = _union_spec(top, i % 3, (5, 7, 11, 13)[i % 4], rng)
        small, big = rng.choice(SMALL_MODULI), _big_modulus(rng)
        group = [
            {"fn": "f", "via": "lib", "set": spec},
            {"fn": "fk", "via": "lib", "set": spec, "k": rng.randrange(2, 9)},
            {"fn": "phi", "via": "lib", "set": spec, "n": big},
            {"fn": "phi", "via": "lib", "set": spec, "n": _big_modulus(rng)},
            {"fn": "phik", "via": "lib", "set": spec, "n": big, "k": rng.randrange(2, 9)},
            {"fn": "phi", "via": "lib", "set": spec, "n": small},
            {"fn": "phik", "via": "lib", "set": spec, "n": small, "k": rng.randrange(2, 9)},
        ]
        tuple_fn = ("G", "H", "L")[i % 3]
        group.append({"fn": tuple_fn, "via": "lib", "n": largest, "k": rng.randrange(2, 5)})
        if tuple_fn == "L":
            group[-1]["m"] = rng.choice(SMALL_MODULI)
        groups.append(group)
    # About one query in ten goes through the CLI at full size, on the
    # [1, n] sets: every f and phi result there is wider than the
    # default 4300-digit decimal limit, so those four fail today.
    for i, fn in enumerate(("f", "fk", "phi", "phik", "fk", "f", "phik", "phi", "fk", "phik")):
        group = groups[3 * i % len(groups)]
        query = {"fn": fn, "via": "count", "set": group[0]["set"]}
        if fn in ("fk", "phik"):
            query["k"] = rng.randrange(2, 9)
        if fn in ("phi", "phik"):
            query["n"] = rng.choice(SMALL_MODULI)
        group.append(query)
    rng.shuffle(groups)
    return [query for group in groups for query in group]


def _sparse(rng, scale):
    # Small sets whose max elements never repeat within a round: every
    # query sieves to max X and walks mostly useless terms.  The last
    # one sieves to 10^6.
    tops = _ladder(10**4, 5 * 10**4, 99, rng) + [10**6]
    queries = []
    for i, top in enumerate(tops):
        top = _scaled(top, scale, 60)
        size = rng.randrange(2, 41)
        if i % 2:
            step = rng.randrange(2, max(3, min(50, top // size)))
            spec = f"ap({top - step * (size - 1)},{step},{size})"
        else:
            spec = f"{top - size + 1}..{top}"
        fn = ("f", "fk", "phi")[i % 3]
        query = {"fn": fn, "via": "lib", "set": spec}
        if fn == "fk":
            query["k"] = rng.randrange(2, size + 1)
        if fn == "phi":
            query["n"] = _big_modulus(rng)
        queries.append(query)
    rng.shuffle(queries)
    return queries


def _sweep(rng, scale):
    # Consecutive n in the low thousands; f and G sweep disjoint ranges
    # so no sieve limit is still cached when it comes round again.
    start = _scaled(1500 + rng.randrange(100), scale, 3)
    f_len, g_len, cheap_len = (_scaled(x, scale, 2) for x in (30, 30, 60))
    g_start = start + cheap_len
    return [
        {"fn": "f", "via": "seq", "lo": start, "hi": start + f_len - 1,
         "flags": ["--check-nonsquare"]},
        {"fn": "phi", "via": "seq", "lo": start, "hi": start + cheap_len - 1,
         "flags": ["--check-mod3"]},
        {"fn": "G", "via": "seq", "lo": g_start, "hi": g_start + g_len - 1, "k": 3},
        {"fn": "T", "via": "seq", "lo": start, "hi": start + cheap_len - 1,
         "k": 3, "m": 30030},
    ]


def _tuple_query(fn, space, rng):
    """A tuple query of the given function whose space is close to space."""
    k = rng.randrange(2, 5)
    if fn in ("S", "G"):
        n = max(2, round(space ** (1 / k)))
    else:
        # C(n, k) and C(n+k-1, k) grow like n^k / k!
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        n = max(k + 1, round((space * fact) ** (1 / k)))
    query = {"fn": fn, "via": "verify", "n": n, "k": k}
    if fn in ("S", "L", "T"):
        query["m"] = rng.choice(SMALL_MODULI)
    return query


def _verify(rng, scale):
    # The oracle dominates: 2^|X| subsets for |X| = 14..20 and twice 22,
    # the default budget; tuple spaces from 10^4 to 2*10^6, and the
    # 55^4 = 9.15*10^6 ordered 4-tuples.
    sizes = [14 + i % 7 for i in range(88)] + [22, 22]
    queries = []
    for i, size in enumerate(sizes):
        if scale < 1:
            size = 3 + i % 4
        first = rng.randrange(2, 3000)
        if rng.random() < 0.5:
            spec = f"{first}..{first + size - 1}"
        else:
            spec = f"ap({first},{rng.randrange(2, 30)},{size})"
        fn = SET_FUNCTIONS[i % 4]
        query = {"fn": fn, "via": "verify", "set": spec}
        if fn in ("fk", "phik"):
            query["k"] = rng.randrange(2, size + 1)
        if fn in ("phi", "phik"):
            query["n"] = rng.randrange(2, 10**4)
        queries.append(query)
    for i, space in enumerate(_ladder(10**4, 2 * 10**6, 10, rng)):
        queries.append(_tuple_query(TUPLE_FUNCTIONS[i % 5], space * scale, rng))
    queries.append({"fn": "G", "via": "verify", "n": _scaled(55, scale, 3), "k": 4})
    rng.shuffle(queries)
    return queries


_BUILDERS = {"dense": _dense, "sparse": _sparse, "sweep": _sweep, "verify": _verify}
