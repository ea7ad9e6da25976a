"""Per-layer tracing of relprime from outside the package.

The tracer swaps wrappers in for the package's functions in every
module namespace that holds them, and swaps the originals back when
uninstalled; the package's own files are never edited.  Calls that run
a handful of times per query (counters, sieve, divisor walk, kernels,
oracle, parser, CLI) each become a span with a parent and a query id.
Per-term leaf calls (the |X_d| kernel and the weights) run hundreds of
thousands of times per query, so they only add to per-query counts and
summed times, never a span each.  A layer's self time is its spans'
durations minus the time their child spans and leaf calls cover.
"""

from collections import defaultdict
from math import comb
from time import perf_counter

# layer -> (module, function) pairs whose calls become spans
SPANNED = {
    "cli": [("cli", "main")],
    "counting.counters": [("counting", n) for n in ("f", "f_k", "phi", "phi_k")],
    "counting.accumulate": [("counting", "mobius_sum")],
    "shonhiwa": [("shonhiwa", n) for n in ("s_count", "g_count", "l_count", "h_count", "t_count")],
    "numtheory.sieve": [("numtheory", "moebius_sieve")],
    "numtheory.divisor_terms": [("numtheory", "squarefree_divisor_terms")],
    "kernels.moebius": [("_kernels", "moebius_values")],
    "kernels.subset": [("_kernels", "subset_gcd_counts")],
    "kernels.tuple": [("_kernels", "tuple_gcd_count")],
    "oracle": [("oracle", n) for n in (
        "brute_f", "brute_f_k", "brute_phi", "brute_phi_k", "brute_tuples",
        "subset_gcd_histogram",
    )],
    "setmodel.parse": [("setmodel", "parse_set_spec"), ("setmodel", "validate_union")],
}

# layer -> per-term functions that are only counted and timed
LEAVES = {
    "setmodel.kernel": [("setmodel", "union_multiples")],
    "counting.weight": [("counting", "power_of_two_minus_one"), ("counting", "binomial")],
}

# name, unit, and what it measures; _kernels is spelled "kernels" here
# because metric names must start with a letter or digit
PER_LAYER = (
    ("cli.self_s", "s", "cli.main minus library calls: parsing, records, decimal rendering, output"),
    ("setmodel.parse_s", "s", "parse_set_spec and validate_union"),
    ("setmodel.kernel_calls", "count", "union_multiples calls, one per |X_d|"),
    ("setmodel.kernel_s", "s", "union_multiples"),
    ("numtheory.sieve_calls", "count", "moebius_sieve calls"),
    ("numtheory.sieve_hit_ratio", "ratio", "moebius_sieve lru_cache hits per call"),
    ("numtheory.sieve_s", "s", "moebius_sieve minus the kernel: cache lookup, table build"),
    ("numtheory.divisor_terms_s", "s", "squarefree_divisor_terms minus the sieve, factoring included"),
    ("kernels.moebius_s", "s", "_kernels.moebius_values"),
    ("kernels.moebius_limit", "count", "sum of sieve limits passed to _kernels.moebius_values"),
    ("kernels.subset_s", "s", "_kernels.subset_gcd_counts"),
    ("kernels.subset_space", "count", "sum of 2^|X| over subset enumerations"),
    ("kernels.tuple_s", "s", "_kernels.tuple_gcd_count"),
    ("kernels.tuple_space", "count", "sum of enumerated tuple-space sizes"),
    ("counting.accumulate_s", "s", "mobius_sum minus kernel and weight calls; includes the "
     "divisor walk and shonhiwa's inline (n//d)**k weights"),
    ("counting.weight_s", "s", "power_of_two_minus_one and binomial"),
    ("counting.terms", "count", "(mu, value) pairs mobius_sum consumed"),
    ("counting.distinct_exponents", "count", "distinct weight exponents per query, summed; "
     "S and G weigh inline and add none"),
    ("counting.result_bits", "bit", "bit lengths of mobius_sum results"),
    ("counting.useful_term_ratio", "ratio", "share of terms with a nonzero weight"),
    ("shonhiwa.self_s", "s", "tuple counters minus sieve, divisor walk, weights and sum"),
    ("oracle.self_s", "s", "brute_* and subset_gcd_histogram minus the kernels"),
    ("trace.overhead_ratio", "ratio", "query time of traced rounds over that of plain rounds, "
     "each scaled by its calibration"),
)


class Tracer:
    """Spans, self times and counts for one process's calls into relprime."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            name: getattr(package, name)
            for name in ("cli", "counting", "shonhiwa", "numtheory", "setmodel",
                         "oracle", "_kernels")
        }
        self.recording = False
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.leaves = defaultdict(float)
        self._stack = []
        self._query = None
        self._query_leaves = defaultdict(float)
        self._exponents = set()
        self._next_id = 0
        self._patches = []
        self._sieve = self.modules["numtheory"].moebius_sieve
        self._sieve_seen = [0, 0]
        self._sieve_at_install = None

    def install(self):
        """Replace every traced function in every namespace that holds it."""
        info = self._sieve.cache_info()
        self._sieve_at_install = (info.hits, info.misses)
        for layer, targets in SPANNED.items():
            for module, name in targets:
                original = getattr(self.modules[module], name)
                self._patch(original, self._span(layer, name, original))
        for layer, targets in LEAVES.items():
            for module, name in targets:
                original = getattr(self.modules[module], name)
                self._patch(original, self._leaf(layer, original))

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []
        info = self._sieve.cache_info()
        self._sieve_seen[0] += info.hits - self._sieve_at_install[0]
        self._sieve_seen[1] += info.misses - self._sieve_at_install[1]

    def _patch(self, original, wrapper):
        for module in (self.package, *self.modules.values()):
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def begin_query(self, qid):
        """Open the root span that every call of one query hangs from."""
        self._query = qid
        self._query_leaves = defaultdict(float)
        self._exponents = set()
        self._stack.append(self._frame())

    def end_query(self):
        frame = self._stack.pop()
        end = perf_counter()
        for key, value in self._query_leaves.items():
            self.leaves[key] += value
        self.counts["counting.distinct_exponents"] += len(self._exponents)
        if self.recording:
            span = self._span_record(frame, "query", end)
            span["leaves"] = dict(self._query_leaves)
            span["distinct_exponents"] = len(self._exponents)

    def _frame(self):
        # [span id, parent id, time covered by children, start]
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        return [self._next_id, parent, 0.0, perf_counter()]

    def _span_record(self, frame, name, end):
        span = {"id": frame[0], "parent": frame[1], "query": self._query,
                "name": name, "start": frame[3], "end": end}
        self.spans.append(span)
        return span

    def _span(self, layer, name, fn):
        stack, observe = self._stack, _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = self._frame()
            stack.append(frame)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(self.counts, fn, *args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[3]
                self.self_s[layer] += elapsed - frame[2]
                self.calls[layer] += 1
                stack[-1][2] += elapsed
                if self.recording:
                    self._span_record(frame, name, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, layer, fn):
        stack = self._stack
        time_key, calls_key = layer + "_s", layer + "_calls"
        exponents = layer == "counting.weight"

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            stack[-1][2] += elapsed
            leaves = self._query_leaves
            leaves[time_key] += elapsed
            leaves[calls_key] += 1
            if exponents:
                self._exponents.add(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_layer(self, rounds: int, overhead_ratio: float) -> dict:
        """Each PER_LAYER metric, per traced round."""
        c = self.counts
        hits, misses = self._sieve_seen
        values = {
            "cli.self_s": self.self_s["cli"],
            "setmodel.parse_s": self.self_s["setmodel.parse"],
            "setmodel.kernel_calls": self.leaves["setmodel.kernel_calls"],
            "setmodel.kernel_s": self.leaves["setmodel.kernel_s"],
            "numtheory.sieve_calls": self.calls["numtheory.sieve"],
            "numtheory.sieve_s": self.self_s["numtheory.sieve"],
            "numtheory.divisor_terms_s": self.self_s["numtheory.divisor_terms"],
            "kernels.moebius_s": self.self_s["kernels.moebius"],
            "kernels.moebius_limit": c["kernels.moebius_limit"],
            "kernels.subset_s": self.self_s["kernels.subset"],
            "kernels.subset_space": c["kernels.subset_space"],
            "kernels.tuple_s": self.self_s["kernels.tuple"],
            "kernels.tuple_space": c["kernels.tuple_space"],
            "counting.accumulate_s": self.self_s["counting.accumulate"],
            "counting.weight_s": self.leaves["counting.weight_s"],
            "counting.terms": c["counting.terms"],
            "counting.distinct_exponents": c["counting.distinct_exponents"],
            "counting.result_bits": c["counting.result_bits"],
            "shonhiwa.self_s": self.self_s["shonhiwa"],
            "oracle.self_s": self.self_s["oracle"],
        }
        values = {name: value / rounds for name, value in values.items()}
        values["numtheory.sieve_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        terms = c["counting.terms"]
        values["counting.useful_term_ratio"] = c["counting.useful_terms"] / terms if terms else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values[name] for name, _, _ in PER_LAYER}


def _counted(terms, tally):
    n = useful = 0
    for pair in terms:
        n += 1
        if pair[1]:
            useful += 1
        yield pair
    tally.append((n, useful))


def _observe_sum(counts, fn, terms):
    tally = []
    result = fn(_counted(terms, tally))
    for n, useful in tally:
        counts["counting.terms"] += n
        counts["counting.useful_terms"] += useful
    counts["counting.result_bits"] += result.bit_length()
    return result


def _observe_sieve(counts, fn, limit):
    counts["kernels.moebius_limit"] += limit
    return fn(limit)


def _observe_subsets(counts, fn, elements, fold):
    counts["kernels.subset_space"] += 1 << len(elements)
    return fn(elements, fold)


def _observe_tuples(counts, fn, n, k, fold, regime):
    # regimes are _kernels.ORDERED, NONDECREASING, STRICT
    space = (n**k, comb(n + k - 1, k), comb(n, k))[regime]
    counts["kernels.tuple_space"] += space
    return fn(n, k, fold, regime)


_OBSERVERS = {
    "mobius_sum": _observe_sum,
    "moebius_values": _observe_sieve,
    "subset_gcd_counts": _observe_subsets,
    "tuple_gcd_count": _observe_tuples,
}
