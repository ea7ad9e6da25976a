"""Brute-force reference counters: definitional enumeration, no formulas.

Everything here recounts from the definitions so the formula modules can
be checked against genuinely independent code; the only shared pieces are
gcd itself and the set model's element enumeration.  The recounts run in
the kernels of _kernels, one path for integers of every size: the subset
walk counts the subsets of the first 12 elements and of the rest by
(gcd, size) class and joins the two on coprime gcds, and the tuple walk
counts prefixes by (gcd so far, last value) class, one step per class
and next value, then, once per distinct gcd g, finds g's primes up to n
by its own trial division, zeroes their multiples among the values left
for the last position in bytearray windows and reads every class's
count from the bytes left set.  Both walks are plain Python, like the
rest of the package.  Budgets bound the work, stopping runaway recounts before they
start, and the subset walk refuses to outgrow its memory.  An
OracleBudget is one of setmodel's immutable records.
"""

from . import _kernels
from .errors import BudgetExceededError, DomainError, check_positive
from .setmodel import ProgressionUnion, _Record, enumerate_elements

_ORDERINGS = {
    "ordered": _kernels.ORDERED,
    "nondecreasing": _kernels.NONDECREASING,
    "strict": _kernels.STRICT,
}


class OracleBudget(_Record):
    """Hard ceilings on enumeration size, checked before any work starts."""

    __slots__ = ("max_set_size", "max_tuple_space")

    def __init__(self, max_set_size: int = 22, max_tuple_space: int = 10_000_000):
        super().__init__(max_set_size, max_tuple_space)


DEFAULT_BUDGET = OracleBudget()


def subset_gcd_histogram(X: ProgressionUnion, fold: int = 0, budget=None) -> tuple:
    """counts[c] = number of c-element subsets A of X with gcd(A + {fold}) = 1.

    fold = 0 contributes nothing to the gcd, giving the plain relatively
    prime count; fold = n gives the relatively-prime-to-n count.  The
    budget bounds |X|; the walk holds at most 2^12 classes for the first
    12 elements and one per subset of the rest, and raises
    BudgetExceededError past a fixed number of (gcd, size) classes.
    """
    budget = budget or DEFAULT_BUDGET
    if X.size > budget.max_set_size:
        raise BudgetExceededError(
            f"|X| = {X.size} exceeds the subset budget of {budget.max_set_size}"
        )
    if fold < 0:
        raise DomainError(f"fold must be nonnegative, got {fold}")
    return tuple(_kernels.subset_gcd_counts(enumerate_elements(X), fold))


def brute_f(X: ProgressionUnion, budget=None) -> int:
    """Relatively prime subsets of X, straight from the definition."""
    return sum(subset_gcd_histogram(X, 0, budget))


def brute_f_k(X: ProgressionUnion, k: int, budget=None) -> int:
    """Relatively prime k-element subsets of X."""
    check_positive(k=k)
    hist = subset_gcd_histogram(X, 0, budget)
    return hist[k] if k < len(hist) else 0


def brute_phi(X: ProgressionUnion, n: int, budget=None) -> int:
    """Subsets of X relatively prime to n."""
    check_positive(n=n)
    return sum(subset_gcd_histogram(X, n, budget))


def brute_phi_k(X: ProgressionUnion, n: int, k: int, budget=None) -> int:
    """k-element subsets of X relatively prime to n."""
    check_positive(n=n, k=k)
    hist = subset_gcd_histogram(X, n, budget)
    return hist[k] if k < len(hist) else 0


def brute_tuples(n: int, k: int, m=None, ordering: str = "ordered", budget=None) -> int:
    """Count k-tuples over [1, n] in one ordering regime, gcd folded with m.

    'ordered' counts all n^k tuples, 'nondecreasing' the multisets,
    'strict' the k-subsets.  m = None imposes no modulus (the gcd is over
    the tuple alone).  The budget bounds the prefixes of every length up
    to k, the tuples included, and so the walk, which takes at most one
    step per prefix: n + n^2 + ... + n^k
    ordered, C(n+k, k) - 1 nondecreasing and C(n+1, k) - 1 strict (whose
    walk keeps only prefixes that can still reach length k), or 2 for
    n = 1, whose walk stops at a fixed point.  Those counts are settled
    from bit lengths and a product that stops past the budget, so a
    refusal builds no large integer and shows none past 10^4000.
    """
    check_positive(n=n, k=k)
    if m is not None:
        check_positive(m=m)
    try:
        regime = _ORDERINGS[ordering]
    except KeyError:
        raise DomainError(f"unknown ordering {ordering!r}") from None
    limit = (budget or DEFAULT_BUDGET).max_tuple_space
    tuples, prefixes = _walk_size(n, k, regime, max(limit, _SHOWN))
    if prefixes > limit:
        if tuples > limit:
            what = f"{_shown(tuples)} tuples to enumerate"
        else:
            what = f"{_shown(prefixes)} prefixes of {_shown(tuples)} tuples to build"
        raise BudgetExceededError(f"{what} exceeds the budget of {limit}")
    return _kernels.tuple_gcd_count(n, k, 0 if m is None else m, regime)


# the walk's counts are computed exactly up to this and shown as "more
# than" it past it: str() refuses integers of more than 4300 digits, and
# building a larger count can take longer than the walk it bounds
_SHOWN = 10**4000


def _shown(count):
    return str(count) if count <= _SHOWN else "more than 10^4000"


def _walk_size(n, k, regime, cap):
    """(tuples, prefixes) the walk builds, each exact up to cap; a count
    past cap comes back as cap + 1 or some other value past cap."""
    if regime == _kernels.STRICT and k > n:
        return 0, 0
    if n == 1:
        return 1, min(k, 2)
    if regime == _kernels.ORDERED:
        # n^k >= 2^(k (bitlen n - 1)), so a power that passes this test
        # has at most twice cap's bits
        if k * (n.bit_length() - 1) > cap.bit_length():
            return cap + 1, cap + 1
        tuples = n**k
        return tuples, n * (tuples - 1) // (n - 1)
    # the prefixes' cap is one higher, so that one past it stays past cap
    # once the - 1 is taken off
    if regime == _kernels.NONDECREASING:
        return _capped_comb(n + k - 1, k, cap), _capped_comb(n + k, k, cap + 1) - 1
    return _capped_comb(n, k, cap), _capped_comb(n + 1, k, cap + 1) - 1


def _capped_comb(a, b, cap):
    """C(a, b), or cap + 1 once it passes cap.  With b the smaller side,
    each partial product C(a-b+i, i) at least doubles, so the loop stops
    within cap's bit length."""
    b = min(b, a - b)
    value = 1
    for i in range(1, b + 1):
        value = value * (a - b + i) // i
        if value > cap:
            return cap + 1
    return value
