"""Brute-force reference counters: definitional enumeration, no formulas.

Everything here recounts from the definitions so the formula modules can
be checked against genuinely independent code; the only shared pieces are
gcd itself and the set model's element enumeration.  The enumerations run
in the blocked kernels of _kernels, one path for integers of every size:
every subset and every tuple is still visited and its gcd taken, but
memory stays within a fixed block size whatever the budget.  Budgets
bound the time instead, stopping runaway enumerations before they start.
"""

from dataclasses import dataclass
from math import comb

from . import _kernels
from .errors import BudgetExceededError, DomainError, check_positive
from .setmodel import ProgressionUnion, enumerate_elements

_ORDERINGS = {
    "ordered": _kernels.ORDERED,
    "nondecreasing": _kernels.NONDECREASING,
    "strict": _kernels.STRICT,
}


@dataclass(frozen=True)
class OracleBudget:
    """Hard ceilings on enumeration size, checked before any work starts."""

    max_set_size: int = 22
    max_tuple_space: int = 10_000_000


DEFAULT_BUDGET = OracleBudget()


def subset_gcd_histogram(X: ProgressionUnion, fold: int = 0, budget=None) -> tuple:
    """counts[c] = number of c-element subsets A of X with gcd(A + {fold}) = 1.

    fold = 0 contributes nothing to the gcd, giving the plain relatively
    prime count; fold = n gives the relatively-prime-to-n count.  One pass
    over all 2^|X| - 1 nonempty subsets.
    """
    budget = budget or DEFAULT_BUDGET
    if X.size > budget.max_set_size:
        raise BudgetExceededError(
            f"|X| = {X.size} exceeds the subset budget of {budget.max_set_size}"
        )
    if fold < 0:
        raise DomainError(f"fold must be nonnegative, got {fold}")
    counts = _kernels.subset_gcd_counts(enumerate_elements(X), fold)
    return tuple(int(c) for c in counts)


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

    'ordered' walks all n^k tuples, 'nondecreasing' the multisets,
    'strict' the k-subsets.  m = None imposes no modulus (the gcd is over
    the tuple alone).  The tuple space is estimated up front against the
    budget.
    """
    check_positive(n=n, k=k)
    if m is not None:
        check_positive(m=m)
    try:
        regime = _ORDERINGS[ordering]
    except KeyError:
        raise DomainError(f"unknown ordering {ordering!r}") from None
    budget = budget or DEFAULT_BUDGET
    space = max(_tuple_space(n, k, regime), n)
    if space > budget.max_tuple_space:
        raise BudgetExceededError(
            f"{space} tuples to enumerate exceeds the budget of "
            f"{budget.max_tuple_space}"
        )
    return _kernels.tuple_gcd_count(n, k, 0 if m is None else m, regime)


def _tuple_space(n, k, regime):
    if regime == _kernels.ORDERED:
        return n**k
    if regime == _kernels.NONDECREASING:
        return comb(n + k - 1, k)
    return comb(n, k)
