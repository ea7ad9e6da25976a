"""Ground-set model: progressions, disjoint unions, and divisibility counts.

The counting formulas ask exactly one question of the set X: how many of
its elements does d divide.  This module answers that in O(1) per
progression via a residue-window formula and keeps X itself as a
validated union of pairwise disjoint arithmetic progressions.

Progression, ProgressionUnion and oracle.OracleBudget are immutable
records: slotted subclasses of _Record, which compares, hashes, prints
and pickles them by their fields, in the manner of a frozen dataclass,
without importing dataclasses and the inspect machinery it pulls in.
"""

import re
from itertools import chain
from math import gcd

from .errors import BudgetExceededError, DomainError, OverlapError, SetSpecError

ENUMERATION_CAP = 10**6

_INTERVAL_RE = re.compile(r"(\d+)\.\.(\d+)")
_AP_RE = re.compile(r"ap\((\d+),(\d+),(\d+)\)")


class _Record:
    """An immutable record whose fields are its subclass's __slots__.

    A subclass's __init__ passes every field's value, in slot order, to
    _Record.__init__, which also keeps them as one tuple, the key that
    records compare, hash and pickle by: records are equal when their
    types and keys are, and pickling calls the class on the key again.
    """

    __slots__ = ("_key",)

    def __init__(self, *values):
        object.__setattr__(self, "_key", values)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key


class Progression(_Record):
    """The set {first, first+step, ..., first+(length-1)*step}."""

    __slots__ = ("first", "step", "length")

    def __init__(self, first: int, step: int, length: int):
        if first < 1:
            raise DomainError(f"first term must be positive, got {first}")
        if step < 1:
            raise DomainError(f"step must be positive, got {step}")
        if length < 1:
            raise DomainError(f"length must be positive, got {length}")
        super().__init__(first, step, length)

    @property
    def max_element(self) -> int:
        return self.first + (self.length - 1) * self.step

    def elements(self) -> range:
        return range(self.first, self.max_element + 1, self.step)

    def __str__(self):
        if self.step == 1:
            return f"{self.first}..{self.max_element}"
        return f"ap({self.first},{self.step},{self.length})"


class ProgressionUnion(_Record):
    """Disjoint progressions sorted by first element.

    Build through validate_union (or parse_set_spec); the constructor
    itself does not re-check disjointness.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        super().__init__(parts)

    @property
    def size(self) -> int:
        return sum(p.length for p in self.parts)

    @property
    def max_element(self) -> int:
        return max(p.max_element for p in self.parts)

    def __str__(self):
        return " + ".join(str(p) for p in self.parts)


def interval(lo: int, hi: int) -> Progression:
    """The integer interval [lo, hi] as a step-1 progression."""
    if lo > hi:
        raise DomainError(f"empty interval {lo}..{hi}")
    return Progression(lo, 1, hi - lo + 1)


def count_ap_multiples(p: Progression, d: int) -> int:
    """How many elements of p are multiples of d.

    Solving first + step*x = 0 (mod d) over indices x: with k = gcd(d, step)
    there is no solution unless k | first; otherwise the solutions form one
    residue class mod d/k, counted inside the index window [0, length-1].
    """
    if d < 1:
        raise DomainError(f"divisor must be positive, got {d}")
    k = gcd(d, p.step)
    if p.first % k:
        return 0
    dk = d // k
    x0 = (-(p.first // k) * pow(p.step // k, -1, dk)) % dk
    if x0 > p.length - 1:
        return 0
    return (p.length - 1 - x0) // dk + 1


def union_multiples(X: ProgressionUnion, d: int) -> int:
    """Elements of X divisible by d; parts are disjoint, so sums are exact."""
    return sum(count_ap_multiples(p, d) for p in X.parts)


def _common_element(p: Progression, q: Progression):
    """Smallest element shared by p and q, or None.

    Intersecting the two congruence classes is a CRT instance: solvable
    iff gcd(step_p, step_q) divides the offset of the first terms, and
    then the joint class has period lcm(step_p, step_q).  The witness
    must additionally land inside both value ranges.
    """
    g = gcd(p.step, q.step)
    if (q.first - p.first) % g:
        return None
    m2 = q.step // g
    t = (q.first - p.first) // g * pow(p.step // g, -1, m2) % m2
    x = p.first + p.step * t
    period = p.step // g * q.step
    lo = max(p.first, q.first)
    if x < lo:
        x += (lo - x + period - 1) // period * period
    if x > min(p.max_element, q.max_element):
        return None
    return x


def validate_union(parts) -> ProgressionUnion:
    """Check pairwise disjointness and return the sorted union.

    Overlapping parts are rejected, never merged: the divisibility kernel
    adds per-part counts, so a shared element would be counted twice.
    """
    parts = tuple(parts)
    if not parts:
        raise DomainError("a progression union needs at least one part")
    ordered = tuple(sorted(parts, key=lambda p: (p.first, p.step, p.length)))
    for i, left in enumerate(ordered):
        for right in ordered[i + 1 :]:
            witness = _common_element(left, right)
            if witness is not None:
                raise OverlapError(left, right, witness)
    return ProgressionUnion(ordered)


def enumerate_elements(X: ProgressionUnion) -> list:
    """Materialize X as a sorted element list; refuses sets larger than
    ENUMERATION_CAP before building anything."""
    if X.size > ENUMERATION_CAP:
        raise BudgetExceededError(
            f"set has {X.size} elements, enumeration cap is {ENUMERATION_CAP}"
        )
    return sorted(chain.from_iterable(p.elements() for p in X.parts))


def parse_set_spec(text: str) -> ProgressionUnion:
    """Parse the set grammar: 'l..r' intervals, 'ap(a,b,m)', '+' unions.

    Whitespace is insignificant and integers are unsigned decimals.  The
    parts go through validate_union, so overlapping unions raise
    OverlapError rather than SetSpecError.
    """
    squeezed = "".join(text.split())
    if not squeezed:
        raise SetSpecError("empty set specification")
    parts = []
    for term in squeezed.split("+"):
        if match := _INTERVAL_RE.fullmatch(term):
            builder = interval
        elif match := _AP_RE.fullmatch(term):
            builder = Progression
        else:
            raise SetSpecError(f"cannot parse term {term!r}")
        try:
            parts.append(builder(*map(int, match.groups())))
        except ValueError as exc:  # DomainError, or int() past its digit limit
            raise SetSpecError(f"bad term {term!r}: {exc}") from exc
    return validate_union(parts)
