"""Index sets over the naturals, given as (member, nth) oracle pairs: the
one module that represents, counts and compares supports and hints.

``nth`` is 1-based: ``nth(1)`` is the smallest element.  Concrete sets
implement ``member`` and a counting oracle ``rank_upto`` (number of
elements <= n); ``nth`` is derived by a monotone search, so the two
access patterns stay consistent by construction.

The spec kinds are arithmetic progressions (all naturals and the dyadic
rows are ones), the powers of two and explicit finite sets.  Composite
hints have no spec: ``Intersection`` (a restriction's), ``Union`` (a
combination's) and ``DoublingSelection`` (prop28's and rem29's picks).
``misses`` and ``within`` compare sets: two progressions miss each other
exactly when their starts differ modulo the gcd of their steps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd

from .errors import FiniteSupportSet, ParseError


class SupportSet:
    """Base class; subclasses define member/rank_upto and a JSON spec."""

    finite_flag = False

    def member(self, n: int) -> bool:
        raise NotImplementedError

    def rank_upto(self, n: int) -> int:
        """Number of elements <= n (0 for n < 0)."""
        raise NotImplementedError

    def nth(self, k: int) -> int:
        """The k-th smallest element, k >= 1."""
        if k < 1:
            raise ValueError("nth is 1-based")
        lo, hi = 0, 1
        while self.rank_upto(hi) < k:
            lo, hi = hi + 1, hi * 2
            if hi > 1 << 64:
                raise FiniteSupportSet(f"fewer than {k} elements found")
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rank_upto(mid) >= k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def elements_upto(self, n: int) -> list[int]:
        count = self.rank_upto(n)
        return [self.nth(k) for k in range(1, count + 1)]

    def misses(self, row: SupportSet, cutoff: int) -> bool:
        """True only if provably no element lies in row from the cutoff on.
        A kind without a rule may meet every row."""
        return False

    def within(self, other: SupportSet) -> bool:
        """True only if provably every element lies in other.  A kind
        without a rule is within only a set of the same spec."""
        return self.spec() == other.spec()

    def spec(self) -> dict:
        raise NotImplementedError

    def require_infinite(self):
        if self.finite_flag:
            raise FiniteSupportSet("operation requires an infinite index set")


class PowersOfTwo(SupportSet):
    """{1, 2, 4, 8, ...}"""

    def member(self, n):
        return n >= 1 and n & (n - 1) == 0

    def rank_upto(self, n):
        return n.bit_length() if n >= 1 else 0

    def nth(self, k):
        if k < 1:
            raise ValueError("nth is 1-based")
        return 1 << (k - 1)

    def spec(self):
        return {"kind": "powers-of-two"}


class Arith(SupportSet):
    """{start, start + step, start + 2*step, ...}"""

    def __init__(self, start: int, step: int):
        if start < 0 or step < 1:
            raise ValueError("need start >= 0 and step >= 1")
        self.start, self.step = start, step

    def member(self, n):
        return n >= self.start and (n - self.start) % self.step == 0

    def rank_upto(self, n):
        if n < self.start:
            return 0
        return (n - self.start) // self.step + 1

    def nth(self, k):
        if k < 1:
            raise ValueError("nth is 1-based")
        return self.start + (k - 1) * self.step

    def elements_upto(self, n):
        return range(self.start, n + 1, self.step)

    def misses(self, row, cutoff):
        # two progressions meet exactly when their starts agree modulo the
        # gcd of their steps (Chinese remainder theorem)
        return isinstance(row, Arith) and (self.start - row.start) % gcd(self.step, row.step) != 0

    def spec(self):
        return {"kind": "arith", "start": self.start, "step": self.step}


class AllNaturals(Arith):
    """{0, 1, 2, ...}: the hint of a node with nothing narrower known."""

    def __init__(self):
        super().__init__(0, 1)

    def spec(self):
        return {"kind": "all"}


class DyadicRow(Arith):
    """Row j >= 1 of the dyadic partition: n with v2(n+1) = j-1, the
    progression {2**(j-1) - 1, 2**(j-1) - 1 + 2**j, ...}.

    Row 1 is {0, 2, 4, ...}, row 2 is {1, 5, 9, ...}; the rows partition
    the naturals, and ``Arith.misses`` proves any two of them disjoint.
    """

    def __init__(self, j: int):
        if j < 1:
            raise ValueError("row index must be >= 1")
        super().__init__((1 << (j - 1)) - 1, 1 << j)
        self.j = j

    def spec(self):
        return {"kind": "dyadic-row", "j": self.j}


class ExplicitFinite(SupportSet):
    finite_flag = True

    def __init__(self, elems):
        self.elems = sorted(set(int(e) for e in elems))
        if self.elems and self.elems[0] < 0:
            raise ValueError("negative index")

    def member(self, n):
        i = bisect_right(self.elems, n)
        return i > 0 and self.elems[i - 1] == n

    def rank_upto(self, n):
        return bisect_right(self.elems, n)

    def nth(self, k):
        if k < 1 or k > len(self.elems):
            raise FiniteSupportSet(f"set has only {len(self.elems)} elements")
        return self.elems[k - 1]

    def misses(self, row, cutoff):
        return not any(row.member(e) for e in self.elems[bisect_left(self.elems, cutoff):])

    def within(self, other):
        return all(other.member(e) for e in self.elems)

    def spec(self):
        return {"kind": "explicit-finite", "elems": list(self.elems)}


class Intersection(SupportSet):
    """The elements of a base set that lie in a mask: a restriction's hint."""

    def __init__(self, base_hint: SupportSet, mask: SupportSet):
        self.base_hint, self.mask = base_hint, mask
        self.finite_flag = base_hint.finite_flag or mask.finite_flag

    def member(self, n):
        return self.base_hint.member(n) and self.mask.member(n)

    def misses(self, row, cutoff):
        return self.base_hint.misses(row, cutoff) or self.mask.misses(row, cutoff)

    def within(self, other):
        return self.base_hint.within(other) or self.mask.within(other)

    def elements_upto(self, n):
        return [e for e in self.base_hint.elements_upto(n) if self.mask.member(e)]

    def rank_upto(self, n):
        return len(self.elements_upto(n))


class Union(SupportSet):
    """The elements of any of several sets: a combination's hint."""

    def __init__(self, hints):
        self.hints = list(hints)
        self.finite_flag = all(h.finite_flag for h in self.hints)

    def member(self, n):
        return any(h.member(n) for h in self.hints)

    def misses(self, row, cutoff):
        return all(h.misses(row, cutoff) for h in self.hints)

    def within(self, other):
        return all(h.within(other) for h in self.hints)

    def elements_upto(self, n):
        merged: set[int] = set()
        for h in self.hints:
            merged.update(h.elements_upto(n))
        return sorted(merged)

    def rank_upto(self, n):
        return len(self.elements_upto(n))


class DoublingSelection(SupportSet):
    """Deterministic choice of support points l_1' < l_2' < ... with
    l_m' >= 2**m: scan the support in increasing order, taking for each m
    the first element past the previous pick that reaches 2**m.  The picks
    form a lazy infinite index set, the support hint of prop28 and rem29
    and far tighter than the ambient set.  On the powers of two the picks
    are 2, 4, 8, ..."""

    def __init__(self, support: SupportSet):
        self.support = support
        self.sel: list[int] = []
        self._last_pos = 0

    def _select_next(self):
        threshold = 1 << (len(self.sel) + 1)
        pos = max(self._last_pos + 1, self.support.rank_upto(threshold - 1) + 1)
        value = self.support.nth(pos)
        self._last_pos = pos
        self.sel.append(value)

    def extend_to_value(self, x: int):
        while not self.sel or self.sel[-1] < x:
            self._select_next()

    # the picks increase strictly, so both bisect them
    def member(self, n):
        self.extend_to_value(n)
        return self.sel[bisect_left(self.sel, n)] == n

    def rank_upto(self, n):
        self.extend_to_value(n + 1)
        return bisect_right(self.sel, n)

    def nth(self, k):
        if k < 1:
            raise ValueError("nth is 1-based")
        while len(self.sel) < k:
            self._select_next()
        return self.sel[k - 1]

    # every pick is a point of the underlying support, so its rules carry over
    def misses(self, row, cutoff):
        return self.support.misses(row, cutoff)

    def within(self, other):
        return self.support.within(other)


def _integer(value):
    """A JSON integer field: an int, never a bool, a float or a string."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


# support kind -> its fields besides ``kind``
_SUPPORT_FIELDS = {"all": (), "powers-of-two": (), "dyadic-row": ("j",),
                   "arith": ("start", "step"), "explicit-finite": ("elems",)}


def support_from_spec(spec: dict) -> SupportSet:
    """Build a support set from its JSON spec, whose fields are integers; a
    key the kind does not have is an error."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"bad support spec: {spec!r}")
    kind = spec["kind"]
    fields = _SUPPORT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ParseError(f"unknown support kind {kind!r}")
    unknown = [key for key in spec if key != "kind" and key not in fields]
    if unknown:
        raise ParseError(f"support spec ({kind}) has no key {min(unknown, key=str)!r}")
    try:
        if kind == "all":
            return AllNaturals()
        if kind == "powers-of-two":
            return PowersOfTwo()
        if kind == "dyadic-row":
            return DyadicRow(_integer(spec["j"]))
        if kind == "arith":
            return Arith(_integer(spec["start"]), _integer(spec["step"]))
        # the one kind left: explicit-finite
        if not isinstance(spec["elems"], list):
            raise TypeError("elems is not a list")
        return ExplicitFinite(map(_integer, spec["elems"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad support spec {spec!r}: {exc}") from None
