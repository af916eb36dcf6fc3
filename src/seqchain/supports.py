"""Index sets over the naturals, given as (member, nth) oracle pairs.

``nth`` is 1-based: ``nth(1)`` is the smallest element.  Concrete sets
implement ``member`` and a counting oracle ``rank_upto`` (number of
elements <= n); ``nth`` is derived by a monotone search, so the two
access patterns stay consistent by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

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


class AllNaturals(SupportSet):
    def member(self, n):
        return n >= 0

    def rank_upto(self, n):
        return max(0, n + 1)

    def nth(self, k):
        if k < 1:
            raise ValueError("nth is 1-based")
        return k - 1

    def spec(self):
        return {"kind": "all"}


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


class DyadicRow(SupportSet):
    """Row j >= 1 of the dyadic partition: n with v2(n+1) = j-1.

    Row 1 is {0, 2, 4, ...}, row 2 is {1, 5, 9, ...}; the rows partition
    the naturals.
    """

    def __init__(self, j: int):
        if j < 1:
            raise ValueError("row index must be >= 1")
        self.j = j

    def member(self, n):
        if n < 0:
            return False
        m = n + 1
        return m % (1 << (self.j - 1)) == 0 and (m >> (self.j - 1)) % 2 == 1

    def rank_upto(self, n):
        if n < 0:
            return 0
        return ((n + 1) // (1 << (self.j - 1)) + 1) // 2

    def nth(self, k):
        if k < 1:
            raise ValueError("nth is 1-based")
        return (2 * k - 1) * (1 << (self.j - 1)) - 1

    def misses(self, row, cutoff):
        # the rows are pairwise disjoint
        return isinstance(row, DyadicRow) and row.j != self.j

    def spec(self):
        return {"kind": "dyadic-row", "j": self.j}


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

    def spec(self):
        return {"kind": "arith", "start": self.start, "step": self.step}


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


def _integer(value):
    """A JSON integer field: an int, never a bool, a float or a string."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def support_from_spec(spec: dict) -> SupportSet:
    """Build a support set from its JSON spec, whose fields are integers."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"bad support spec: {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "all":
            return AllNaturals()
        if kind == "powers-of-two":
            return PowersOfTwo()
        if kind == "dyadic-row":
            return DyadicRow(_integer(spec["j"]))
        if kind == "arith":
            return Arith(_integer(spec["start"]), _integer(spec["step"]))
        if kind == "explicit-finite":
            if not isinstance(spec["elems"], list):
                raise TypeError("elems is not a list")
            return ExplicitFinite(map(_integer, spec["elems"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad support spec {spec!r}: {exc}") from None
    raise ParseError(f"unknown support kind {kind!r}")
