"""The chain of sequence spaces: descriptors, order, and metric bounds.

The ten-member chain (for parameters 0 < a < b) is

    ainf < cap-lp:0 < lp:a < cap-lp:a < lp:b < cap-lp:b < c0 < linf < hd < cn0

ordered by strict inclusion.  Each member carries a translation-invariant
metric computable from coefficient data with certified tails:

* ``lp:p``     p >= 1: the p-norm of the difference; 0 < p < 1: the p-th
  power sum (both complete metrics on the space).
* ``c0``/``linf``: the sup metric.
* ``cap-lp:a``: a Frechet combination sum_n 2**-n q_n/(1+q_n) over the
  exponent schedule p_n = a + 1/n.
* ``hd``: sum_k 2**-k min(1, M_k) with M_k = sum_n |d_n| r_k**n and
  r_k = 1 - 1/(k+1).  M_k majorises the sup of the difference on the disc
  of radius r_k, so this metric dominates the compact-convergence metric;
  density statements made for it are the stronger ones.
* ``cn0``: sum_n 2**-n |d_n|/(1+|d_n|) (pointwise convergence).
* ``ainf``: diagnostic only; derivative sups are replaced by the
  coefficient majorant sum_n n!/(n-i)! |a_n|.

``metric_bound`` returns certified two-sided bounds.  Upper bounds are
minimised over a power-of-two ladder of effective budgets, which keeps
them monotone in the budget despite interval rounding in the heads.  The
rungs share one set of head sums: each |d_n| enclosure is computed once
per call, and each rung extends the previous rung's sums over the new
indices instead of summing again from zero.  The endpoints are exact
rationals, so the bounds equal those of rungs summed separately.  The
disc sums (the one disc-sum kernel, ``intervals.DiscSum``), ratio and
nested sums of the ``hd`` and ``cn0`` metrics are kept as integer
numerators over a known denominator and become a ``Fraction`` once per
read, so no summand pays for a gcd.

``metric_bounds`` walks the same ladder and yields the bound after each
rung.  A caller that asks only whether the distance is below r
(``distance_below``) stops at the first rung that settles it; the last
rungs cost the most.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, MissingTailOracle, UnknownSpace
from .intervals import Q0, Q1, DiscSum, PowSum, format_rational, parse_rational, pow_bounds
from .sequences import Sequence, combine, support_indices_upto, zero

_PARAM_TAGS = {"lp", "cap-lp"}
_PLAIN_TAGS = {"ainf", "c0", "linf", "hd", "cn0"}


@dataclass(frozen=True, order=False)
class SpaceId:
    tag: str
    param: Fraction | None = None

    def __post_init__(self):
        if self.tag in _PLAIN_TAGS:
            if self.param is not None:
                raise UnknownSpace(f"{self.tag} takes no parameter")
        elif self.tag == "lp":
            if self.param is None or self.param <= 0:
                raise UnknownSpace("lp requires a parameter > 0")
        elif self.tag == "cap-lp":
            if self.param is None or self.param < 0:
                raise UnknownSpace("cap-lp requires a parameter >= 0")
        else:
            raise UnknownSpace(f"unknown space tag {self.tag!r}")

    def __str__(self):
        if self.param is None:
            return self.tag
        return f"{self.tag}:{format_rational(self.param)}"

    def chain_key(self):
        if self.tag == "ainf":
            return (0, Q0, 0)
        if self.tag == "lp":
            return (1, self.param, 0)
        if self.tag == "cap-lp":
            return (1, self.param, 1)
        return (2 + ("c0", "linf", "hd", "cn0").index(self.tag), Q0, 0)


AINF = SpaceId("ainf")
C0 = SpaceId("c0")
LINF = SpaceId("linf")
HD = SpaceId("hd")
CN0 = SpaceId("cn0")


def lp(p) -> SpaceId:
    return SpaceId("lp", Fraction(p))


def cap_lp(a) -> SpaceId:
    return SpaceId("cap-lp", Fraction(a))


def parse_space(text: str) -> SpaceId:
    text = text.strip()
    if ":" in text:
        tag, _, raw = text.partition(":")
        if tag not in _PARAM_TAGS:
            raise UnknownSpace(f"space {tag!r} takes no parameter")
        return SpaceId(tag, parse_rational(raw))
    if text in _PLAIN_TAGS:
        return SpaceId(text)
    if text in _PARAM_TAGS:
        raise UnknownSpace(f"space {text!r} needs a parameter")
    raise UnknownSpace(f"unknown space {text!r}")


def strictly_included(x: SpaceId, y: SpaceId) -> bool:
    """True iff x precedes y in the chain order."""
    return x.chain_key() < y.chain_key()


def standard_chain(a=Fraction(1), b=Fraction(2)) -> list[SpaceId]:
    a, b = Fraction(a), Fraction(b)
    if not 0 < a < b:
        raise UnknownSpace("chain parameters must satisfy 0 < a < b")
    return [AINF, cap_lp(0), lp(a), cap_lp(a), lp(b), cap_lp(b), C0, LINF, HD, CN0]


def adjacent_pairs(a=Fraction(1), b=Fraction(2)) -> list[tuple[SpaceId, SpaceId]]:
    chain = standard_chain(a, b)
    return list(zip(chain, chain[1:]))


@dataclass(frozen=True)
class MetricBound:
    lower: Fraction
    upper: Fraction | None  # None = no finite bound at this budget

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("bound endpoints out of order")


# -- metric computation -----------------------------------------------------

_MIN_BUDGET = 16
_HEAD_GUARD = 16  # extra head precision, keeps head slack below tail slack


def _floor_num(num: int, den: int, bits: int) -> int:
    """floor(num/den * 2**bits): a numerator on the 2**-bits grid."""
    return (num << bits) // den


def _ceil_num(num: int, den: int, bits: int) -> int:
    """ceil(num/den * 2**bits): a numerator on the 2**-bits grid."""
    return -((-num << bits) // den)


def _floor_grid(x: Fraction, bits: int) -> Fraction:
    return Fraction(_floor_num(x.numerator, x.denominator, bits), 1 << bits)


def _ceil_grid(x: Fraction, bits: int) -> Fraction:
    return Fraction(_ceil_num(x.numerator, x.denominator, bits), 1 << bits)


def _budget_ladder(budget: int) -> list[int]:
    top = max(_MIN_BUDGET, budget)
    rungs = []
    n = _MIN_BUDGET
    while n <= top:
        rungs.append(n)
        n *= 2
    return rungs


class _Head:
    """The head of one ``metric_bound`` call: |d_n| enclosures and running sums.

    Each term enclosure is computed once, at ``prec + _HEAD_GUARD``.  Each
    head sum remembers its cutoff, and a later rung of the budget ladder
    extends it over the new indices only; the endpoints are exact
    rationals, so an extended sum equals the one restarted from zero.
    ``parts`` keeps the summands of the nested metrics (see ``_nested_sum``).
    The disc sums, the ratio sums, the power sums (``PowSum``) and ``parts``
    are integer numerators over a known denominator (L * v**m for a radius
    u/v, 2**hp, 2**(hp+1) plus exact summands, 2**(prec+guard)), normalised
    into a ``Fraction`` once per read; the falling sums add ``Fraction`` terms.
    The object lives for one call; cutoffs never decrease within it.
    """

    def __init__(self, diff: Sequence, prec: int):
        self.diff = diff
        self.hp = prec + _HEAD_GUARD
        self.parts: dict = {}
        self._support: list[int] = []
        self._support_upto = -1
        self._sq: dict = {}
        self._abs: dict = {}
        self._sums: dict = {}

    def support(self, lo: int, hi: int) -> list[int]:
        """Indices n with lo < n <= hi that can carry nonzero terms."""
        if hi > self._support_upto:
            self._support = sorted(support_indices_upto(self.diff, hi))
            self._support_upto = hi
        s = self._support
        return s[bisect_right(s, lo):bisect_right(s, hi)]

    def sq(self, n: int):
        """Exact bounds on |d_n|**2, or None when d_n is an exact zero."""
        if n not in self._sq:
            iv = self.diff.term(n, self.hp)
            self._sq[n] = None if iv.is_exact_zero else iv.abs_sq_bounds()
        return self._sq[n]

    def abs(self, n: int):
        """Bounds on |d_n| rounded outward at 2**-hp, or None for an exact zero."""
        if n not in self._abs:
            iv = self.diff.term(n, self.hp)
            self._abs[n] = None if iv.is_exact_zero else iv.abs_bounds(self.hp)
        return self._abs[n]

    def _entry(self, key, N: int, start):
        """[last cutoff, lo, hi] of the sums under ``key``, made from
        ``start()`` on first use; N may not fall below the last cutoff."""
        entry = self._sums.get(key)
        if entry is None:
            entry = self._sums[key] = [-1, *start()]
        if N < entry[0]:
            raise ValueError("a head sum cannot shrink below its last cutoff")
        return entry

    def _extend(self, key, N: int, indices, part, join=operator.add, start=lambda: (Q0, Q0)):
        """``join`` of part(n) over indices(-1, N), continued from the last cutoff."""
        entry = self._entry(key, N, start)
        cut, lo, hi = entry
        for n in indices(cut, N):
            bounds = part(n)
            if bounds is not None:
                lo = join(lo, bounds[0])
                hi = join(hi, bounds[1])
        entry[:] = N, lo, hi
        return lo, hi

    def power_sum(self, p: Fraction, N: int):
        """Bounds on sum_{n<=N} |d_n|**p, one ``PowSum`` per endpoint."""
        lo, hi = self._extend(
            ("lp", p), N, self.support, self.sq, PowSum.add,
            lambda: (PowSum(p / 2, self.hp), PowSum(p / 2, self.hp, upper=True)),
        )
        return lo.value, hi.value

    def max_abs(self, N: int):
        """Bounds on max_{n<=N} |d_n| (zero for an empty head)."""
        return self._extend("sup", N, self.support, self.abs, join=max)

    def ratio_sum(self, N: int):
        """Bounds on sum_{n<=N} 2**-n |d_n|/(1+|d_n|), each summand rounded
        outward onto the 2**-hp grid so the rationals cannot balloon.

        For |d_n| = p/q a summand is p/((q+p) 2**n), so its grid numerators
        are integer floors and ceilings; the sums are integers over 2**hp."""
        grid = self.hp

        def part(n):
            a = self.abs(n)
            if a is None:
                return None
            lo, hi = a
            return (
                _floor_num(lo.numerator, (lo.denominator + lo.numerator) << n, grid),
                _ceil_num(hi.numerator, (hi.denominator + hi.numerator) << n, grid),
            )

        lo, hi = self._extend(
            "cn0", N, lambda lo, hi: range(lo + 1, hi + 1), part, start=lambda: (0, 0)
        )
        return Fraction(lo, 1 << grid), Fraction(hi, 1 << grid)

    def disc_sum(self, r: Fraction, N: int):
        """Bounds on sum_{n<=N} |d_n| r**n, one ``DiscSum`` per endpoint."""
        cut, lo, hi = entry = self._entry(("hd", r), N, lambda: (DiscSum(r), DiscSum(r)))
        new = [(n, a) for n in self.support(cut, N) if (a := self.abs(n)) is not None]
        entry[0] = N  # each sum takes the new indices in one call
        lo.extend((n, a[0]) for n, a in new)
        hi.extend((n, a[1]) for n, a in new)
        return lo.value, hi.value

    def falling_sum(self, i: int, N: int):
        """Bounds on sum_{i<=n<=N} n!/(n-i)! |d_n|."""

        def part(n):
            a = None if n < i else self.abs(n)
            if a is None:
                return None
            f = _falling(n, i)
            return f * a[0], f * a[1]

        return self._extend(("ainf", i), N, self.support, part)


def _lp_power_sum(head: _Head, p: Fraction, N: int, prec: int):
    """Bounds on sum_{n<=N} |d_n|**p plus certified tail for the upper."""
    lo_sum, hi_sum = head.power_sum(p, N)
    tail = head.diff.tail_majorant(N, p, prec)
    if tail is None:
        raise MissingTailOracle(f"no l^{p} tail bound available")
    return lo_sum, hi_sum + tail


def _metric_once_lp(head: _Head, p: Fraction, N: int, prec: int):
    lo, hi = _lp_power_sum(head, p, N, prec)
    if p >= 1:
        return pow_bounds(lo, 1 / p, prec)[0], pow_bounds(hi, 1 / p, prec)[1]
    return lo, hi


def _metric_once_sup(head: _Head, N: int, prec: int):
    lo, hi = head.max_abs(N)
    tail = head.diff.sup_tail(N, prec)
    if tail is None:
        raise MissingTailOracle("no sup tail bound available")
    return lo, max(hi, tail)


def _bounded_ratio(x: Fraction) -> Fraction:
    return x / (1 + x)


def _metric_once_cn0(head: _Head, N: int, prec: int):
    cut = min(N, prec + 4)
    lo, hi = head.ratio_sum(cut)
    return lo, hi + Fraction(1, 1 << cut)


def _nested_sum(head: _Head, N: int, prec: int, summand):
    """sum_{k<=K} 2**-k * summand(k, inner cutoff), plus 2**-K for the rest.

    ``summand`` returns bounds in [0, 1]; each weighted summand is rounded
    outward onto the 2**-(prec+guard) grid and kept in ``head.parts`` as a
    pair of integer numerators over that grid, so a later rung reuses every
    summand whose inner cutoff has stopped growing."""
    grid = prec + _HEAD_GUARD
    K = min(N, max(_MIN_BUDGET, prec + 8))
    lo = hi = 0
    for k in range(1, K + 1):
        inner_budget = max(_MIN_BUDGET, min(N, 4096 // k))
        part = head.parts.get((k, inner_budget))
        if part is None:
            s_lo, s_hi = summand(k, inner_budget)
            part = head.parts[k, inner_budget] = (
                _floor_num(s_lo.numerator, s_lo.denominator << k, grid),
                _ceil_num(s_hi.numerator, s_hi.denominator << k, grid),
            )
        lo += part[0]
        hi += part[1]
    return Fraction(lo, 1 << grid), Fraction(hi, 1 << grid) + Fraction(1, 1 << K)


def _metric_once_cap(head: _Head, a0: Fraction, N: int, prec: int):
    def summand(n, inner_budget):
        p_n = a0 + Fraction(1, n)
        q_lo, q_hi = _lp_power_sum(head, p_n, inner_budget, prec)
        if p_n >= 1:
            q_lo = pow_bounds(q_lo, 1 / p_n, prec)[0]
            q_hi = pow_bounds(q_hi, 1 / p_n, prec)[1]
        return _bounded_ratio(q_lo), _bounded_ratio(q_hi)

    return _nested_sum(head, N, prec, summand)


def _metric_once_hd(head: _Head, N: int, prec: int):
    def summand(k, inner_budget):
        r_k = Fraction(k, k + 1)
        m_lo, m_hi = head.disc_sum(r_k, inner_budget)
        tail = head.diff.disc_tail(inner_budget, r_k, prec)
        if tail is None:
            raise MissingTailOracle("no disc tail bound available")
        return min(Q1, m_lo), min(Q1, m_hi + tail)

    return _nested_sum(head, N, prec, summand)


def _falling(n: int, i: int) -> int:
    out = 1
    for t in range(i):
        out *= n - t
    return out


def _metric_once_ainf(head: _Head, N: int, prec: int):
    K = min(N, max(8, prec + 4))
    lo = Q0
    hi = Q0
    for i in range(K + 1):
        w_lo, w_hi = head.falling_sum(i, N)
        poly = head.diff.poly_sup_tail(N, i + 2, prec)
        if poly is None:
            raise MissingTailOracle("no polynomial tail bound available")
        tail = poly * Fraction(1, max(1, N))  # sum_{n>N} n**-2 <= 1/N
        weight = Fraction(1, 1 << i)
        lo += _floor_grid(weight * _bounded_ratio(w_lo), prec + _HEAD_GUARD)
        hi += _ceil_grid(weight * _bounded_ratio(w_hi + tail), prec + _HEAD_GUARD)
    return lo, hi + Fraction(1, 1 << K)


def _metric_once(y: SpaceId, head: _Head, N: int, prec: int):
    if y.tag == "lp":
        return _metric_once_lp(head, y.param, N, prec)
    if y.tag in ("c0", "linf"):
        return _metric_once_sup(head, N, prec)
    if y.tag == "cn0":
        return _metric_once_cn0(head, N, prec)
    if y.tag == "cap-lp":
        return _metric_once_cap(head, y.param, N, prec)
    if y.tag == "hd":
        return _metric_once_hd(head, N, prec)
    if y.tag == "ainf":
        return _metric_once_ainf(head, N, prec)
    raise UnknownSpace(y.tag)


def metric_bounds(y: SpaceId, a: Sequence, b: Sequence, budget: int, prec: int):
    """Certified bounds on the distance between a and b in y's metric, rung
    by rung: after each rung of the budget ladder, ``(rung, bound)`` with the
    bound ``metric_bound`` returns when the ladder stops at that rung.

    The rungs share one head (``_Head``), so each rung only extends the head
    sums of the previous one."""
    ladder = _budget_ladder(budget)
    if a is b or a.spec_key() == b.spec_key():
        yield from ((rung, MetricBound(Q0, Q0)) for rung in ladder)
        return
    head = _Head(combine([1, -1], [a, b]), prec)
    best_lo = Q0
    best_hi = None
    for rung in ladder:
        lo, hi = _metric_once(y, head, rung, prec)
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
        lower = _floor_grid(best_lo, prec + 8)
        # an upper below the lower can only come from independent roundings: widen
        yield rung, MetricBound(lower, max(lower, _ceil_grid(best_hi, prec + 8)))


def metric_bound(y: SpaceId, a: Sequence, b: Sequence, budget: int, prec: int) -> MetricBound:
    """Certified bounds on the distance between a and b in y's metric: the
    best bound over every rung of the budget ladder."""
    *_, (_, bound) = metric_bounds(y, a, b, budget, prec)
    return bound


def distance_below(y: SpaceId, a: Sequence, b: Sequence, r: Fraction, budget: int,
                   prec: int) -> bool:
    """Whether ``metric_bound(y, a, b, budget, prec).upper < r``, decided at
    the first rung that settles it.  An upper bound below r says yes; a
    lower bound of at least r says no, since every later upper bound is at
    least the distance, hence at least that lower bound."""
    for _, bound in metric_bounds(y, a, b, budget, prec):
        if bound.upper is not None and bound.upper < r:
            return True
        if bound.lower >= r:
            return False
    return False


_BALL_MEMO: dict = {}


def _radius_bits(radius: Fraction) -> int:
    """Roughly -log2(radius), floored at zero."""
    return max(0, radius.denominator.bit_length() - radius.numerator.bit_length())


def ball_scale(y: SpaceId, seq: Sequence, radius: Fraction, budget: int, prec: int,
               max_halvings: int = 96) -> Fraction:
    """Smallest tried dyadic scalar c = 2**-m with certified d(c*seq, 0) < radius.

    Each halving is decided by ``distance_below``, at the first rung of its
    ladder that settles it.  Pure in its inputs; memoized on the sequence's
    serialized spec."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    # candidates are evaluated at a capped internal budget and precision:
    # a certified bound at any budget/precision is sound, the returned
    # scale re-verifies at the caller's settings, and the candidate scan
    # stays deterministic
    eval_budget = min(budget, 128)
    eval_prec = min(prec, max(32, 12 + _radius_bits(radius)))
    key = (str(y), seq.spec_key(), radius, eval_budget, eval_prec, max_halvings)
    if key in _BALL_MEMO:
        return _BALL_MEMO[key]
    origin = zero()
    for m in range(max_halvings + 1):
        c = Fraction(1, 1 << m)
        if distance_below(y, combine([c], [seq]), origin, radius, eval_budget, eval_prec):
            _BALL_MEMO[key] = c
            return c
    raise BudgetExceeded(f"no dyadic scale reached radius {radius} in {max_halvings} halvings")
