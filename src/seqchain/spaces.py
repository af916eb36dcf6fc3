"""The chain of sequence spaces: descriptors, order, and metric bounds.

The ten-member chain (for parameters 0 < a < b) is

    ainf < cap-lp:0 < lp:a < cap-lp:a < lp:b < cap-lp:b < c0 < linf < hd < cn0

ordered by strict inclusion.  Every member above ``ainf`` (the bottom,
never an outer space, with no metric) carries a translation-invariant
metric computable from coefficient data with certified tails, all but
cn0's read from the member's seminorm rows (``seminorm_rows``):

* ``lp:p``: one ``lp`` row, sum |d_n|**p, rooted to the p-norm for p >= 1
  (both complete metrics on the space).
* ``cap-lp:a``: ``lp`` rows q_k at p_k = a + 1/k in the Frechet sum
  sum_k 2**-k q_k/(1+q_k).
* ``c0``/``linf``: one ``sup`` row, the sup metric.
* ``hd``: ``disc`` rows M_k = sum_n |d_n| r_k**n, r_k = k/(k+1), in
  sum_k 2**-k min(1, M_k).  M_k majorises the sup of the difference on the
  disc of radius r_k, so this metric dominates the compact-convergence
  metric; density statements made for it are the stronger ones.
* ``cn0``: sum_n 2**-n |d_n|/(1+|d_n|) (pointwise convergence).

``metric_bound`` returns certified two-sided bounds.  Upper bounds are
minimised over a power-of-two ladder of effective budgets, which keeps
them monotone in the budget despite interval rounding in the heads.  Each
row kind names its tail oracle in one place, ``row_tail``: the metrics
join it to a head sum (``_metric_row``), and the in-certificates
(``diagnose``) read it at N = -1 alone, where it bounds the whole row.
Every head sum is read from one ``_Head``: one list of the nonzero terms'
``modulus_bounds``, bounds on |a_n| taken from it by the one rule
``intervals.abs_end``, and sums that extend over a ``bisect`` slice per
rung, radius or exponent instead of summing again from zero.  The ``hd``
disc sums (``intervals.DiscSum``) and the disc tails stay unreduced
integer pairs that the nested sum floors onto its grid, so no summand
pays for a gcd.

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
from functools import reduce

from .errors import BudgetExceeded, MissingTailOracle, UnknownSpace, UnsupportedSpace
from .intervals import Q0, DiscSum, PowSum, abs_ends, pow_bounds
from .intervals import format_rational, parse_rational
from .sequences import Sequence, combine, zero

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
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
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
    """The head of one sequence at precision hp, for one ``metric_bound`` call
    (of a difference).

    It keeps one list, increasing in n, of the nonzero terms' exact
    ``modulus_bounds`` ends, extended as the cutoff grows.  A sum reads the
    ends, or a view of them made once per term (``nonzero``): their |a_n|
    bounds (``abs_ends``).  A sum gives two bounds, (lower, upper).  Each
    sum, keyed by integers, extends from its last cutoff over the ``bisect``
    slice past it, which exact endpoints make equal to a sum restarted from
    zero.  Ratio and power sums (``PowSum``) and ``parts`` (``_nested_sum``)
    are integer numerators over powers of two, disc sums unreduced pairs;
    cutoffs never decrease.
    """

    def __init__(self, seq: Sequence, hp: int):
        self.seq, self.hp = seq, hp
        self.parts: dict = {}
        self._cut, self._indices = -1, []
        self._views: dict = {None: []}  # view -> [(n, view(ends, hp))]; None: the ends
        self._sums: dict = {}

    def nonzero(self, view, lo: int, hi: int) -> list:
        """(n, view(ends, hp)) for each nonzero a_n with lo < n <= hi, increasing
        in n, where ends is the term's ``modulus_bounds``; for view None, the ends."""
        ends = self._views[None]
        if hi > self._cut:
            support = sorted(self.seq.support_hint.elements_upto(hi))
            for n in support[bisect_right(support, self._cut):]:
                iv = self.seq.term(n, self.hp)
                if not iv.is_exact_zero:
                    self._indices.append(n)
                    ends.append((n, iv.modulus_bounds()))
            self._cut = hi
        made, j = self._views.setdefault(view, []), bisect_right(self._indices, hi)
        if len(made) < j:  # never for the ends, their own view
            made.extend([(n, view(e, self.hp)) for n, e in ends[len(made):j]])
        return made[bisect_right(self._indices, lo):j]

    def _entry(self, key, N: int, start):
        """[last cutoff, *sums] under ``key``, the sums made by ``start()``
        on first use; N may not fall below the last cutoff."""
        entry = self._sums.get(key)
        if entry is None:
            entry = self._sums[key] = [-1, *start()]
        if N < entry[0]:
            raise ValueError("a head sum cannot shrink below its last cutoff")
        return entry

    def _extend(self, key, N: int, view, part=None, join=operator.add, start=lambda: (Q0, Q0),
                fold=None):
        """``join`` of the view's bounds, or of part(n, bounds), one sum per
        end, over the nonzero head up to N, continued from the last cutoff;
        ``fold(total, bounds)`` takes each sum's new bounds at once instead."""
        entry = self._entry(key, N, start)
        new = self.nonzero(view, entry[0], N)
        if part is not None:
            new = [(n, part(n, bounds)) for n, bounds in new]
        fold = fold or (lambda total, bounds: reduce(join, bounds, total))
        sums = [fold(total, [b[i] for _, b in new]) for i, total in enumerate(entry[1:])]
        entry[:] = N, *sums
        return tuple(sums)

    def power_sum(self, p: Fraction, N: int):
        """Bounds on sum_{n<=N} |a_n|**p, one ``PowSum`` per end, each
        extended by the new slice of ends in one call."""
        sums = self._extend(("lp", p.numerator, p.denominator), N, None, fold=PowSum.extend,
                            start=lambda: (PowSum(p, self.hp), PowSum(p, self.hp, True)))
        return tuple(total.value for total in sums)

    def max_abs(self, N: int):
        """Bounds on max_{n<=N} |a_n| (zero for an empty head)."""
        return self._extend("sup", N, abs_ends, join=max)

    def ratio_sum(self, N: int):
        """Bounds on sum_{n<=N} 2**-n |a_n|/(1+|a_n|), each summand rounded
        outward onto the 2**-hp grid so the rationals cannot balloon: for
        |a_n| = p/q it is p/((q+p) 2**n), floored and ceiled as integers."""
        grid = self.hp

        def part(n, a):
            lo, hi = a
            return (
                _floor_num(lo.numerator, (lo.denominator + lo.numerator) << n, grid),
                _ceil_num(hi.numerator, (hi.denominator + hi.numerator) << n, grid),
            )

        lo, hi = self._extend("cn0", N, abs_ends, part, start=lambda: (0, 0))
        return Fraction(lo, 1 << grid), Fraction(hi, 1 << grid)

    def disc_sum(self, r: Fraction, N: int):
        """Bounds on sum_{n<=N} |a_n| r**n as unreduced integer pairs: one
        ``DiscSum`` of the points' moduli for both ends, one per end of the
        rest."""
        cut, points, *wide = entry = self._entry(("hd", r.numerator, r.denominator), N,
                                                 lambda: [DiscSum(r) for _ in range(3)])
        new = self.nonzero(abs_ends, cut, N)
        entry[0] = N  # each sum takes the new indices in one call
        points.extend((n, a[0]) for n, a in new if a[0] is a[1])
        wide[0].extend((n, a[0]) for n, a in new if a[0] is not a[1])
        wide[1].extend((n, a[1]) for n, a in new if a[0] is not a[1])
        p_num, p_den = points.pair
        return tuple((p_num * d + w * p_den, p_den * d) for w, d in (total.pair for total in wide))


# -- seminorm rows ------------------------------------------------------------


def seminorm_rows(y: SpaceId):
    """y's seminorm rows: (row kind, k -> the parameter of row k >= 1,
    whether the metric is a Frechet sum over rows k = 1, 2, ...); the
    module docstring lists them.  ``cn0`` has its own metric, ``ainf`` none."""
    if y.tag == "lp":
        return "lp", lambda k: y.param, False
    if y.tag == "cap-lp":
        return "lp", lambda k: y.param + Fraction(1, k), True
    if y.tag in ("c0", "linf"):
        return "sup", lambda k: None, False
    if y.tag == "hd":
        return "disc", lambda k: Fraction(k, k + 1), True
    raise UnsupportedSpace(f"no seminorm rows for {y}")


def row_tail(seq: Sequence, kind: str, param, N: int, prec: int):
    """The tail oracle's bound past N on one seminorm row: on sum |a_n|**p
    (``lp``), sup |a_n| (``sup``) or sum |a_n| r**n (``disc``, an unreduced
    integer pair); None when the oracle has no answer."""
    if kind == "sup":
        return seq.sup_tail(N, prec)
    return (seq.tail_majorant if kind == "lp" else seq.disc_tail)(N, param, prec)


def _metric_row(head: _Head, kind: str, param, N: int, prec: int):
    """Bounds on one row's seminorm: the head's up to N, and ``row_tail``
    past N added to the upper (as unreduced integer pairs for ``disc``, a
    max for ``sup``), with no head summed when it has no answer; an ``lp``
    row's power sum is rooted to its 1/p-th power for p >= 1."""
    tail = row_tail(head.seq, kind, param, N, prec)
    if tail is None:
        raise MissingTailOracle(f"no {f'l^{param}' if kind == 'lp' else kind} tail bound available")
    if kind == "sup":
        lo, hi = head.max_abs(N)
        return lo, max(hi, tail)
    if kind == "disc":
        lo, (num, den) = head.disc_sum(param, N)
        return lo, (num * tail[1] + tail[0] * den, den * tail[1])
    lo, hi = head.power_sum(param, N)
    if param >= 1:
        return pow_bounds(lo, 1 / param, prec)[0], pow_bounds(hi + tail, 1 / param, prec)[1]
    return lo, hi + tail


def _nested_sum(head: _Head, N: int, prec: int, summand):
    """sum_{k<=K} 2**-k * summand(k, inner cutoff), plus 2**-K for the rest.

    ``summand`` returns two integer pairs (num, den), den > 0, not reduced,
    with values num/den in [0, 1]; each weighted summand is rounded outward
    onto the 2**-(prec+guard) grid and kept in ``head.parts`` as a pair of
    integer numerators over that grid, so a later rung reuses every summand
    whose inner cutoff has stopped growing."""
    grid = prec + _HEAD_GUARD
    K = min(N, max(_MIN_BUDGET, prec + 8))
    lo = hi = 0
    for k in range(1, K + 1):
        inner_budget = max(_MIN_BUDGET, min(N, 4096 // k))
        part = head.parts.get((k, inner_budget))
        if part is None:
            (lo_num, lo_den), (hi_num, hi_den) = summand(k, inner_budget)
            part = head.parts[k, inner_budget] = (
                _floor_num(lo_num, lo_den << k, grid),
                _ceil_num(hi_num, hi_den << k, grid),
            )
        lo += part[0]
        hi += part[1]
    return Fraction(lo, 1 << grid), Fraction(hi, 1 << grid) + Fraction(1, 1 << K)


def _metric_once(y: SpaceId, head: _Head, N: int, prec: int):
    """Bounds on y's distance at cutoff N: cn0's ratio sum, y's one row, or
    the nested sum over its rows of t/(1+t) (``lp``) or min(1, t) (``disc``)."""
    if y.tag == "cn0":
        cut = min(N, prec + 4)
        lo, hi = head.ratio_sum(cut)
        return lo, hi + Fraction(1, 1 << cut)
    kind, param, nested = seminorm_rows(y)
    if not nested:
        return _metric_row(head, kind, param(1), N, prec)

    def summand(k, inner_budget):
        lo, hi = _metric_row(head, kind, param(k), inner_budget, prec)
        if kind == "lp":  # t/(1+t) as the pair (num, num + den)
            return tuple((q.numerator, q.numerator + q.denominator) for q in (lo, hi))
        return tuple(m if m[0] < m[1] else (1, 1) for m in (lo, hi))  # min(1, t)

    return _nested_sum(head, N, prec, summand)


def metric_bounds(y: SpaceId, a: Sequence, b: Sequence, budget: int, prec: int):
    """Certified bounds on the distance between a and b in y's metric, rung
    by rung: after each rung of the budget ladder, ``(rung, bound)`` with the
    bound ``metric_bound`` returns when the ladder stops at that rung.

    The rungs share one head (``_Head``), so each rung only extends the head
    sums of the previous one."""
    ladder = _budget_ladder(budget)
    if y.tag != "cn0":
        seminorm_rows(y)  # a space without a metric raises, identical sequences too
    if a is b or a.spec_key() == b.spec_key():
        yield from ((rung, MetricBound(Q0, Q0)) for rung in ladder)
        return
    head = _Head(combine([1, -1], [a, b]), prec + _HEAD_GUARD)
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
        if bound.upper < r:
            return True
        if bound.lower >= r:
            return False
    return False


_MAX_HALVINGS = 96  # scales 2**-m tried by ball_scale, m = 0 .. _MAX_HALVINGS


def _radius_bits(radius: Fraction) -> int:
    """Roughly -log2(radius), floored at zero."""
    return max(0, radius.denominator.bit_length() - radius.numerator.bit_length())


def ball_scale(y: SpaceId, seq: Sequence, radius: Fraction, budget: int, prec: int) -> Fraction:
    """Largest tried dyadic scalar c = 2**-m with certified d(c*seq, 0) <
    radius: m runs up from 0, and the first c that certifies is returned.

    Each halving is decided by ``distance_below``, at the first rung of its
    ladder that settles it.  Pure in its inputs."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    # candidates are evaluated at a capped internal budget and precision: a
    # bound certified at the capped budget and precision is still a
    # certified bound, and the candidate scan stays deterministic
    eval_budget = min(budget, 128)
    eval_prec = min(prec, max(32, 12 + _radius_bits(radius)))
    origin = zero()
    for m in range(_MAX_HALVINGS + 1):
        c = Fraction(1, 1 << m)
        if distance_below(y, combine([c], [seq]), origin, radius, eval_budget, eval_prec):
            return c
    raise BudgetExceeded(f"no dyadic scale reached radius {radius} in {_MAX_HALVINGS} halvings")
