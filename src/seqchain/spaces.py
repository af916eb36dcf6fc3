"""The chain of sequence spaces: descriptors, order, and metric bounds.

The ten-member chain (for parameters 0 < a < b) is

    ainf < cap-lp:0 < lp:a < cap-lp:a < lp:b < cap-lp:b < c0 < linf < hd < cn0

ordered by strict inclusion.  Every member above ``ainf`` (the bottom,
never an outer space, with no metric) carries a translation-invariant
metric computable from coefficient data with certified tails, all but
cn0's read from the member's seminorm rows (``seminorm_rows``).  Each row
kind is homogeneous, of the degree in brackets: row(c d) = |c|**deg row(d).

* ``lp:p``: one ``lp`` row [p], sum |d_n|**p, rooted to the p-norm for
  p >= 1 (both complete metrics on the space).
* ``cap-lp:a``: ``lp`` rows q_k [p_k] at p_k = a + 1/k in the Frechet sum
  sum_k 2**-k q_k/(1+q_k).
* ``c0``/``linf``: one ``sup`` row [1], the sup metric.
* ``hd``: ``disc`` rows M_k [1] = sum_n |d_n| r_k**n, r_k = k/(k+1), in
  sum_k 2**-k min(1, M_k).  M_k majorises the sup of the difference on the
  disc of radius r_k, so this metric dominates the compact-convergence
  metric; density statements made for it are the stronger ones.
* ``cn0``: sum_n 2**-n |d_n|/(1+|d_n|) (pointwise convergence).

A space keeps its rows, outside its fields, and each row's parameter once
made from integers: an in-certificate's build, its check and every metric
walk read one ``Fraction`` per row.  A plain tag parses to ``AINF``, ``C0``, ...

``metric_bound`` returns certified two-sided bounds, minimised over a
power-of-two ladder of budgets (monotone in the budget despite rounding);
``metric_bounds`` yields the bound after each rung, and ``_upper_below``
stops a walk at the first rung that settles whether its upper is below a
radius (``ball_bound``'s early decision).  Each row kind names its tail
oracle in ``row_tail``: a metric joins it to a head sum (``_metric_row``) or
a truncation's residue (``_Residue``), an in-certificate reads it at N = -1.

A walk reads the normal form of a - b (``sequences.normal_form``): an empty
one is distance 0, one part c*s is read from s's own head with each row
scaled outward by |c|**deg (cn0 scales each |a_n|), and more parts from
their combination's head, c = 1.  ``ball_scale`` bounds every 2**-m from
one head so; the bound falls with m, so m gallops and then bisects.  Every
head sum is read from one ``_Head``: one list of the nonzero terms'
``modulus_bounds``, bounds on |a_n| by ``intervals.abs_end``, and sums
extended over a ``bisect`` slice per rung, radius or exponent; ``hd`` disc
sums and tails stay unreduced integer pairs, floored onto the grid.

A rung's raw bounds are a pure function of (space, node, prec, c, rung), so
``metric_bounds`` keeps them on the node it reads (``Sequence.kept``), as the
node keeps its terms: a later walk on the same node, such as a dense-family
element's witness row, reads the rungs it finds and computes the rest on
its own fresh head.  ``ball_bound`` reads no memo: it shares one head among
its scales, and ``generic._row_element`` caches its answers per row.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cache, reduce

from .errors import BudgetExceeded, MissingTailOracle, UnknownSpace, UnsupportedSpace
from .intervals import Q0, Q1, DiscSum, Frozen, PowSum, _neg_log2_upper, abs_ends, pow_bounds
from .intervals import format_rational, parse_rational, setters
from .sequences import Sequence, combine, normal_form

_PARAM_TAGS = {"lp", "cap-lp"}


class SpaceId(Frozen):
    _fields = ("tag", "param")
    __slots__ = (*_fields, "_rows")  # seminorm_rows(self), once made: outside the fields

    def __init__(self, tag: str, param: Fraction | None = None):
        if tag in ("ainf", "c0", "linf", "hd", "cn0"):
            if param is not None:
                raise UnknownSpace(f"{tag} takes no parameter")
        elif tag == "lp":
            if param is None or param <= 0:
                raise UnknownSpace("lp requires a parameter > 0")
        elif tag == "cap-lp":
            if param is None or param < 0:
                raise UnknownSpace("cap-lp requires a parameter >= 0")
        else:
            raise UnknownSpace(f"unknown space tag {tag!r}")
        _set_tag(self, tag)
        _set_param(self, param)

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


_set_tag, _set_param = setters(SpaceId)
AINF = SpaceId("ainf")
C0 = SpaceId("c0")
LINF = SpaceId("linf")
HD = SpaceId("hd")
CN0 = SpaceId("cn0")
_PLAIN_SPACES = {space.tag: space for space in (AINF, C0, LINF, HD, CN0)}


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
    if text in _PLAIN_SPACES:
        return _PLAIN_SPACES[text]
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


class MetricBound(Frozen):
    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction):
        if lower > upper:
            raise ValueError("bound endpoints out of order")
        _set_lower(self, lower)
        _set_upper(self, upper)


_set_lower, _set_upper = setters(MetricBound)


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
    """16, 32, 64, ... up to max(16, budget)."""
    return [_MIN_BUDGET << i for i in range((max(budget, _MIN_BUDGET) // _MIN_BUDGET).bit_length())]


class _Head:
    """The head of one sequence at precision hp, for one ``metric_bounds`` or
    ``ball_scale`` call: of the normal form's one part, or of the combination
    of its parts.

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
        # parts: c -> that scalar's nested summands; rows: each row's unscaled bounds
        self.parts, self.rows, self._powers = {}, {}, {}
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

    def power(self, c, e: Fraction):
        """Outward bounds on |c|**e, c = (re, im), made once: (1, 1) for |c| = 1, else
        hp bits below the value's leading bit, so the upper end falls as |c| halves.
        Kept under integers, as hashing a ``Fraction`` costs a modular inverse."""
        re, im = c
        key = re.numerator, re.denominator, im.numerator, im.denominator, e.numerator, e.denominator
        if key not in self._powers:
            q, e = (re * re + im * im, e / 2) if im else (abs(re), e)
            bits = self.hp + _neg_log2_upper(q, e.numerator, e.denominator)
            self._powers[key] = (Q1, Q1) if q == 1 else pow_bounds(q, e, bits)
        return self._powers[key]

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

    def ratio_sum(self, N: int, c=(Q1, Q0)):
        """Bounds on sum_{n<=N} 2**-n |c a_n|/(1+|c a_n|), each summand rounded
        outward onto the 2**-hp grid so the rationals cannot balloon: for
        |c a_n| = p/q it is p/((q+p) 2**n), floored and ceiled as integers."""
        grid, (w_lo, w_hi) = self.hp, self.power(c, Q1)

        def part(n, a):
            lo, hi = a if w_lo is Q1 else (a[0] * w_lo, a[1] * w_hi)
            return (
                _floor_num(lo.numerator, (lo.denominator + lo.numerator) << n, grid),
                _ceil_num(hi.numerator, (hi.denominator + hi.numerator) << n, grid),
            )

        lo, hi = self._extend(("cn0", c), N, abs_ends, part, start=lambda: (0, 0))
        return Fraction(lo, 1 << grid), Fraction(hi, 1 << grid)

    def disc_sum(self, r: Fraction, N: int):
        """Bounds on sum_{n<=N} |a_n| r**n as unreduced integer pairs: one
        ``DiscSum`` of the points' moduli for both ends, one per end of the
        rest.  Each sum takes its new terms in one call, and a sum that gets
        none is not called."""
        cut, points, *wide = entry = self._entry(("hd", r.numerator, r.denominator), N,
                                                 lambda: [DiscSum(r) for _ in range(3)])
        entry[0], new_points, new_wide = N, [], []
        for n, a in self.nonzero(abs_ends, cut, N):
            (new_points if a[0] is a[1] else new_wide).append((n, a))
        if new_points:
            points.extend((n, a[0]) for n, a in new_points)
        if new_wide:
            wide[0].extend((n, a[0]) for n, a in new_wide)
            wide[1].extend((n, a[1]) for n, a in new_wide)
        p_num, p_den = points.pair
        return tuple((p_num * d + w * p_den, p_den * d) for w, d in (total.pair for total in wide))


class _Residue(_Head):
    """The head of t - x, x within e of t at count points: sums from e, rows cut at N."""

    def power_sum(self, p: Fraction, N: int):
        return Q0, self.count * self.power((self.e, Q0), p)[1]

    def max_abs(self, N: int):
        return Q0, self.e

    def ratio_sum(self, N: int, c=(Q1, Q0)):
        return Q0, 2 * self.e  # sum_n 2**-n e

    def disc_sum(self, r: Fraction, N: int):
        bound = self.e / (1 - r)  # sum_n e r**n
        return (0, 1), (bound.numerator, bound.denominator)


# -- seminorm rows ------------------------------------------------------------


def seminorm_rows(y: SpaceId):
    """y's seminorm rows: (row kind, k -> the parameter of row k >= 1,
    whether the metric is a Frechet sum over rows k = 1, 2, ...); the
    module docstring lists them and their degrees, and how y keeps them.
    ``cn0`` has its own metric, ``ainf`` none."""
    rows = getattr(y, "_rows", None)
    if rows is None:
        if y.tag == "lp":
            rows = "lp", lambda k, p=y.param: p, False
        elif y.tag == "cap-lp":  # a/b + 1/k
            a, b = y.param.as_integer_ratio()
            rows = "lp", cache(lambda k: Fraction(a * k + b, b * k)), True
        elif y.tag in ("c0", "linf"):
            rows = "sup", lambda k: None, False
        elif y.tag == "hd":
            rows = "disc", cache(lambda k: Fraction(k, k + 1)), True
        else:
            raise UnsupportedSpace(f"no seminorm rows for {y}")
        SpaceId._rows.__set__(y, rows)
    return rows


def row_tail(seq: Sequence, kind: str, param, N: int, prec: int):
    """The tail oracle's bound past N on one seminorm row: on sum |a_n|**p
    (``lp``), sup |a_n| (``sup``) or sum |a_n| r**n (``disc``, an unreduced
    integer pair); None when the oracle has no answer."""
    if kind == "sup":
        return seq.sup_tail(N, prec)
    return (seq.tail_majorant if kind == "lp" else seq.disc_tail)(N, param, prec)


def _metric_row(head: _Head, kind: str, param, N: int, prec: int, c=(Q1, Q0)):
    """Bounds on one row's seminorm of c * head.seq: the head's up to N, and
    ``row_tail`` past N added to the upper (as unreduced integer pairs for
    ``disc``, a max for ``sup``), with no head summed when it has no answer,
    kept in ``head.rows``; times |c| to the row's degree, rooted for p >= 1."""
    key = (kind, N) if param is None else (kind, N, param.numerator, param.denominator)
    if key not in head.rows:
        tail = row_tail(head.seq, kind, param, N, prec)
        if tail is None:
            what = f"l^{param}" if kind == "lp" else kind
            raise MissingTailOracle(f"no {what} tail bound available")
        if kind == "disc":
            lo, (num, den) = head.disc_sum(param, N)
            head.rows[key] = lo, (num * tail[1] + tail[0] * den, den * tail[1])
        else:
            lo, hi = head.max_abs(N) if kind == "sup" else head.power_sum(param, N)
            head.rows[key] = lo, max(hi, tail) if kind == "sup" else hi + tail
    (lo, hi), (w_lo, w_hi) = head.rows[key], head.power(c, param if kind == "lp" else Q1)
    if w_lo is not Q1:
        lo, hi = ((x[0] * w.numerator, x[1] * w.denominator) if kind == "disc" else x * w
                  for x, w in ((lo, w_lo), (hi, w_hi)))
    if kind == "lp" and param >= 1:
        return pow_bounds(lo, 1 / param, prec)[0], pow_bounds(hi, 1 / param, prec)[1]
    return lo, hi


def _remainder_bits(y: SpaceId | None, N: int, prec: int) -> int:
    """K: at cutoff N, y's bound adds 2**-K at every scale for cn0's terms, or
    (y None too) for a Frechet sum's rows, past K."""
    return min(N, prec + 4) if y and y.tag == "cn0" else min(N, max(_MIN_BUDGET, prec + 8))


def _nested_sum(head: _Head, N: int, prec: int, summand, c=(Q1, Q0)):
    """sum_{k<=K} 2**-k * summand(k, inner cutoff), plus 2**-K for the rest.

    ``summand`` returns two integer pairs (num, den), den > 0, not reduced,
    with values num/den in [0, 1]; each weighted summand is rounded outward
    onto the 2**-(prec+guard) grid and kept in ``head.parts`` under its
    scalar c, as a pair of integer numerators over that grid, so a later
    rung reuses every summand whose inner cutoff has stopped growing."""
    grid, parts = prec + _HEAD_GUARD, head.parts.setdefault(c, {})
    K = _remainder_bits(None, N, prec)
    lo = hi = 0
    for k in range(1, K + 1):
        inner_budget = N if isinstance(head, _Residue) else max(_MIN_BUDGET, min(N, 4096 // k))
        part = parts.get((k, inner_budget))
        if part is None:
            (lo_num, lo_den), (hi_num, hi_den) = summand(k, inner_budget)
            part = parts[k, inner_budget] = (
                _floor_num(lo_num, lo_den << k, grid),
                _ceil_num(hi_num, hi_den << k, grid),
            )
        lo += part[0]
        hi += part[1]
    return Fraction(lo, 1 << grid), Fraction(hi, 1 << grid) + Fraction(1, 1 << K)


def _metric_once(y: SpaceId, head: _Head, N: int, prec: int, c=(Q1, Q0)):
    """Bounds on y's distance of c * head.seq from 0 at cutoff N: cn0's ratio
    sum, y's one row, or the nested sum over its rows of t/(1+t) (``lp``)
    or min(1, t) (``disc``)."""
    if y.tag == "cn0":
        cut = _remainder_bits(y, N, prec)
        lo, hi = head.ratio_sum(cut, c)
        return lo, hi + Fraction(1, 1 << cut)
    kind, param, nested = seminorm_rows(y)
    if not nested:
        return _metric_row(head, kind, param(1), N, prec, c)

    def summand(k, inner_budget):
        lo, hi = _metric_row(head, kind, param(k), inner_budget, prec, c)
        if kind == "lp":  # t/(1+t) as the pair (num, num + den)
            return tuple((q.numerator, q.numerator + q.denominator) for q in (lo, hi))
        return tuple(m if m[0] < m[1] else (1, 1) for m in (lo, hi))  # min(1, t)

    return _nested_sum(head, N, prec, summand, c)


def _normal_head(y: SpaceId, terms, prec: int):
    """(head, c) of the terms' ``normal_form``: its one part's own head and
    coefficient, or its parts' combination's and 1; None if it is empty."""
    if y.tag != "cn0":
        seminorm_rows(y)  # a space without a metric raises, a zero sum too
    parts = list(normal_form(terms).values())
    if not parts:
        return None
    c, seq = parts[0] if len(parts) == 1 else ((Q1, Q0), combine(*zip(*parts)))
    return _Head(seq, prec + _HEAD_GUARD), c


def truncation_bound(y: SpaceId, seq: Sequence, e: Fraction, count: int, N: int, prec: int):
    """Upper bound on d_y(seq, x), x within e of seq at count points to N, 0 past."""
    head = _Residue(seq, prec + _HEAD_GUARD)
    head.e, head.count = e, count
    return _ceil_grid(_metric_once(y, head, N, prec)[1], prec + 8)


def _walk(y: SpaceId, normal, ladder: list[int], prec: int, rungs: dict):
    """(rung, best bounds so far) on y's distance of c * head.seq from 0 after
    each rung, normal = (head, c); 0 at every rung for normal None.  The raw
    bounds of a rung found in ``rungs`` are read, the others computed on the
    head and kept there: a head first asked at rung N only extends its sums,
    as a sum extended from a cutoff equals one restarted from zero."""
    if normal is None:
        yield from ((rung, MetricBound(Q0, Q0)) for rung in ladder)
        return
    (head, c), best_lo, best_hi = normal, Q0, None
    for rung in ladder:
        if rung not in rungs:
            rungs[rung] = _metric_once(y, head, rung, prec, c)
        lo, hi = rungs[rung]
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
        lower = _floor_grid(best_lo, prec + 8)
        # an upper below the lower can only come from independent roundings: widen
        yield rung, MetricBound(lower, max(lower, _ceil_grid(best_hi, prec + 8)))


def metric_bounds(y: SpaceId, a: Sequence, b: Sequence, budget: int, prec: int):
    """Certified bounds on the distance between a and b in y's metric, rung
    by rung: after each rung of the budget ladder, ``(rung, bound)`` with the
    bound ``metric_bound`` returns when the ladder stops at that rung.

    The rungs share one head of a - b's normal form (``_normal_head``), each
    extending the head sums of the last, and the head's node keeps each
    rung's raw bounds under (y, prec, c) for later walks, rung -> bounds; an
    empty normal form is 0."""
    normal = _normal_head(y, [(Q1, Q0, a), (-Q1, Q0, b)], prec)
    rungs = {} if normal is None else normal[0].seq.kept(("rungs", y, prec, normal[1]), dict)
    yield from _walk(y, normal, _budget_ladder(budget), prec, rungs)


def metric_bound(y: SpaceId, a: Sequence, b: Sequence, budget: int, prec: int) -> MetricBound:
    """Certified bounds on the distance between a and b in y's metric: the
    best bound over every rung of the budget ladder."""
    *_, (_, bound) = metric_bounds(y, a, b, budget, prec)
    return bound


def _upper_below(walk, r: Fraction) -> Fraction | None:
    """The upper below r at the rung that settles a walk's last upper below r, or None."""
    b = next((b for _, b in walk if b.upper < r or b.lower >= r), None)
    return b.upper if b is not None and b.upper < r else None


_MAX_HALVINGS = 96  # scales 2**-m tried by ball_scale, m = 0 .. _MAX_HALVINGS


def _radius_bits(radius: Fraction) -> int:
    """Roughly -log2(radius), floored at zero."""
    return max(0, radius.denominator.bit_length() - radius.numerator.bit_length())


def ball_scale(y: SpaceId, seq: Sequence, radius: Fraction, budget: int, prec: int) -> Fraction:
    """The scale that ``ball_bound`` finds."""
    return ball_bound(y, seq, radius, budget, prec)[0]


def ball_bound(y: SpaceId, seq: Sequence, radius: Fraction, budget: int, prec: int) -> tuple:
    """The first c = 2**-m, m <= ``_MAX_HALVINGS``, with certified d(c*seq, 0)
    < radius, and that upper, each from one head of seq with rows scaled by c
    and decided at its first settling rung.  The bound falls with m, so m
    gallops (0, 1, 2, 4, ...) and bisects back; none is tried if the remainder
    it adds at every scale is at least the radius.  Pure in its inputs."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    # a capped budget and precision still certify, and keep the search deterministic
    eval_budget = min(budget, 128)
    eval_prec = min(prec, max(32, 12 + _radius_bits(radius)))
    ladder, normal = _budget_ladder(eval_budget), _normal_head(y, [(Q1, Q0, seq)], eval_prec)
    if normal is None:
        return Q1, Q0
    K = _remainder_bits(y, ladder[-1], eval_prec)
    if (y.tag == "cn0" or seminorm_rows(y)[2]) and Fraction(1, 1 << K) >= radius:
        cut = f"--budget {budget}" if K == ladder[-1] else f"--prec {prec}"
        raise BudgetExceeded(f"no dyadic scale can reach radius {radius} in {y}: its bound adds "
                             f"2**-{K} at every scale, past the cut {K} that {cut} sets")
    head, (re, im) = normal

    def upper(m):  # no memo: one head, many c
        normal = head, (re / (1 << m), im / (1 << m))
        return _upper_below(_walk(y, normal, ladder, eval_prec, {}), radius)

    top, fails, m = _MAX_HALVINGS, -1, 0
    while (bound := upper(m)) is None:
        if m == top:
            raise BudgetExceeded(f"no dyadic scale reached radius {radius} in {top} halvings")
        fails, m = m, min(top, 2 * m or 1)
    while m - fails > 1:
        mid = (fails + m) // 2
        fails, m, bound = (mid, m, bound) if (found := upper(mid)) is None else (fails, mid, found)
    return Fraction(1, 1 << m), bound
