"""Lazy complex sequences with exact/interval term oracles.

A sequence is an immutable object exposing ``term(n, prec)`` returning a
:class:`~seqchain.intervals.ComplexInterval` of width <= 2**-prec, plus
optional certified tail metadata carried as data:

* ``tail_majorant(N, p, prec)``: upper bound on sum_{n>N} |a_n|**p,
* ``sup_tail(N, prec)``        : upper bound on sup_{n>N} |a_n|,
* ``disc_tail(N, r, prec)``    : upper bound on sum_{n>N} |a_n| r**n,
* ``poly_sup_tail(N, k, prec)``: upper bound on sup_{n>N} n**k |a_n|,

each returning ``None`` when the sequence cannot certify the bound.  A disc
tail is an integer pair ``(num, den)``, ``den > 0``, with value num/den and
not reduced (the contract of ``intervals.DiscSum.pair``): the metric and the
in-certificate add it to a disc sum's pair, so no node pays for a gcd.
Growth tags (:mod:`seqchain.tags`), block-divergence data and the l^p
``threshold`` (node rules on :class:`Sequence`) ride along the same way, as
does the support hint, always a set: all naturals when nothing narrower is known.
Term oracles are pure and cached, so repeated calls with identical
arguments return identical intervals, and intervals at finer precision are
contained in coarser ones.  The cache keeps every term
except the shared zero box (``ComplexInterval.zero()``): a structural zero
costs one support test to recompute and is the same object every time.

A node keeps what it computes: its terms and, in one store
(``Sequence.kept``), every other value per key, each a pure function of the
node, which does not change after construction, and of its key.  Finite data
and families keep their tail oracles' answers there; a spread, a restriction
or a combination hands each question to its bases, which keep the answers,
so it keeps none itself.  The store dies with its node, so a node parsed
afresh evaluates everything again.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .errors import LengthMismatch
from .intervals import ComplexInterval, DiscSum, PowSum, Q0, Q1, abs_end, format_rational, pow_bounds
from .intervals import replace
from .supports import AllNaturals, ExplicitFinite, Intersection, SupportSet, Union
from .tags import SubseqLowerBound


_ZERO = ComplexInterval.zero()
_MISSING = object()


def _as_rat(x) -> Fraction:
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(x)


def _as_fraction(x) -> Fraction:
    return x if x.__class__ is Fraction else Fraction(x)


def _as_pair(c) -> tuple[Fraction, Fraction]:
    if isinstance(c, tuple):
        return _as_rat(c[0]), _as_rat(c[1])
    if isinstance(c, complex):
        raise TypeError("coefficients must be exact rationals, not floats")
    return _as_rat(c), Q0


# r**n for a radius r = u/v is computed exactly while n * bit_length(v)
# stays within this many bits; past it, disc tails bound the power instead
_EXACT_POWER_BITS = 1 << 20
_POWER_GUARD = 16


def _radius_power_upper(r: Fraction, n: int, prec: int) -> Fraction:
    """Upper bound on r**n, exact while the power is small.

    Past ``_EXACT_POWER_BITS``, a radius 0 <= r < 1 gives 2**-K with
    K = prec + guard when n * (1 - r) >= K, and 1 otherwise: with
    x = 1 - r, -log2(1 - x) >= x, so r**n <= 2**(-n*x).  Other radii
    are powered exactly."""
    u, v = r.numerator, r.denominator
    if n * v.bit_length() <= _EXACT_POWER_BITS or not 0 <= u < v:
        return r ** n
    K = prec + _POWER_GUARD
    if n * (v - u) >= v * K:
        return Fraction(1, 1 << K)
    return Q1


class Sequence:
    """A lazy sequence node.  ``threshold`` t: it lies in l^q for every q > t
    (None: no t known).  Finite data has t = 0, a family its closed form,
    spread and restrict their base's t, and a combination the largest t of
    its parts, or None if a part has None.

    ``support_hint`` is a set that contains the node's support, all naturals
    when nothing narrower is known: every index off it carries an exact zero.
    ``Combine`` terms skip the parts whose hint misses n, escape certificates
    drop the parts whose hint misses the witness row, and a witness is zero
    off its support when its hint lies within it, so all three rest on this
    contract.

    A node keeps its terms (``term``) and, in one store (``kept``), every
    other value it computes per key.  Each public tail oracle passes what its
    node rule (``_sup_tail``, ...) answers through ``_answer``, so no node
    kind defines a public oracle: finite data and families keep the answer,
    as ``term`` keeps what ``_term`` answers, and the other kinds hand the
    question on to their bases (``_hand_on``)."""

    kind = "abstract"
    growth_tags: tuple = ()
    support_hint: SupportSet = AllNaturals()
    threshold: Fraction | None = None

    def __init__(self):
        self._term_cache: dict[int | tuple[int, int], ComplexInterval] = {}
        self._kept: dict[tuple, object] = {}

    def kept(self, key: tuple, make, *args):
        """``make(*args)``, computed once per key on this node, ``None`` too:
        sound for a value that is a pure function of the node and its key, as
        a node does not change after construction."""
        hit = self._kept.get(key, _MISSING)
        if hit is _MISSING:
            hit = self._kept[key] = make(*args)
        return hit

    # -- term oracle ---------------------------------------------------
    def term(self, n: int, prec: int) -> ComplexInterval:
        """The term at n, cached unless it is the shared zero box: a zero-width
        box is the value at every precision and is kept under n, a wide one
        under (n, prec).  Sound as no node's exactness at n depends on prec:
        a family term is exact iff ``pow_bounds``/``sqrt_bounds`` finds a
        rational root, spread and restrict read their base, and a combination
        is exact iff every part with a nonzero coefficient is."""
        if n < 0:
            raise ValueError("negative index")
        cache = self._term_cache
        hit = cache.get(n) or cache.get((n, prec))
        if hit is None:
            hit = self._term(n, prec)
            if hit is not _ZERO:
                cache[n if hit.is_exact else (n, prec)] = hit
        return hit

    def _term(self, n: int, prec: int) -> ComplexInterval:
        raise NotImplementedError

    def position_runs(self, k_lo: int, k_hi: int, prec: int):
        """(box, count) runs that repeat to the terms at support positions
        k_lo..k_hi (1-based, on the hint).  This default groups equal (``==``)
        neighbours among all of those terms."""
        nth = self.support_hint.nth
        terms = (self.term(nth(k), prec) for k in range(k_lo, k_hi + 1))
        return ((box, sum(1 for _ in run)) for box, run in groupby(terms))

    # -- certified tail metadata (None = not available) -----------------
    # an answer is kept under the oracle's short name and its arguments, x = p, r
    # or k as its exact ratio of integers, so that no key keeps the caller's
    # ``Fraction`` alive
    _answer = kept

    def _hand_on(self, key, rule, *args):
        """``_answer`` of a spread, a restriction or a combination: its rule
        asks its bases, which keep their answers, so it keeps none itself."""
        return rule(*args)

    def tail_majorant(self, N: int, p: Fraction, prec: int):
        key = ("tail", N, *p.as_integer_ratio(), prec)
        return self._answer(key, self._tail_majorant, N, p, prec)

    def sup_tail(self, N: int, prec: int):
        return self._answer(("sup", N, prec), self._sup_tail, N, prec)

    def pos_sup_tail(self, K: int, prec: int):
        """Upper bound on sup |a_n| over support positions > K.

        Position-indexed tails stay representable where ambient cutoffs
        would explode (sparse supports), and spreading preserves them
        verbatim.  ``None`` when unavailable."""
        return self._answer(("pos-sup", K, prec), self._pos_sup_tail, K, prec)

    def disc_tail(self, N: int, r: Fraction, prec: int):
        key = ("disc", N, *r.as_integer_ratio(), prec)
        return self._answer(key, self._disc_tail, N, r, prec)

    def poly_sup_tail(self, N: int, k: int, prec: int):
        key = ("poly", N, *k.as_integer_ratio(), prec)
        return self._answer(key, self._poly_sup_tail, N, k, prec)

    def _no_bound(self, *args):  # the node rule of an oracle this node kind cannot answer
        return None

    _tail_majorant = _sup_tail = _pos_sup_tail = _disc_tail = _poly_sup_tail = _no_bound

    def lp_divergence(self, p: Fraction):
        """BlockDivergence witnessing sum |a_n|**p = infinity, if known."""
        return None

    def zero_off(self, support: SupportSet) -> bool:
        """True only if provably every term off the support is zero: the
        hint lies within it."""
        return self.support_hint.within(support)

    @property
    def normal_parts(self) -> dict:
        """``normal_form`` of the node alone, kept once made: a combination's
        recovered coefficients and escape-certificate rows all read it."""
        return self.kept(("normal",), normal_form, ((Q1, Q0, self),))

    # -- serialization ---------------------------------------------------
    def spec(self) -> dict:
        raise NotImplementedError

    def spec_key(self) -> str:
        """Canonical JSON of ``spec()``, kept once made.  A hit is read from
        the store directly: ``normal_form`` reads the key of every part, and
        the call into ``kept`` cost construct about 3 %."""
        return self._kept.get(("spec",)) or self.kept(("spec",), self._canonical_spec)

    def _canonical_spec(self) -> str:
        return json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"<{type(self).__name__} {self.kind}>"


class FiniteRational(Sequence):
    """Finitely supported sequence with exact Gaussian-rational entries."""

    kind = "finite"
    threshold = Q0

    def __init__(self, entries: dict[int, tuple] | None = None):
        super().__init__()
        cleaned: dict[int, tuple[Fraction, Fraction]] = {}
        for n, val in (entries or {}).items():
            re, im = _as_pair(val)
            if n < 0:
                raise ValueError("negative index")
            if re != 0 or im != 0:
                cleaned[int(n)] = (re, im)
        self.entries = dict(sorted(cleaned.items()))
        self.support_hint = ExplicitFinite(self.entries.keys())

    @property
    def max_index(self) -> int:
        return max(self.entries) if self.entries else -1

    def _term(self, n, prec):
        val = self.entries.get(n)
        if val is None:
            return ComplexInterval.zero()
        return ComplexInterval.exact(val[0], val[1])

    def _moduli_beyond(self, N, prec=None):
        """(n, upper bound on |a_n|) for every entry past N: the ``modulus_bounds``
        end of the exact entry, |re| or |a_n|**2, and its ``abs_end`` given prec;
        kept for every entry once per prec and sliced by N."""
        ends = self.kept(("moduli", prec), self._moduli, prec)
        return ends[bisect_right(ends, N, key=itemgetter(0)):]

    def _moduli(self, prec):
        if prec is None:
            return [(n, (re * re + im * im, True) if im else (abs(re), False))
                    for n, (re, im) in self.entries.items()]
        return [(n, abs_end(end, 1, prec)) for n, end in self._moduli_beyond(-1)]

    def _tail_majorant(self, N, p, prec):
        ends = (end for _, end in self._moduli_beyond(N))
        return PowSum(_as_fraction(p), prec, upper=True).extend(ends).value

    def _sup_tail(self, N, prec):
        return max((m for _, m in self._moduli_beyond(N, prec)), default=Q0)

    def _pos_sup_tail(self, K, prec):
        rest = list(self.entries)[max(0, K):]  # from position K on: past the index before it
        return self.sup_tail(rest[0] - 1, prec) if rest else Q0

    def _disc_tail(self, N, r, prec):
        if N >= self.max_index:  # past the last entry the tail is zero
            return 0, 1
        r = _as_fraction(r)  # exact powers through DiscSum, bounded ones past _EXACT_POWER_BITS
        moduli, bits = self._moduli_beyond(N, prec), r.denominator.bit_length()
        cut = bisect_right(moduli, _EXACT_POWER_BITS // bits, key=itemgetter(0))
        num, den = DiscSum(r).extend(moduli[:cut]).pair
        for n, m in moduli[cut:]:
            far = m * _radius_power_upper(r, n, prec)
            num, den = num * far.denominator + far.numerator * den, den * far.denominator
        return num, den

    def _poly_sup_tail(self, N, k, prec):
        best, best_den = 0, 1
        for n, m in self._moduli_beyond(N, prec):  # the max by cross-multiplication
            num, den = n ** k * m.numerator, m.denominator
            if num * best_den > best * den:
                best, best_den = num, den
        return Fraction(best, best_den) if best else Q0

    def spec(self):
        return {
            "kind": "finite",
            "entries": [
                [n, format_rational(re), format_rational(im)]
                for n, (re, im) in self.entries.items()
            ],
        }


class FamilySeq(Sequence):
    """Catalog sequence defined by closed-form oracles (see families.py).

    ``threshold`` t is the family's one l^p datum: it lies in l^q exactly for
    q > t, or in no l^q when t is None.  The exponent gates derive from it:
    ``lp_divergence(p)`` is None for p > t, and ``tail_majorant`` is None
    for p <= t and whenever t is None.  Without a ``pos_sup_fn``,
    ``pos_sup_tail(K)`` is ``sup_tail(hint.nth(K))`` (N = -1 for K = 0) on the
    support hint, which every builder passes.  The doubling-selection builder
    of prop28 and rem29 (``families._doubling``) keeps its own: it counts
    positions in its underlying support, not in the selection it hints."""

    kind = "family"

    def __init__(
        self,
        name: str,
        params_spec: dict,
        term_fn,
        *,
        support_hint: SupportSet,
        tail_fn=None,
        sup_fn=None,
        pos_sup_fn=None,
        disc_fn=None,
        lp_div_fn=None,
        runs_fn=None,
        threshold=None,
        tags=(),
    ):
        super().__init__()
        self.name = name
        self._params_spec = params_spec
        self._term_fn = term_fn
        self._tail_fn = tail_fn
        self._sup_fn = sup_fn
        self._disc_fn = disc_fn
        self._lp_div_fn = lp_div_fn
        self._runs_fn = runs_fn
        self.threshold = threshold
        self.growth_tags = tuple(tags)
        self.support_hint = support_hint
        self._pos_sup_fn = pos_sup_fn

    def _term(self, n, prec):
        return self._term_fn(n, prec)

    def position_runs(self, k_lo, k_hi, prec):
        return (self._runs_fn or super().position_runs)(k_lo, k_hi, prec)

    def _tail_majorant(self, N, p, prec):
        p, t = _as_fraction(p), self.threshold
        if self._tail_fn is None or t is None or p <= t:
            return None
        return self._tail_fn(N, p, prec)

    def _sup_tail(self, N, prec):
        return self._sup_fn(N, prec) if self._sup_fn else None

    def _pos_sup_tail(self, K, prec):
        if self._pos_sup_fn:
            return self._pos_sup_fn(K, prec)
        # support positions past K are the indices past the K-th hint point
        return self.sup_tail(self.support_hint.nth(K) if K > 0 else -1, prec)

    def _disc_tail(self, N, r, prec):
        return self._disc_fn(N, r, prec) if self._disc_fn else None

    def lp_divergence(self, p):
        p, t = _as_fraction(p), self.threshold
        if self._lp_div_fn is None or (t is not None and p > t):
            return None
        return self._lp_div_fn(p)

    def spec(self):
        return {"kind": "family", "name": self.name, "params": self._params_spec}


class Spread(Sequence):
    """Transplant of a sequence onto an infinite index set: the k-th
    support point carries the k-th term of the base (counting from 0).
    Its tags and blocks are the base's, moved by closures made per node;
    they compare by data, and a check reads the checked node's own."""

    kind = "spread"
    _answer = Sequence._hand_on

    def __init__(self, base: Sequence, support: SupportSet):
        super().__init__()
        support.require_infinite()
        self.base = base
        self.support = support
        self.support_hint = support
        self.threshold = base.threshold
        self.growth_tags = tuple(
            tag for tag in map(self._transport_tag, base.growth_tags) if tag is not None
        )

    def _transport_tag(self, tag):
        # root-test tags are position-dependent; they do not survive
        # transplantation
        if not isinstance(tag, SubseqLowerBound):
            return None
        nth, base_s = self.support.nth, tag.s
        return replace(tag, label=f"{tag.label}@spread", s=lambda m: nth(base_s(m) + 1))

    def _term(self, n, prec):
        if not self.support.member(n):
            return ComplexInterval.zero()
        k = self.support.rank_upto(n)  # 1-based position of n in the support
        return self.base.term(k - 1, prec)

    def position_runs(self, k_lo, k_hi, prec):
        # spread position k carries base position k on a gapless base hint
        if isinstance(self.base.support_hint, AllNaturals):
            return self.base.position_runs(k_lo, k_hi, prec)
        return super().position_runs(k_lo, k_hi, prec)

    def _base_cut(self, N):
        return self.support.rank_upto(N) - 1

    def _tail_majorant(self, N, p, prec):
        return self.base.tail_majorant(self._base_cut(N), p, prec)

    def _sup_tail(self, N, prec):
        return self.base.sup_tail(self._base_cut(N), prec)

    def _pos_sup_tail(self, K, prec):
        # spread position k carries base index k-1, so the position tail
        # here is exactly the base's ambient index tail
        return self.base.sup_tail(K - 1, prec)

    def _disc_tail(self, N, r, prec):
        # positions satisfy nth(k) >= k-1, so r**nth(k) <= r**(k-1)
        return self.base.disc_tail(self._base_cut(N), r, prec)

    def _spread_blocks(self, bd):
        # spread position i+1 carries base index i, and base indices between
        # support points are zero: base block (k_lo, k_hi) has the mass of
        # spread positions nth(k_lo)+1 .. nth(k_hi)+1, the same block on a
        # gapless hint.  On a sparse hint a longer block would grow with the
        # gaps, and a check reads all of it, so it is offered empty instead.
        hint, block = self.base.support_hint, bd.block
        if isinstance(hint, AllNaturals):
            return bd

        def spread_block(j):
            k_lo, k_hi = block(j)
            return (hint.nth(k_lo) + 1,) * 2 if k_lo == k_hi else (k_lo, k_lo - 1)

        return replace(bd, block=spread_block)

    def lp_divergence(self, p):
        bd = self.base.lp_divergence(p)
        return None if bd is None else self._spread_blocks(bd)

    def spec(self):
        return {"kind": "spread", "base": self.base.spec(), "support": self.support.spec()}


class Restrict(Sequence):
    """Pointwise mask: keeps terms inside the support, zero elsewhere."""

    kind = "restrict"
    _answer = Sequence._hand_on

    def __init__(self, base: Sequence, support: SupportSet):
        super().__init__()
        self.base = base
        self.support = support
        self.threshold = base.threshold
        self.support_hint = Intersection(base.support_hint, support)

    def _term(self, n, prec):
        if not self.support.member(n):
            return ComplexInterval.zero()
        return self.base.term(n, prec)

    # masking only removes mass, so the base's bounds remain valid
    def _tail_majorant(self, N, p, prec):
        return self.base.tail_majorant(N, p, prec)

    def _sup_tail(self, N, prec):
        return self.base.sup_tail(N, prec)

    def _disc_tail(self, N, r, prec):
        return self.base.disc_tail(N, r, prec)

    def _poly_sup_tail(self, N, k, prec):
        return self.base.poly_sup_tail(N, k, prec)

    def spec(self):
        return {"kind": "restrict", "base": self.base.spec(), "support": self.support.spec()}


class Combine(Sequence):
    """Pointwise finite linear combination with exact complex-rational
    coefficients.  Tail bounds combine subadditively: for p <= 1 via
    |x+y|^p <= |x|^p + |y|^p, for p > 1 via the p-norm triangle
    inequality applied to the tails.

    A term reads only the parts whose ``support_hint`` contains n: a hint
    is a superset of its part's support, so every skipped part is an
    exact zero.  A combination over disjointly supported basis rows thus
    evaluates one part per index."""

    kind = "combine"
    _answer = Sequence._hand_on

    def __init__(self, coeffs, bases):
        super().__init__()
        self.coeffs = [_as_pair(c) for c in coeffs]
        self.bases = list(bases)
        self.support_hint = Union(b.support_hint for b in self.bases)
        ts = [b.threshold for b in self.bases]
        self.threshold = None if None in ts else max(ts, default=Q0)

    @property
    def _bump(self) -> int:
        """Extra precision for the parts of a term, from sum |c_i|; kept on
        the first term evaluation, as a combination that is only certified
        or recovered from never needs it."""
        return self.kept(("bump",), self._make_bump)

    def _make_bump(self) -> int:
        mag = sum(abs(re) + abs(im) for re, im in self.coeffs)
        return (int(mag) + 2).bit_length() + 1

    def _term(self, n, prec):
        child = prec + self._bump
        # 0*c and acc+0 are exact, so the sum starts at the first nonzero
        # part and skips zero parts without changing an endpoint; a part
        # whose support hint misses n is such a zero and is not evaluated
        acc = None
        for (re, im), base, hint in zip(self.coeffs, self.bases, self.support_hint.hints):
            if not hint.member(n):
                continue
            iv = base.term(n, child)
            if not iv.is_exact_zero:
                part = iv.scale(re, im)
                acc = part if acc is None else acc + part
        return ComplexInterval.zero() if acc is None else acc

    def _weights(self, prec, p=Q1):
        """Upper bounds on the |c_i|**p, made once per (p, prec): ``Q1`` itself,
        with no root taken, for a coefficient with re**2 + im**2 = 1, |re|
        powered at p for a real one (the ``PowSum`` rule: one real number, one
        grid floor) and re**2 + im**2 at p/2 otherwise."""
        return self.kept(("weights", p.numerator, p.denominator, prec), self._make_weights, prec, p)

    def _make_weights(self, prec, p):
        moduli = ((re * re + im * im, p / 2) if im else (abs(re), p) for re, im in self.coeffs)
        return [Q1 if q == 1 else pow_bounds(q, e, prec)[1] for q, e in moduli]

    def _weighted_tail(self, tail, prec, p=Q1):
        """sum |c_i|**p * tail(base_i) for p <= 1, (sum |c_i| * tail(base_i)**(1/p))**p
        for p > 1, or None at the first base whose tail oracle gives None.
        Exact-zero tails add nothing and a weight of 1 multiplies nothing:
        a metric's normal form a - b mostly has unit weights."""
        total = None
        for w, base in zip(self._weights(prec, min(p, Q1)), self.bases):
            t = tail(base)
            if t is None:
                return None
            if t:
                t = t if p <= 1 else pow_bounds(t, 1 / p, prec)[1]
                t = t if w is Q1 else w * t
                total = t if total is None else total + t
        if total is None:
            return Q0
        return total if p <= 1 else pow_bounds(total, p, prec)[1]

    def _tail_majorant(self, N, p, prec):
        p = _as_fraction(p)
        return self._weighted_tail(lambda base: base.tail_majorant(N, p, prec), prec, p)

    def _sup_tail(self, N, prec):
        return self._weighted_tail(lambda base: base.sup_tail(N, prec), prec)

    def _disc_tail(self, N, r, prec):
        """``_weighted_tail`` at p = 1 on pairs: a zero numerator adds nothing,
        a weight of 1 multiplies nothing, and a pair over the running
        denominator adds its numerator alone."""
        num, den = 0, 1
        for w, base in zip(self._weights(prec), self.bases):
            t = base.disc_tail(N, r, prec)
            if t is None:
                return None
            t_num, t_den = t if w is Q1 else (w.numerator * t[0], w.denominator * t[1])
            if t_num and t_den == den:
                num += t_num
            elif t_num:
                num, den = num * t_den + t_num * den, den * t_den
        return num, den

    def _poly_sup_tail(self, N, k, prec):
        return self._weighted_tail(lambda base: base.poly_sup_tail(N, k, prec), prec)

    def spec(self):
        return {
            "kind": "combine",
            "terms": [
                [format_rational(re), format_rational(im), base.spec()]
                for (re, im), base in zip(self.coeffs, self.bases)
            ],
        }


# -- public operations ----------------------------------------------------


def term_at(seq: Sequence, n: int, prec: int) -> ComplexInterval:
    """Value interval of the n-th term at width <= 2**-prec."""
    return seq.term(n, prec)


def restrict(seq: Sequence, support: SupportSet) -> Sequence:
    """Mask the sequence to the support set (zero elsewhere)."""
    if isinstance(seq, FiniteRational):
        return FiniteRational(
            {n: v for n, v in seq.entries.items() if support.member(n)}
        )
    return Restrict(seq, support)


def spread(seq: Sequence, support: SupportSet) -> Sequence:
    """Transplant the k-th term (from index 0) onto the k-th support point."""
    support.require_infinite()
    if isinstance(seq, FiniteRational):
        return FiniteRational(
            {support.nth(n + 1): v for n, v in seq.entries.items()}
        )
    return Spread(seq, support)


def combine(coeffs, seqs) -> Sequence:
    """Exact-coefficient linear combination; all-finite inputs fold to an
    exact finitely supported result."""
    coeffs, seqs = list(coeffs), list(seqs)
    if len(coeffs) != len(seqs):
        raise LengthMismatch(f"{len(coeffs)} coefficients vs {len(seqs)} sequences")
    if not seqs:
        return zero()
    if all(isinstance(s, FiniteRational) for s in seqs):
        acc: dict[int, tuple[Fraction, Fraction]] = {}
        for c, s in zip(coeffs, seqs):
            cre, cim = _as_pair(c)
            for n, (re, im) in s.entries.items():
                ore, oim = acc.get(n, (Q0, Q0))
                acc[n] = (ore + cre * re - cim * im, oim + cre * im + cim * re)
        return FiniteRational(acc)
    return Combine(coeffs, seqs)


def normal_form(terms) -> dict[str, tuple[tuple[Fraction, Fraction], Sequence]]:
    """sum c * seq over terms (re, im, seq) as {key: (c_k, part_k)} by spec key:
    nested combinations flattened, coefficients multiplied, and those of one
    key (equal terms) summed.  Zero coefficients and sums are dropped, and so
    are empty finite parts."""
    flat, parts = list(terms), {}
    while flat:
        re, im, part = flat.pop()
        if isinstance(part, Combine):  # a unit coefficient leaves the parts' own
            unit = re == 1 and not im
            flat.extend((c_re, c_im, base) if unit else
                        (re * c_re - im * c_im, re * c_im + im * c_re, base)
                        for (c_re, c_im), base in zip(part.coeffs, part.bases))
        elif (re or im) and (not isinstance(part, FiniteRational) or part.entries):
            s = parts.get(key := part.spec_key())
            parts[key] = (re, im, part) if s is None else (s[0] + re, s[1] + im, part)
    return {key: ((re, im), part) for key, (re, im, part) in parts.items() if re or im}


def zero() -> FiniteRational:
    return FiniteRational({})


def unit(n: int) -> FiniteRational:
    """The n-th standard unit sequence e_n."""
    return FiniteRational({n: (Q1, Q0)})

