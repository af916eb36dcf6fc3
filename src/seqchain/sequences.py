"""Lazy complex sequences with exact/interval term oracles.

A sequence is an immutable object exposing ``term(n, prec)`` returning a
:class:`~seqchain.intervals.ComplexInterval` of width <= 2**-prec, plus
optional certified tail metadata carried as data:

* ``tail_majorant(N, p, prec)``: upper bound on sum_{n>N} |a_n|**p,
* ``sup_tail(N, prec)``        : upper bound on sup_{n>N} |a_n|,
* ``disc_tail(N, r, prec)``    : upper bound on sum_{n>N} |a_n| r**n,
* ``poly_sup_tail(N, k, prec)``: upper bound on sup_{n>N} n**k |a_n|,

each returning ``None`` when the sequence cannot certify the bound.
Growth tags (:mod:`seqchain.tags`) and block-divergence data ride along
the same way.  Term oracles are pure and cached, so repeated calls with
identical arguments return identical intervals, and intervals at finer
precision are contained in coarser ones.  The cache keeps every term
except the shared zero box (``ComplexInterval.zero()``): a structural zero
costs one support test to recompute and is the same object every time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .errors import LengthMismatch
from .intervals import ComplexInterval, Q0, Q1, format_rational, pow_bounds, sqrt_bounds
from .supports import AllNaturals, ExplicitFinite, SupportSet


_ZERO = ComplexInterval.zero()


def _as_rat(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(x)


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


def _abs_upper(re: Fraction, im: Fraction, prec: int) -> Fraction:
    if im == 0:
        return abs(re)
    if re == 0:
        return abs(im)
    return sqrt_bounds(re * re + im * im, prec)[1]


class Sequence:
    kind = "abstract"
    growth_tags: tuple = ()
    support_hint: SupportSet | None = None

    def __init__(self):
        self._term_cache: dict[tuple[int, int], ComplexInterval] = {}

    # -- term oracle ---------------------------------------------------
    def term(self, n: int, prec: int) -> ComplexInterval:
        """The term at n, cached unless it is the shared zero box."""
        if n < 0:
            raise ValueError("negative index")
        key = (n, prec)
        hit = self._term_cache.get(key)
        if hit is None:
            hit = self._term(n, prec)
            if hit is not _ZERO:
                self._term_cache[key] = hit
        return hit

    def _term(self, n: int, prec: int) -> ComplexInterval:
        raise NotImplementedError

    # -- certified tail metadata (None = not available) -----------------
    def tail_majorant(self, N: int, p: Fraction, prec: int):
        return None

    def sup_tail(self, N: int, prec: int):
        return None

    def pos_sup_tail(self, K: int, prec: int):
        """Upper bound on sup |a_n| over support positions > K.

        Position-indexed tails stay representable where ambient cutoffs
        would explode (sparse supports), and spreading preserves them
        verbatim.  ``None`` when unavailable."""
        return None

    def disc_tail(self, N: int, r: Fraction, prec: int):
        return None

    def poly_sup_tail(self, N: int, k: int, prec: int):
        return None

    def lp_divergence(self, p: Fraction):
        """BlockDivergence witnessing sum |a_n|**p = infinity, if known."""
        return None

    def cap_divergence(self, a: Fraction):
        """(q, BlockDivergence) with q > a witnessing escape from the
        intersection of the l^q spaces with q > a, if known."""
        return None

    # -- serialization ---------------------------------------------------
    def spec(self) -> dict:
        raise NotImplementedError

    def spec_key(self) -> str:
        return json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"<{type(self).__name__} {self.kind}>"


class FiniteRational(Sequence):
    """Finitely supported sequence with exact Gaussian-rational entries."""

    kind = "finite"

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

    def _entries_beyond(self, N):
        return [(n, v) for n, v in self.entries.items() if n > N]

    def tail_majorant(self, N, p, prec):
        total = Q0
        for _, (re, im) in self._entries_beyond(N):
            total += pow_bounds(re * re + im * im, Fraction(p) / 2, prec)[1]
        return total

    def sup_tail(self, N, prec):
        vals = [_abs_upper(re, im, prec) for _, (re, im) in self._entries_beyond(N)]
        return max(vals, default=Q0)

    def pos_sup_tail(self, K, prec):
        rest = list(self.entries.values())[max(0, K):]
        return max((_abs_upper(re, im, prec) for re, im in rest), default=Q0)

    def disc_tail(self, N, r, prec):
        r = Fraction(r)
        total = Q0
        for n, (re, im) in self._entries_beyond(N):
            total += _abs_upper(re, im, prec) * _radius_power_upper(r, n, prec)
        return total

    def poly_sup_tail(self, N, k, prec):
        vals = [
            Fraction(n) ** k * _abs_upper(re, im, prec)
            for n, (re, im) in self._entries_beyond(N)
        ]
        return max(vals, default=Q0)

    def spec(self):
        return {
            "kind": "finite",
            "entries": [
                [n, format_rational(re), format_rational(im)]
                for n, (re, im) in self.entries.items()
            ],
        }


class FamilySeq(Sequence):
    """Catalog sequence defined by closed-form oracles (see families.py)."""

    kind = "family"

    def __init__(
        self,
        name: str,
        params_spec: dict,
        term_fn,
        *,
        tail_fn=None,
        sup_fn=None,
        pos_sup_fn=None,
        disc_fn=None,
        poly_fn=None,
        lp_div_fn=None,
        cap_div_fn=None,
        tags=(),
        support_hint=None,
    ):
        super().__init__()
        self.name = name
        self._params_spec = params_spec
        self._term_fn = term_fn
        self._tail_fn = tail_fn
        self._sup_fn = sup_fn
        self._disc_fn = disc_fn
        self._poly_fn = poly_fn
        self._lp_div_fn = lp_div_fn
        self._cap_div_fn = cap_div_fn
        self.growth_tags = tuple(tags)
        self.support_hint = support_hint
        if pos_sup_fn is None and sup_fn is not None and isinstance(support_hint, AllNaturals):
            # position k carries index k-1, so the two tail views coincide
            pos_sup_fn = lambda K, prec: sup_fn(K - 1, prec)  # noqa: E731
        self._pos_sup_fn = pos_sup_fn

    def _term(self, n, prec):
        return self._term_fn(n, prec)

    def tail_majorant(self, N, p, prec):
        return self._tail_fn(N, Fraction(p), prec) if self._tail_fn else None

    def sup_tail(self, N, prec):
        return self._sup_fn(N, prec) if self._sup_fn else None

    def pos_sup_tail(self, K, prec):
        return self._pos_sup_fn(K, prec) if self._pos_sup_fn else None

    def disc_tail(self, N, r, prec):
        return self._disc_fn(N, r, prec) if self._disc_fn else None

    def poly_sup_tail(self, N, k, prec):
        return self._poly_fn(N, k, prec) if self._poly_fn else None

    def lp_divergence(self, p):
        return self._lp_div_fn(Fraction(p)) if self._lp_div_fn else None

    def cap_divergence(self, a):
        return self._cap_div_fn(Fraction(a)) if self._cap_div_fn else None

    def spec(self):
        return {"kind": "family", "name": self.name, "params": self._params_spec}


@dataclass(frozen=True)
class _SpreadBlock:
    """A base block moved onto spread positions through a sparse hint: a
    singleton lands on its one position, a longer block is offered empty
    (see ``Spread._spread_blocks``).  A value, so equal moves compare equal."""

    hint: SupportSet
    block: Callable[[int], tuple[int, int]]

    def __call__(self, j: int) -> tuple[int, int]:
        k_lo, k_hi = self.block(j)
        return (self.hint.nth(k_lo) + 1,) * 2 if k_lo == k_hi else (k_lo, k_lo - 1)


class Spread(Sequence):
    """Transplant of a sequence onto an infinite index set: the k-th
    support point carries the k-th term of the base (counting from 0)."""

    kind = "spread"

    def __init__(self, base: Sequence, support: SupportSet):
        super().__init__()
        support.require_infinite()
        self.base = base
        self.support = support
        self.support_hint = support
        self.growth_tags = tuple(
            tag for tag in map(self._transport_tag, base.growth_tags) if tag is not None
        )

    def _transport_tag(self, tag):
        from .tags import SubseqLowerBound

        if isinstance(tag, SubseqLowerBound):
            nth = self.support.nth
            base_s = tag.s
            return SubseqLowerBound(
                label=f"{tag.label}@spread",
                s=lambda m: nth(base_s(m) + 1),
                g=tag.g,
                g_inf=tag.g_inf,
            )
        # root-test tags are position-dependent; they do not survive
        # transplantation
        return None

    def _term(self, n, prec):
        if not self.support.member(n):
            return ComplexInterval.zero()
        k = self.support.rank_upto(n)  # 1-based position of n in the support
        return self.base.term(k - 1, prec)

    def _base_cut(self, N):
        return self.support.rank_upto(N) - 1

    def tail_majorant(self, N, p, prec):
        return self.base.tail_majorant(self._base_cut(N), p, prec)

    def sup_tail(self, N, prec):
        return self.base.sup_tail(self._base_cut(N), prec)

    def pos_sup_tail(self, K, prec):
        # spread position k carries base index k-1, so the position tail
        # here is exactly the base's ambient index tail
        return self.base.sup_tail(K - 1, prec)

    def disc_tail(self, N, r, prec):
        # positions satisfy nth(k) >= k-1, so r**nth(k) <= r**(k-1)
        return self.base.disc_tail(self._base_cut(N), r, prec)

    def _spread_blocks(self, bd):
        # spread position i+1 carries base index i, and base indices between
        # support points are zero: base block (k_lo, k_hi) has the mass of
        # spread positions nth(k_lo)+1 .. nth(k_hi)+1, the same block on a
        # gapless hint.  On a sparse hint a longer block would grow with the
        # gaps, and a check reads all of it, so it is offered empty instead.
        hint = self.base.support_hint
        if hint is None or isinstance(hint, AllNaturals):
            return bd
        return replace(bd, block=_SpreadBlock(hint, bd.block))

    def lp_divergence(self, p):
        bd = self.base.lp_divergence(p)
        return None if bd is None else self._spread_blocks(bd)

    def cap_divergence(self, a):
        q, bd = self.base.cap_divergence(a) or (None, None)
        return None if bd is None else (q, self._spread_blocks(bd))

    def spec(self):
        return {"kind": "spread", "base": self.base.spec(), "support": self.support.spec()}


class Restrict(Sequence):
    """Pointwise mask: keeps terms inside the support, zero elsewhere."""

    kind = "restrict"

    def __init__(self, base: Sequence, support: SupportSet):
        super().__init__()
        self.base = base
        self.support = support
        base_hint = base.support_hint
        if base_hint is None:
            self.support_hint = support
        else:
            self.support_hint = _FilteredHint(base_hint, support)

    def _term(self, n, prec):
        if not self.support.member(n):
            return ComplexInterval.zero()
        return self.base.term(n, prec)

    # masking only removes mass, so the base's bounds remain valid
    def tail_majorant(self, N, p, prec):
        return self.base.tail_majorant(N, p, prec)

    def sup_tail(self, N, prec):
        return self.base.sup_tail(N, prec)

    def disc_tail(self, N, r, prec):
        return self.base.disc_tail(N, r, prec)

    def poly_sup_tail(self, N, k, prec):
        return self.base.poly_sup_tail(N, k, prec)

    def spec(self):
        return {"kind": "restrict", "base": self.base.spec(), "support": self.support.spec()}


class Combine(Sequence):
    """Pointwise finite linear combination with exact complex-rational
    coefficients.  Tail bounds combine subadditively: for p <= 1 via
    |x+y|^p <= |x|^p + |y|^p, for p > 1 via the p-norm triangle
    inequality applied to the tails.

    A term reads only the parts whose ``support_hint`` contains n (or
    that have no hint): a hint is a superset of its part's support, as
    ``support_indices_upto`` also assumes, so every skipped part is an
    exact zero.  A combination over disjointly supported basis rows thus
    evaluates one part per index."""

    kind = "combine"

    def __init__(self, coeffs, bases):
        super().__init__()
        self.coeffs = [_as_pair(c) for c in coeffs]
        self.bases = list(bases)
        mag = sum(abs(re) + abs(im) for re, im in self.coeffs)
        self._bump = (int(mag) + 2).bit_length() + 1
        self._hints = [b.support_hint for b in self.bases]
        self._abs_coeffs: dict[int, list[Fraction]] = {}
        self.support_hint = (
            None if any(h is None for h in self._hints) else _UnionHint(self._hints)
        )

    def _term(self, n, prec):
        child = prec + self._bump
        # 0*c and acc+0 are exact, so the sum starts at the first nonzero
        # part and skips zero parts without changing an endpoint; a part
        # whose support hint misses n is such a zero and is not evaluated
        acc = None
        for (re, im), base, hint in zip(self.coeffs, self.bases, self._hints):
            if hint is not None and not hint.member(n):
                continue
            iv = base.term(n, child)
            if not iv.is_exact_zero:
                part = iv.scale(re, im)
                acc = part if acc is None else acc + part
        return ComplexInterval.zero() if acc is None else acc

    def _weights(self, prec):
        """Upper bounds on the |c_i|, made once per precision."""
        if prec not in self._abs_coeffs:
            self._abs_coeffs[prec] = [_abs_upper(re, im, prec) for re, im in self.coeffs]
        return self._abs_coeffs[prec]

    def _weighted_tail(self, tail, prec):
        """sum |c_i| * tail(base_i), or None at the first base whose tail
        oracle gives None.  The sum starts at the first part and a weight of
        1 multiplies nothing: every metric's difference a - b has two."""
        total = None
        for w, base in zip(self._weights(prec), self.bases):
            t = tail(base)
            if t is None:
                return None
            t = t if w == 1 else w * t
            total = t if total is None else total + t
        return Q0 if total is None else total

    def tail_majorant(self, N, p, prec):
        p = Fraction(p)
        parts = []
        for base in self.bases:
            t = base.tail_majorant(N, p, prec)
            if t is None:
                return None
            parts.append(t)
        if p <= 1:
            total = Q0
            for (re, im), t in zip(self.coeffs, parts):
                total += pow_bounds(re * re + im * im, p / 2, prec)[1] * t
            return total
        root_sum = Q0
        for w, t in zip(self._weights(prec), parts):
            root_sum += w * pow_bounds(t, 1 / p, prec)[1]
        return pow_bounds(root_sum, p, prec)[1]

    def sup_tail(self, N, prec):
        return self._weighted_tail(lambda base: base.sup_tail(N, prec), prec)

    def disc_tail(self, N, r, prec):
        return self._weighted_tail(lambda base: base.disc_tail(N, r, prec), prec)

    def poly_sup_tail(self, N, k, prec):
        return self._weighted_tail(lambda base: base.poly_sup_tail(N, k, prec), prec)

    def spec(self):
        return {
            "kind": "combine",
            "terms": [
                [format_rational(re), format_rational(im), base.spec()]
                for (re, im), base in zip(self.coeffs, self.bases)
            ],
        }


class _FilteredHint(SupportSet):
    def __init__(self, base_hint: SupportSet, mask: SupportSet):
        self.base_hint, self.mask = base_hint, mask
        self.finite_flag = base_hint.finite_flag

    def member(self, n):
        return self.base_hint.member(n) and self.mask.member(n)

    def elements_upto(self, n):
        return [e for e in self.base_hint.elements_upto(n) if self.mask.member(e)]

    def rank_upto(self, n):
        return len(self.elements_upto(n))


class _UnionHint(SupportSet):
    def __init__(self, hints):
        self.hints = list(hints)
        self.finite_flag = all(h.finite_flag for h in self.hints)

    def member(self, n):
        return any(h.member(n) for h in self.hints)

    def elements_upto(self, n):
        merged: set[int] = set()
        for h in self.hints:
            merged.update(h.elements_upto(n))
        return sorted(merged)

    def rank_upto(self, n):
        return len(self.elements_upto(n))


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


def zero() -> FiniteRational:
    return FiniteRational({})


def unit(n: int) -> FiniteRational:
    """The n-th standard unit sequence e_n."""
    return FiniteRational({n: (Q1, Q0)})


def support_indices_upto(seq: Sequence, N: int):
    """Indices <= N that can carry nonzero terms (everything if unknown)."""
    hint = seq.support_hint
    if hint is None or isinstance(hint, AllNaturals):
        return range(0, N + 1)
    return hint.elements_upto(N)
