"""The catalog of named sequence families.

Each family ships closed-form tail bounds and growth tags attached at
construction, because certified membership can never be read off finitely
many terms.  Family ids double as the wire names of the sequence-spec
JSON format:

========================  =====================================================
``prop28``                sqrt(1/n) at n = 2, 4, 8, ...; zero elsewhere.
``rem29``                 the same shape transplanted into an arbitrary
                          infinite support via a doubling subsequence
                          selection (value sqrt(1/l) at each selected l).
``nat``                   a_n = n.
``nat-power``             a_n = n**(n+1).
``nn-on-support``         a_n = n**n on the support (n >= 1), zero off it.
``gap-lp-cap``            |a_n| = ((n+2) L(n+2))**(-1/a), L = floor(log2);
                          summable to power q iff q > a.
``gap-cap-lp``            |a_n| = (n+1)**(-2/(a+b)); summable to power q
                          iff q > (a+b)/2.
``gap-cap-c0``            |a_n| = 1/L(n+2); vanishing, in no l^p.
``const-one``             a_n = 1.
========================  =====================================================
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import BudgetExceeded, ParseError
from .intervals import (
    ComplexInterval,
    Q1,
    format_rational,
    parse_rational,
    pow_bounds,
    sqrt_bounds,
)
from .sequences import FamilySeq
from .supports import AllNaturals, PowersOfTwo, SupportSet, support_from_spec
from .tags import (
    BlockDivergence,
    RootLowerBound,
    SingletonBlock,
    SubseqLowerBound,
    dyadic_position_block,
    shifted_dyadic_block,
)

_TAG_PREC = 32  # fixed precision for rational bounds baked into tags
_ONE = ComplexInterval.exact(1)  # every term of const-one


def _real_iv(lo: Fraction, hi: Fraction) -> ComplexInterval:
    return ComplexInterval.from_real_bounds(lo, hi)


def _floor_log2(m: int) -> int:
    return m.bit_length() - 1


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


def _geom_tail(base: Fraction, exponent: Fraction, k0: int, prec: int) -> Fraction:
    """Upper bound on sum_{k >= k0} (base**exponent)**k for 0 < base < 1."""
    work = max(prec, 16)
    for _ in range(20):
        t_up = pow_bounds(base, exponent, work)[1]
        if t_up < 1:
            return t_up ** k0 / (1 - t_up)
        work += 32
    raise BudgetExceeded("geometric ratio bound would not drop below 1")


def _check_r(r: Fraction) -> Fraction:
    if not isinstance(r, Fraction):
        r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("disc radius must lie in (0,1)")
    return r


def _disc_geom(r: Fraction, n0: int) -> Fraction:
    """r**n0 / (1 - r) normalised once: the disc tail of terms <= 1 that vanish below n0."""
    r = _check_r(r)
    u, v = r.numerator, r.denominator
    return Fraction(u ** n0 * v, v ** n0 * (v - u))


# -- prop28 / rem29 ---------------------------------------------------------


def prop28() -> FamilySeq:
    """sqrt(1/2**k) at index 2**k for k >= 1; zero elsewhere."""

    def term(n, prec):
        if n >= 2 and n & (n - 1) == 0:
            return _real_iv(*sqrt_bounds(Fraction(1, n), prec))
        return ComplexInterval.zero()

    def _k0(N):
        return max(1, N.bit_length())  # smallest k >= 1 with 2**k > N

    def tail(N, p, prec):
        return _geom_tail(Fraction(1, 2), p / 2, _k0(N), prec)

    def sup(N, prec):
        return sqrt_bounds(Fraction(1, 1 << _k0(N)), max(prec, 16))[1]

    def pos_sup(K, prec):
        # support position k is the element 2**(k-1); values start at k = 2
        return sqrt_bounds(Fraction(1, 1 << max(1, K)), max(prec, 16))[1]

    def disc(N, r, prec):
        return _disc_geom(r, 1 << _k0(N))  # values are <= 1

    tag = SubseqLowerBound(
        label="prop28-weighted",
        s=lambda m: 1 << m,
        g=lambda m: Fraction(1, 1 << ((m + 1) // 2)),
    )
    return FamilySeq(
        "prop28",
        {},
        term,
        tail_fn=tail,
        sup_fn=sup,
        pos_sup_fn=pos_sup,
        disc_fn=disc,
        tags=(tag,),
        support_hint=PowersOfTwo(),
    )


class _DoublingSelection:
    """Deterministic choice of support points l_1' < l_2' < ... with
    l_m' >= 2**m: scan the support in increasing order, taking for each m
    the first element past the previous pick that reaches 2**m."""

    def __init__(self, support: SupportSet):
        self.support = support
        self.sel: list[int] = []
        self.pos: list[int] = []  # support positions of the selections
        self.sel_set: set[int] = set()
        self._last_pos = 0

    def _select_next(self):
        threshold = 1 << (len(self.sel) + 1)
        pos = max(self._last_pos + 1, self.support.rank_upto(threshold - 1) + 1)
        value = self.support.nth(pos)
        self._last_pos = pos
        self.sel.append(value)
        self.pos.append(pos)
        self.sel_set.add(value)

    def extend_to_value(self, x: int):
        while not self.sel or self.sel[-1] < x:
            self._select_next()

    def extend_to_count(self, count: int):
        while len(self.sel) < count:
            self._select_next()

    def first_past_position(self, K: int) -> int:
        """1-based selection number of the first pick at support position > K."""
        m = 1
        while True:
            self.extend_to_count(m)
            if self.pos[m - 1] > K:
                return m
            m += 1

    def contains(self, n: int) -> bool:
        if n < 2:
            return False
        self.extend_to_value(n)
        return n in self.sel_set

    def count_upto(self, N: int) -> int:
        self.extend_to_value(N + 1)
        return sum(1 for v in self.sel if v <= N)

    def value(self, m: int) -> int:
        self.extend_to_count(m)
        return self.sel[m - 1]


class _SelectionSupport(SupportSet):
    """The selected points themselves, as a lazy infinite index set; a far
    tighter support hint than the ambient set."""

    def __init__(self, selection: _DoublingSelection):
        self.selection = selection

    def member(self, n):
        return self.selection.contains(n)

    def rank_upto(self, n):
        if n < 2:
            return 0
        return self.selection.count_upto(n)

    def nth(self, k):
        if k < 1:
            raise ValueError("nth is 1-based")
        return self.selection.value(k)


def rem29(support: SupportSet) -> FamilySeq:
    """sqrt(1/l) at a doubling selection of support points l; in every l^p
    but with l |a_l| unbounded along the selection."""
    support.require_infinite()
    selection = _DoublingSelection(support)

    def term(n, prec):
        if selection.contains(n):
            return _real_iv(*sqrt_bounds(Fraction(1, n), prec))
        return ComplexInterval.zero()

    def tail(N, p, prec):
        # the m-th selected value is >= 2**m, so the tail past the first
        # count_upto(N) selections is dominated by a geometric series
        return _geom_tail(Fraction(1, 2), p / 2, selection.count_upto(N) + 1, prec)

    def sup(N, prec):
        m = selection.count_upto(N) + 1
        return sqrt_bounds(Fraction(1, selection.value(m)), max(prec, 16))[1]

    def pos_sup(K, prec):
        m = selection.first_past_position(K)
        return sqrt_bounds(Fraction(1, selection.value(m)), max(prec, 16))[1]

    def disc(N, r, prec):
        return _disc_geom(r, selection.value(selection.count_upto(N) + 1))

    tag = SubseqLowerBound(
        label="rem29-weighted",
        s=selection.value,
        g=lambda m: Fraction(1, _ceil_sqrt(selection.value(m))),
    )
    return FamilySeq(
        "rem29",
        {"support": support.spec()},
        term,
        tail_fn=tail,
        sup_fn=sup,
        pos_sup_fn=pos_sup,
        disc_fn=disc,
        tags=(tag,),
        support_hint=_SelectionSupport(selection),
    )


# -- unbounded catalog members ----------------------------------------------


def _singleton_divergence(p: Fraction, offset: int = 1) -> BlockDivergence:
    # one support position per block, each with |a|**p >= 1
    return BlockDivergence(
        p=Fraction(p), block=SingletonBlock(offset), comparator="constant", c=Q1
    )


def nat() -> FamilySeq:
    """a_n = n; bounded nowhere but a power series with radius 1."""

    def term(n, prec):
        return ComplexInterval.exact(n)

    def disc(N, r, prec):
        r = _check_r(r)
        return r ** (N + 1) * ((N + 1) - N * r) / (1 - r) ** 2

    tags = (
        SubseqLowerBound(
            label="nat-linear", s=lambda m: m, g=lambda m: Fraction(m), g_inf=Q1
        ),
    )

    def lp_div(p):
        return _singleton_divergence(p, offset=2)  # position k=j+1 carries value j

    def cap_div(a):
        q = Fraction(a) + 1
        return q, _singleton_divergence(q, offset=2)

    return FamilySeq(
        "nat",
        {},
        term,
        disc_fn=disc,
        tags=tags,
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=AllNaturals(),
    )


def nat_power() -> FamilySeq:
    """a_n = n**(n+1); its coefficient root test diverges."""

    def term(n, prec):
        return ComplexInterval.exact(0 if n == 0 else Fraction(n) ** (n + 1))

    tags = (
        SubseqLowerBound(
            label="nat-power-values",
            s=lambda m: m,
            g=lambda m: Fraction(m) ** (m + 1),
            g_inf=Q1,
        ),
        RootLowerBound(label="nat-power-root", s=lambda m: m, rho=lambda m: Fraction(m)),
    )

    def lp_div(p):
        return _singleton_divergence(p, offset=2)

    def cap_div(a):
        q = Fraction(a) + 1
        return q, _singleton_divergence(q, offset=2)

    return FamilySeq(
        "nat-power",
        {},
        term,
        tags=tags,
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=AllNaturals(),
    )


def nn_on_support(support: SupportSet) -> FamilySeq:
    """n**n on the support points n >= 1, zero elsewhere."""
    support.require_infinite()
    offset = 2 if support.nth(1) == 0 else 1  # skip a leading 0 in the support

    def positive_point(m):
        return support.nth(m + offset - 1)

    def term(n, prec):
        if n >= 1 and support.member(n):
            return ComplexInterval.exact(Fraction(n) ** n)
        return ComplexInterval.zero()

    tags = (
        SubseqLowerBound(
            label="nn-values",
            s=positive_point,
            g=lambda m: Fraction(positive_point(m)) ** positive_point(m),
            g_inf=Q1,
        ),
        RootLowerBound(
            label="nn-root",
            s=positive_point,
            rho=lambda m: Fraction(positive_point(m)),
        ),
    )

    def lp_div(p):
        return _singleton_divergence(p, offset=offset)

    def cap_div(a):
        q = Fraction(a) + 1
        return q, _singleton_divergence(q, offset=offset)

    return FamilySeq(
        "nn-on-support",
        {"support": support.spec()},
        term,
        tags=tags,
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=support,
    )


def const_one() -> FamilySeq:
    """The constant sequence 1: bounded, not vanishing."""

    def term(n, prec):
        return _ONE

    def sup(N, prec):
        return Q1

    def disc(N, r, prec):
        return _disc_geom(r, N + 1)

    tags = (
        SubseqLowerBound(
            label="const-one", s=lambda m: m - 1, g=lambda m: Q1, g_inf=Q1
        ),
    )

    def lp_div(p):
        return _singleton_divergence(p)

    def cap_div(a):
        q = Fraction(a) + 1
        return q, _singleton_divergence(q)

    return FamilySeq(
        "const-one",
        {},
        term,
        sup_fn=sup,
        disc_fn=disc,
        tags=tags,
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=AllNaturals(),
    )


# -- gap families between the summability spaces ------------------------------


def gap_lp_cap(a: Fraction) -> FamilySeq:
    """((n+2) L(n+2))**(-1/a): diverges at exponent a, summable past it."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("parameter must be positive")
    exponent = -1 / a

    def base_val(n):
        m = n + 2
        return Fraction(m * _floor_log2(m))

    def term(n, prec):
        return _real_iv(*pow_bounds(base_val(n), exponent, prec))

    def tail(N, q, prec):
        s = Fraction(q) / a
        if s <= 1:
            return None
        # sum_{m > N+2} m**-s <= (N+2)**(1-s) / (s-1)
        return pow_bounds(Fraction(N + 2), 1 - s, max(prec, 16))[1] / (s - 1)

    def sup(N, prec):
        return pow_bounds(base_val(N + 1), exponent, max(prec, 16))[1]

    def disc(N, r, prec):
        return _disc_geom(r, N + 1)  # values are <= 1

    tag = SubseqLowerBound(
        label="gap-lp-cap-dyadic",
        s=lambda m: (1 << m) - 2,
        g=lambda m: pow_bounds(Fraction((1 << m) * m), exponent, _TAG_PREC)[0],
    )

    def lp_div(p):
        if Fraction(p) > a:
            return None
        # positions with m = n+2 in [2**j, 2**(j+1)) have L(m) = j, and
        # sum 1/(m j) over that range exceeds 1/(2j)
        return BlockDivergence(
            p=Fraction(p),
            block=shifted_dyadic_block,
            comparator="harmonic",
            c=Fraction(1, 2),
        )

    def cap_div(c):
        if a > Fraction(c):
            return a, lp_div(a)
        return None

    return FamilySeq(
        "gap-lp-cap",
        {"a": format_rational(a)},
        term,
        tail_fn=tail,
        sup_fn=sup,
        disc_fn=disc,
        tags=(tag,),
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=AllNaturals(),
    )


def gap_cap_lp(a: Fraction, b: Fraction) -> FamilySeq:
    """(n+1)**(-2/(a+b)): in l^q exactly for q > (a+b)/2."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    exponent = Fraction(-2) / (a + b)
    pivot = (a + b) / 2

    def term(n, prec):
        return _real_iv(*pow_bounds(Fraction(n + 1), exponent, prec))

    def tail(N, q, prec):
        s = 2 * Fraction(q) / (a + b)
        if s <= 1:
            return None
        if N < 0:
            # the whole sequence: the n = 0 term is 1, the rest is the N = 0 tail
            return 1 + 1 / (s - 1)
        return pow_bounds(Fraction(N + 1), 1 - s, max(prec, 16))[1] / (s - 1)

    def sup(N, prec):
        return pow_bounds(Fraction(N + 2), exponent, max(prec, 16))[1]

    def disc(N, r, prec):
        return _disc_geom(r, N + 1)

    def lp_div(p):
        if Fraction(p) > pivot:
            return None
        # terms over positions [2**j, 2**(j+1)-1] are each >= 2**-(j+1)
        return BlockDivergence(
            p=Fraction(p),
            block=dyadic_position_block,
            comparator="constant",
            c=Fraction(1, 2),
        )

    def cap_div(c):
        if pivot > Fraction(c):
            return pivot, lp_div(pivot)
        return None

    return FamilySeq(
        "gap-cap-lp",
        {"a": format_rational(a), "b": format_rational(b)},
        term,
        tail_fn=tail,
        sup_fn=sup,
        disc_fn=disc,
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=AllNaturals(),
    )


def gap_cap_c0(b: Fraction) -> FamilySeq:
    """1/L(n+2): vanishing but in no l^p space."""
    b = Fraction(b)
    if b < 0:
        raise ValueError("parameter must be >= 0")

    # one box per dyadic level L(n+2), so a run of equal terms is one object
    levels: dict[int, ComplexInterval] = {}

    def term(n, prec):
        L = _floor_log2(n + 2)
        box = levels.get(L)
        if box is None:
            box = levels[L] = ComplexInterval.exact(Fraction(1, L))
        return box

    def sup(N, prec):
        return Fraction(1, _floor_log2(N + 3))

    def disc(N, r, prec):
        return _disc_geom(r, N + 1)

    def lp_div(p):
        p = Fraction(p)
        # 2**j terms of value j**-p per L-aligned block; valid from the
        # first j in the monotone region with 2**j >= j**p.  Past the
        # search cap there is no certificate (None), not an error.
        j = max(1, -(-2 * p.numerator // p.denominator))
        while not (1 << (j * p.denominator)) >= j ** p.numerator:
            j += 1
            if j > 512:
                return None
        return BlockDivergence(
            p=p,
            block=shifted_dyadic_block,
            comparator="constant",
            c=Q1,
            j_start=j,
        )

    def cap_div(c):
        q = Fraction(c) + 1
        return q, lp_div(q)

    return FamilySeq(
        "gap-cap-c0",
        {"b": format_rational(b)},
        term,
        sup_fn=sup,
        disc_fn=disc,
        lp_div_fn=lp_div,
        cap_div_fn=cap_div,
        support_hint=AllNaturals(),
    )


# -- registry ----------------------------------------------------------------


def _need(params: dict, key: str) -> str:
    if key not in params:
        raise ParseError(f"family params missing {key!r}")
    return params[key]


FAMILY_BUILDERS = {
    "prop28": lambda params: prop28(),
    "rem29": lambda params: rem29(support_from_spec(_need(params, "support"))),
    "nat": lambda params: nat(),
    "nat-power": lambda params: nat_power(),
    "nn-on-support": lambda params: nn_on_support(
        support_from_spec(_need(params, "support"))
    ),
    "gap-lp-cap": lambda params: gap_lp_cap(parse_rational(_need(params, "a"))),
    "gap-cap-lp": lambda params: gap_cap_lp(
        parse_rational(_need(params, "a")), parse_rational(_need(params, "b"))
    ),
    "gap-cap-c0": lambda params: gap_cap_c0(parse_rational(_need(params, "b"))),
    "const-one": lambda params: const_one(),
}


def family_from_spec(name: str, params: dict) -> FamilySeq:
    builder = FAMILY_BUILDERS.get(name)
    if builder is None:
        raise ParseError(f"unknown family id {name!r}")
    return builder(params or {})
