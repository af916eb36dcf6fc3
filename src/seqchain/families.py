"""The catalog of named sequence families.

Each family ships closed-form tail bounds and growth tags attached at
construction, because certified membership can never be read off finitely
many terms.  Each states its l^p threshold t (middle column) once: it lies
in l^q exactly for q > t, or in no l^q where t is "none", and ``FamilySeq``
derives the exponent gates of its divergence and tail oracles from t.
Family ids double as the wire names of the sequence-spec JSON format:

=================  =======  ===================================================
``prop28``         0        sqrt(1/n) at n = 2, 4, 8, ...; zero elsewhere.
``rem29``          0        the same shape transplanted into an arbitrary
                            infinite support via a doubling subsequence
                            selection (value sqrt(1/l) at each selected l).
``nat``            none     a_n = n.
``nat-power``      none     a_n = n**(n+1).
``nn-on-support``  none     a_n = n**n on the support (n >= 1), zero off it.
``gap-lp-cap``     a        |a_n| = ((n+2) L(n+2))**(-1/a), L = floor(log2).
``gap-cap-lp``     (a+b)/2  |a_n| = (n+1)**(-2/(a+b)).
``gap-cap-c0``     none     |a_n| = 1/L(n+2); vanishing.
``const-one``      none     a_n = 1.
=================  =======  ===================================================
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _check_r(r) -> tuple[int, int]:
    """The radius as (u, v), r = u/v in lowest terms, checked to lie in (0,1)
    on its integers."""
    if not isinstance(r, Fraction):
        r = Fraction(r)
    u, v = r.numerator, r.denominator
    if not 0 < u < v:
        raise ValueError("disc radius must lie in (0,1)")
    return u, v


def _disc_geom(r: Fraction, n0: int) -> tuple[int, int]:
    """r**n0 / (1 - r) as the pair (u**n0 * v, v**n0 * (v - u)): the disc tail
    of terms <= 1 that vanish below n0."""
    u, v = _check_r(r)
    return u ** n0 * v, v ** n0 * (v - u)


def _disc_unit(N: int, r: Fraction, prec: int) -> tuple[int, int]:
    """Disc tail past N of a sequence whose every term is <= 1 in modulus."""
    return _disc_geom(r, N + 1)


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
        disc_fn=disc,
        threshold=Fraction(0),
        tags=(tag,),
        support_hint=PowersOfTwo(),
    )


class _DoublingSelection(SupportSet):
    """Deterministic choice of support points l_1' < l_2' < ... with
    l_m' >= 2**m: scan the support in increasing order, taking for each m
    the first element past the previous pick that reaches 2**m.  The picks
    form a lazy infinite index set, a far tighter support hint than the
    ambient set."""

    def __init__(self, support: SupportSet):
        self.support = support
        self.sel: list[int] = []
        self.pos: list[int] = []  # support positions of the selections
        self._last_pos = 0

    def _select_next(self):
        threshold = 1 << (len(self.sel) + 1)
        pos = max(self._last_pos + 1, self.support.rank_upto(threshold - 1) + 1)
        value = self.support.nth(pos)
        self._last_pos = pos
        self.sel.append(value)
        self.pos.append(pos)

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
        self.extend_to_count(k)
        return self.sel[k - 1]

    # every pick is a point of the underlying support, so its rules carry over
    def misses(self, row, cutoff):
        return self.support.misses(row, cutoff)

    def within(self, other):
        return self.support.within(other)


def rem29(support: SupportSet) -> FamilySeq:
    """sqrt(1/l) at a doubling selection of support points l; in every l^p
    but with l |a_l| unbounded along the selection."""
    support.require_infinite()
    selection = _DoublingSelection(support)

    def term(n, prec):
        if selection.member(n):
            return _real_iv(*sqrt_bounds(Fraction(1, n), prec))
        return ComplexInterval.zero()

    def tail(N, p, prec):
        # the m-th selected value is >= 2**m, so the tail past the first
        # rank_upto(N) selections is dominated by a geometric series
        return _geom_tail(Fraction(1, 2), p / 2, selection.rank_upto(N) + 1, prec)

    def sup(N, prec):
        m = selection.rank_upto(N) + 1
        return sqrt_bounds(Fraction(1, selection.nth(m)), max(prec, 16))[1]

    def pos_sup(K, prec):
        m = selection.first_past_position(K)
        return sqrt_bounds(Fraction(1, selection.nth(m)), max(prec, 16))[1]

    def disc(N, r, prec):
        return _disc_geom(r, selection.nth(selection.rank_upto(N) + 1))

    tag = SubseqLowerBound(
        label="rem29-weighted",
        s=selection.nth,
        g=lambda m: Fraction(1, _ceil_sqrt(selection.nth(m))),
    )
    return FamilySeq(
        "rem29",
        {"support": support.spec()},
        term,
        tail_fn=tail,
        sup_fn=sup,
        pos_sup_fn=pos_sup,
        disc_fn=disc,
        threshold=Fraction(0),
        tags=(tag,),
        support_hint=selection,
    )


# -- unbounded catalog members ----------------------------------------------


def _unbounded_divergence(offset: int):
    """lp_div for a sequence with |a| >= 1 at support position j + offset - 1
    for every j >= 1: one position per block, each with |a|**p >= 1, so
    every l^p sum diverges."""

    def lp_div(p):
        return BlockDivergence(p=p, block=SingletonBlock(offset), comparator="constant", c=Q1)

    return lp_div


def nat() -> FamilySeq:
    """a_n = n; bounded nowhere but a power series with radius 1."""

    def term(n, prec):
        return ComplexInterval.exact(n)

    def disc(N, r, prec):
        # r**(N+1) ((N+1) - N r) / (1 - r)**2 over the integers of r = u/v
        u, v = _check_r(r)
        return u ** (N + 1) * ((N + 1) * v - N * u) * v, v ** (N + 1) * (v - u) ** 2

    tags = (
        SubseqLowerBound(
            label="nat-linear", s=lambda m: m, g=lambda m: Fraction(m), g_inf=Q1
        ),
    )

    lp_div = _unbounded_divergence(2)  # position k=j+1 carries value j

    return FamilySeq(
        "nat",
        {},
        term,
        disc_fn=disc,
        tags=tags,
        lp_div_fn=lp_div,
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

    lp_div = _unbounded_divergence(2)

    return FamilySeq(
        "nat-power",
        {},
        term,
        tags=tags,
        lp_div_fn=lp_div,
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

    lp_div = _unbounded_divergence(offset)

    return FamilySeq(
        "nn-on-support",
        {"support": support.spec()},
        term,
        tags=tags,
        lp_div_fn=lp_div,
        support_hint=support,
    )


def const_one() -> FamilySeq:
    """The constant sequence 1: bounded, not vanishing."""

    def term(n, prec):
        return _ONE

    def sup(N, prec):
        return Q1

    tags = (
        SubseqLowerBound(
            label="const-one", s=lambda m: m - 1, g=lambda m: Q1, g_inf=Q1
        ),
    )

    lp_div = _unbounded_divergence(1)

    return FamilySeq(
        "const-one",
        {},
        term,
        sup_fn=sup,
        disc_fn=_disc_unit,
        tags=tags,
        lp_div_fn=lp_div,
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
        s = q / a
        # sum_{m > N+2} m**-s <= (N+2)**(1-s) / (s-1)
        return pow_bounds(Fraction(N + 2), 1 - s, max(prec, 16))[1] / (s - 1)

    def sup(N, prec):
        return pow_bounds(base_val(N + 1), exponent, max(prec, 16))[1]

    tag = SubseqLowerBound(
        label="gap-lp-cap-dyadic",
        s=lambda m: (1 << m) - 2,
        g=lambda m: pow_bounds(Fraction((1 << m) * m), exponent, _TAG_PREC)[0],
    )

    def lp_div(p):
        # positions with m = n+2 in [2**j, 2**(j+1)) have L(m) = j, and
        # sum 1/(m j) over that range exceeds 1/(2j)
        return BlockDivergence(p, shifted_dyadic_block, "harmonic", Fraction(1, 2))

    return FamilySeq(
        "gap-lp-cap",
        {"a": format_rational(a)},
        term,
        tail_fn=tail,
        sup_fn=sup,
        disc_fn=_disc_unit,
        tags=(tag,),
        lp_div_fn=lp_div,
        threshold=a,
        support_hint=AllNaturals(),
    )


def gap_cap_lp(a: Fraction, b: Fraction) -> FamilySeq:
    """(n+1)**(-2/(a+b)): in l^q exactly for q > (a+b)/2."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    exponent = Fraction(-2) / (a + b)

    def term(n, prec):
        return _real_iv(*pow_bounds(Fraction(n + 1), exponent, prec))

    def tail(N, q, prec):
        s = 2 * q / (a + b)
        if N < 0:
            # the whole sequence: the n = 0 term is 1, the rest is the N = 0 tail
            return 1 + 1 / (s - 1)
        return pow_bounds(Fraction(N + 1), 1 - s, max(prec, 16))[1] / (s - 1)

    def sup(N, prec):
        return pow_bounds(Fraction(N + 2), exponent, max(prec, 16))[1]

    def lp_div(p):
        # terms over positions [2**j, 2**(j+1)-1] are each >= 2**-(j+1)
        return BlockDivergence(p, dyadic_position_block, "constant", Fraction(1, 2))

    return FamilySeq(
        "gap-cap-lp",
        {"a": format_rational(a), "b": format_rational(b)},
        term,
        tail_fn=tail,
        sup_fn=sup,
        disc_fn=_disc_unit,
        lp_div_fn=lp_div,
        threshold=(a + b) / 2,
        support_hint=AllNaturals(),
    )


def gap_cap_c0(b: Fraction) -> FamilySeq:
    """1/L(n+2): vanishing but in no l^p space."""
    b = Fraction(b)
    if b < 0:
        raise ValueError("parameter must be >= 0")

    # one box per dyadic level L(n+2), read by terms and runs alike
    levels: dict[int, ComplexInterval] = {}

    def level(L):
        box = levels.get(L)
        if box is None:
            box = levels[L] = ComplexInterval.exact(Fraction(1, L))
        return box

    def term(n, prec):
        return level(_floor_log2(n + 2))

    def runs(k_lo, k_hi, prec):
        # position k is n = k - 1: level L covers 2**L - 1 .. 2**(L+1) - 2
        for L in range(_floor_log2(k_lo + 1), _floor_log2(k_hi + 1) + 1):
            yield level(L), min(k_hi, (2 << L) - 2) - max(k_lo, (1 << L) - 1) + 1

    def sup(N, prec):
        return Fraction(1, _floor_log2(N + 3))

    def lp_div(p):
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

    return FamilySeq(
        "gap-cap-c0",
        {"b": format_rational(b)},
        term,
        sup_fn=sup,
        disc_fn=_disc_unit,
        lp_div_fn=lp_div,
        runs_fn=runs,
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
