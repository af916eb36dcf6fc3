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

Three shared rules build most of the catalog.  The tail rule
``_bounded_tails`` serves the families whose real terms lie in [0, 1] and
never increase along their support: prop28, rem29, gap-lp-cap, gap-cap-lp,
gap-cap-c0 and const-one (nat keeps its own disc tail).  The doubling
builder ``_doubling`` makes rem29 on a support, and prop28 as rem29 on the
powers of two, whose picks are 2, 4, 8, ...; only their tag weights differ.
The power builder ``_power`` makes n**(n+e) on a support: nat-power (e = 1,
all naturals) and nn-on-support (e = 0).
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
from .sequences import _EXACT_POWER_BITS, FamilySeq
from .supports import AllNaturals, DoublingSelection, PowersOfTwo, SupportSet, support_from_spec
from .tags import (
    BlockDivergence,
    RootLowerBound,
    SubseqLowerBound,
    dyadic_position_block,
    shifted_dyadic_block,
)

_TAG_PREC = 32  # fixed precision for rational bounds baked into tags
_ONE = ComplexInterval.exact(Q1)  # every term of const-one
_HALF = Fraction(1, 2)  # the doubling tail's base


def _real_iv(lo: Fraction, hi: Fraction) -> ComplexInterval:
    return ComplexInterval.from_real_bounds(lo, hi)


def _floor_log2(m: int) -> int:
    return m.bit_length() - 1


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


def _geom_ratio(base: Fraction, exponent: Fraction, prec: int) -> tuple[int, int]:
    """An upper bound n/d < 1 on base**exponent for 0 < base < 1, as (n, d)."""
    work = max(prec, 16)
    for _ in range(20):
        n, d = pow_bounds(base, exponent, work)[1].as_integer_ratio()
        if n < d:
            return n, d
        work += 32
    raise BudgetExceeded("geometric ratio bound would not drop below 1")


def _power_tail(m: int, s_num: int, s_den: int, prec: int) -> Fraction:
    """Upper bound m**(1-s)/(s-1) on sum_{n > m} n**-s, s = s_num/s_den > 1, on integers."""
    d = s_num - s_den  # s - 1 = d/s_den
    x, y = pow_bounds(m, Fraction(-d, s_den), max(prec, 16))[1].as_integer_ratio()
    return Fraction(x * s_den, y * d)


def _check_r(r) -> tuple[int, int]:
    """The radius as (u, v), r = u/v in lowest terms, checked to lie in (0,1)
    on its integers."""
    u, v = r.as_integer_ratio()
    if not 0 < u < v:
        raise ValueError("disc radius must lie in (0,1)")
    return u, v


# -- bounded decreasing families -------------------------------------------


def _bounded_tails(term, peak=lambda N: N + 1):
    """sup_fn and disc_fn of a family whose real terms lie in [0, 1] and never
    increase along its support, where peak(N) is the first support index past
    N (N + 1 on all naturals).  Past N no term exceeds the one at peak(N), so
    the sup tail is that term's upper end, read off the raw term closure at
    16 bits at least, and the disc tail is that of unit terms vanishing below
    n0 = peak(N): r**n0 / (1 - r) as the pair (u**n0 * v, v**n0 * (v - u))."""

    def sup(N, prec):
        return term(peak(N), max(prec, 16)).re_hi

    def disc(N, r, prec):
        (u, v), n0 = _check_r(r), peak(N)
        return u ** n0 * v, v ** n0 * (v - u)

    return sup, disc


def _doubling(name: str, params: dict, support: SupportSet, label: str, bound) -> FamilySeq:
    """sqrt(1/l) at the doubling selection of support points l, zero elsewhere:
    in every l^p, with l |a_l| unbounded along the picks, which the growth tag
    reads as bound(l) at the m-th pick l.  Its tails keep one ratio per (p, prec)."""
    selection = DoublingSelection(support)
    ratios = {}  # (p, prec) as integers -> _geom_ratio(1/2, p/2, prec), made once

    def term(n, prec):
        if selection.member(n):
            return _real_iv(*sqrt_bounds(Fraction(1, n), prec))
        return ComplexInterval.zero()

    def tail(N, p, prec):
        # the m-th selected value is >= 2**m, so the tail past the first
        # rank_upto(N) = k0 - 1 selections is at most sum_{k >= k0} t**k, t = n/d
        a, k = p.as_integer_ratio()
        if (a, k, prec) not in ratios:
            ratios[a, k, prec] = _geom_ratio(_HALF, Fraction(a, 2 * k), prec)
        (n, d), k0 = ratios[a, k, prec], selection.rank_upto(N) + 1
        return Fraction(n ** k0 * d, d ** k0 * (d - n))

    sup, disc = _bounded_tails(term, lambda N: selection.nth(selection.rank_upto(N) + 1))

    def pos_sup(K, prec):
        # positions count the underlying support: the picks at positions past
        # K are the picks past its K-th point
        return sup(support.nth(K) if K > 0 else -1, prec)

    tag = SubseqLowerBound(label=label, s=selection.nth, g=lambda m: bound(selection.nth(m)))
    return FamilySeq(
        name,
        params,
        term,
        tail_fn=tail,
        sup_fn=sup,
        pos_sup_fn=pos_sup,
        disc_fn=disc,
        threshold=Fraction(0),
        tags=(tag,),
        support_hint=selection,
    )


def prop28() -> FamilySeq:
    """sqrt(1/2**k) at index 2**k for k >= 1; zero elsewhere: rem29 on the
    powers of two, with its own tag weight 2**-((k+1)//2) at 2**k."""
    return _doubling(
        "prop28", {}, PowersOfTwo(), "prop28-weighted",
        lambda l: Fraction(1, 1 << (l.bit_length() // 2)),
    )


def rem29(support: SupportSet) -> FamilySeq:
    """prop28's shape transplanted into an arbitrary infinite support."""
    support.require_infinite()
    return _doubling(
        "rem29", {"support": support.spec()}, support, "rem29-weighted",
        lambda l: Fraction(1, _ceil_sqrt(l)),
    )


# -- unbounded catalog members ----------------------------------------------


def _unbounded_divergence(offset: int):
    """lp_div for a sequence with |a| >= 1 at support position j + offset - 1
    for every j >= 1: block j is that one position, with |a|**p >= 1, so
    every l^p sum diverges."""

    def block(j):
        return (j + offset - 1,) * 2

    def lp_div(p):
        return BlockDivergence(p=p, block=block, comparator="constant", c=Q1)

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


def _power(name: str, params: dict, support: SupportSet, e: int, label: str) -> FamilySeq:
    """n**(n+e) on the support points n >= 1, zero elsewhere: its coefficient
    root test diverges.  Its tags are label-values and label-root."""
    support.require_infinite()
    offset = 2 if support.nth(1) == 0 else 1  # skip a leading 0 in the support

    def value(n):
        return Fraction(n) ** (n + e)

    def positive_point(m):
        return support.nth(m + offset - 1)

    def term(n, prec):
        if n >= 1 and support.member(n):
            return ComplexInterval.exact(value(n))
        return ComplexInterval.zero()

    tags = (
        SubseqLowerBound(
            label=f"{label}-values",
            s=positive_point,
            g=lambda m: value(positive_point(m)),
            g_inf=Q1,
        ),
        RootLowerBound(
            label=f"{label}-root", s=positive_point, rho=lambda m: Fraction(positive_point(m))
        ),
    )
    return FamilySeq(
        name,
        params,
        term,
        tags=tags,
        lp_div_fn=_unbounded_divergence(offset),
        support_hint=support,
    )


def nat_power() -> FamilySeq:
    """a_n = n**(n+1)."""
    return _power("nat-power", {}, AllNaturals(), 1, "nat-power")


def nn_on_support(support: SupportSet) -> FamilySeq:
    """n**n on the support points n >= 1, zero elsewhere."""
    return _power("nn-on-support", {"support": support.spec()}, support, 0, "nn")


def const_one() -> FamilySeq:
    """The constant sequence 1: bounded, not vanishing."""

    def term(n, prec):
        return _ONE

    sup, disc = _bounded_tails(term)
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
        disc_fn=disc,
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

    def term(n, prec):
        m = n + 2
        return _real_iv(*pow_bounds(Fraction(m * _floor_log2(m)), exponent, prec))

    def tail(N, q, prec):
        # sum_{m > N+2} m**-s <= (N+2)**(1-s) / (s-1), s = q/a
        return _power_tail(N + 2, q.numerator * a.denominator, q.denominator * a.numerator, prec)

    sup, disc = _bounded_tails(term)
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
        disc_fn=disc,
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
    ab_num, ab_den = (a + b).as_integer_ratio()

    def term(n, prec):
        return _real_iv(*pow_bounds(Fraction(n + 1), exponent, prec))

    def tail(N, q, prec):
        s_num, s_den = 2 * q.numerator * ab_den, q.denominator * ab_num  # s = 2q/(a+b)
        if N < 0:
            # the whole sequence: the n = 0 term 1 and the N = 0 tail, 1 + 1/(s-1)
            return Fraction(s_num, s_num - s_den)
        return _power_tail(N + 1, s_num, s_den, prec)

    sup, disc = _bounded_tails(term)

    def lp_div(p):
        # terms over positions [2**j, 2**(j+1)-1] are each >= 2**-(j+1)
        return BlockDivergence(p, dyadic_position_block, "constant", Fraction(1, 2))

    return FamilySeq(
        "gap-cap-lp",
        {"a": format_rational(a), "b": format_rational(b)},
        term,
        tail_fn=tail,
        sup_fn=sup,
        disc_fn=disc,
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

    sup, disc = _bounded_tails(term)

    def lp_div(p):
        # 2**j terms of value j**-p per L-aligned block; valid from the
        # least j >= 2p with 2**j >= j**p.  From 2p > p/ln 2 on the test
        # holds at every j past its first, so j doubles, then bisects back.
        # An operand past _EXACT_POWER_BITS gives no certificate (None).
        a, k = p.numerator, p.denominator

        def holds(j):
            if max(j * k, a * j.bit_length()) > _EXACT_POWER_BITS:
                return None
            return (1 << (j * k)) >= j ** a

        j = max(1, -(-2 * a // k))
        fails = j - 1
        while not (found := holds(j)):
            if found is None:
                return None
            fails, j = j, 2 * j
        while j - fails > 1:  # mid < j: its operands are smaller
            mid = (fails + j) // 2
            fails, j = (fails, mid) if holds(mid) else (mid, j)
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
        disc_fn=disc,
        lp_div_fn=lp_div,
        runs_fn=runs,
        support_hint=AllNaturals(),
    )


# -- registry ----------------------------------------------------------------


# family id -> (its parameter names, the builder taking their values in that order)
FAMILY_BUILDERS = {
    "prop28": ((), prop28),
    "rem29": (("support",), lambda support: rem29(support_from_spec(support))),
    "nat": ((), nat),
    "nat-power": ((), nat_power),
    "nn-on-support": (("support",), lambda support: nn_on_support(support_from_spec(support))),
    "gap-lp-cap": (("a",), lambda a: gap_lp_cap(parse_rational(a))),
    "gap-cap-lp": (("a", "b"), lambda a, b: gap_cap_lp(parse_rational(a), parse_rational(b))),
    "gap-cap-c0": (("b",), lambda b: gap_cap_c0(parse_rational(b))),
    "const-one": ((), const_one),
}


def family_from_spec(name: str, params: dict) -> FamilySeq:
    """The family ``name`` at ``params``, which must name each of its
    parameters and nothing else; ``params`` is an object."""
    entry = FAMILY_BUILDERS.get(name)
    if entry is None:
        raise ParseError(f"unknown family id {name!r}")
    keys, build = entry
    if not isinstance(params, dict):
        raise ParseError(f"family {name} params must be an object: {params!r}")
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise ParseError(f"family {name} has no parameter {min(unknown, key=str)!r}")
    for key in keys:
        if key not in params:
            raise ParseError(f"family params missing {key!r}")
    return build(*[params[key] for key in keys])
