import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import catalog, random_finite
from seqchain import spaces
from seqchain.errors import BudgetExceeded, MissingTailOracle, UnknownSpace, UnsupportedSpace
from seqchain.families import const_one, gap_cap_c0, gap_cap_lp, nat, prop28
from seqchain.intervals import ComplexInterval
from seqchain.sequences import (
    Combine,
    FiniteRational,
    combine,
    spread,
    unit,
    zero,
)
from seqchain.spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    MetricBound,
    adjacent_pairs,
    ball_scale,
    cap_lp,
    lp,
    metric_bound,
    parse_space,
    standard_chain,
    _Head,
    _nested_sum,
    strictly_included,
)
from seqchain.supports import Arith, DyadicRow, PowersOfTwo
from test_intervals import _ref_pow_bounds

F = Fraction


# -- descriptors and order ---------------------------------------------------


def test_parse_and_format_roundtrip():
    for text in ("ainf", "cap-lp:0/1", "lp:1/2", "c0", "linf", "hd", "cn0"):
        assert str(parse_space(text)) == text
    assert parse_space("lp:2") == lp(2)
    assert parse_space(" cap-lp:3 ") == cap_lp(3)


def test_invalid_spaces_rejected():
    with pytest.raises(UnknownSpace):
        parse_space("banach")
    with pytest.raises(UnknownSpace):
        parse_space("lp:0")
    with pytest.raises(UnknownSpace):
        parse_space("cap-lp:-1")
    with pytest.raises(UnknownSpace):
        parse_space("lp")


def test_chain_order_examples():
    assert strictly_included(lp(1), C0)
    assert not strictly_included(C0, lp(1))
    assert not strictly_included(lp(2), lp(2))


def _space_grid():
    params = [F(1, 2), F(1), F(3, 2), F(2), F(7, 2)]
    grid = [AINF, cap_lp(0), C0, LINF, HD, CN0]
    grid += [lp(p) for p in params] + [cap_lp(p) for p in params]
    return grid


def test_order_is_strict_total_order_on_grid():
    grid = _space_grid()
    for x in grid:
        assert not strictly_included(x, x)
    for x, y in itertools.permutations(grid, 2):
        assert strictly_included(x, y) != strictly_included(y, x)  # trichotomy
    for x, y, z in itertools.permutations(grid, 3):
        if strictly_included(x, y) and strictly_included(y, z):
            assert strictly_included(x, z)


def test_standard_chain_is_ascending():
    chain = standard_chain()
    assert len(chain) == 10
    for x, y in zip(chain, chain[1:]):
        assert strictly_included(x, y)
    assert len(adjacent_pairs()) == 9


def test_interleaving_with_parameters():
    assert strictly_included(lp(1), cap_lp(1))
    assert strictly_included(cap_lp(1), lp(2))
    assert strictly_included(cap_lp(0), lp(F(1, 100)))
    assert strictly_included(AINF, cap_lp(0))


# -- metric bounds ------------------------------------------------------------


ALL_SPACES = [lp(1), lp(2), lp(F(1, 2)), cap_lp(0), cap_lp(1), C0, LINF, HD, CN0, AINF]


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
def test_identity_of_indiscernibles_bound(space):
    a = FiniteRational({0: F(3, 4), 5: (F(1), F(2))})
    if space == AINF:  # no metric, even between a sequence and itself
        with pytest.raises(UnsupportedSpace):
            metric_bound(space, a, a, 64, 32)
        return
    assert metric_bound(space, a, a, 64, 32) == MetricBound(F(0), F(0))


def test_sup_metric_unit_sequence():
    mb = metric_bound(C0, unit(0), zero(), 64, 32)
    assert mb.lower <= 1 <= mb.upper
    assert mb.lower == mb.upper == 1


def test_l1_metric_finite():
    a = FiniteRational({0: F(3, 4)})
    mb = metric_bound(lp(1), a, zero(), 64, 32)
    assert mb.lower == mb.upper == F(3, 4)


def test_l2_metric_uses_root():
    a = FiniteRational({0: F(3), 1: F(4)})
    mb = metric_bound(lp(2), a, zero(), 64, 32)
    assert mb.lower == mb.upper == 5


def test_sub_one_exponent_metric_is_power_sum():
    a = FiniteRational({0: F(1, 4), 1: F(1, 4)})
    mb = metric_bound(lp(F(1, 2)), a, zero(), 64, 32)
    assert mb.lower == mb.upper == 1  # two terms of (1/4)**(1/2)


def test_metric_symmetry_at_bound_level():
    rng = random.Random(3)
    for _ in range(10):
        a, b = random_finite(rng), random_finite(rng)
        for space in (lp(1), C0, CN0, cap_lp(1)):
            assert metric_bound(space, a, b, 64, 32) == metric_bound(space, b, a, 64, 32)


def test_metric_triangle_at_bound_level():
    rng = random.Random(5)
    slack = F(1, 1 << 30)
    for _ in range(8):
        a, b, c = (random_finite(rng) for _ in range(3))
        for space in (lp(1), lp(2), C0, CN0):
            ab = metric_bound(space, a, b, 64, 32).upper
            bc = metric_bound(space, b, c, 64, 32).upper
            ac = metric_bound(space, a, c, 64, 32).upper
            assert ac <= ab + bc + slack


@pytest.mark.parametrize("space", [lp(1), lp(2), C0, CN0, cap_lp(1), HD], ids=str)
def test_budget_monotonicity(space):
    a = prop28()
    bounds = [metric_bound(space, a, zero(), budget, 32) for budget in (16, 64, 256, 1024)]
    for prev, cur in zip(bounds, bounds[1:]):
        assert cur.lower >= prev.lower
        assert cur.upper <= prev.upper


def test_metric_missing_tail_oracle():
    with pytest.raises(MissingTailOracle):
        metric_bound(lp(1), nat(), zero(), 32, 32)
    with pytest.raises(MissingTailOracle):
        metric_bound(C0, nat(), zero(), 32, 32)


def test_cn0_metric_total():
    # the pointwise-convergence metric needs no tail data at all
    mb = metric_bound(CN0, nat(), zero(), 64, 32)
    assert 0 < mb.lower <= mb.upper <= 2


def test_hd_metric_on_nat():
    mb = metric_bound(HD, nat(), zero(), 64, 32)
    assert mb.upper is not None and mb.lower > 0


def test_cap_metric_unit_sequence_value():
    # every inner exponent sees distance exactly 1, so the weighted sum of
    # q/(1+q) telescopes to 1/2
    mb = metric_bound(cap_lp(0), unit(0), zero(), 64, 32)
    assert mb.lower <= F(1, 2) <= mb.upper
    assert mb.upper - mb.lower < F(1, 1 << 16)


def test_hd_metric_unit_sequence_value():
    # each disc majorant is exactly 1, so the capped weighted sum is 1
    mb = metric_bound(HD, unit(0), zero(), 64, 32)
    assert mb.lower <= 1 <= mb.upper
    assert mb.upper - mb.lower < F(1, 1 << 16)


def test_ainf_has_no_metric():
    # ainf is the bottom of the chain, never an outer space: no seminorm rows
    a = FiniteRational({2: F(1)})
    with pytest.raises(UnsupportedSpace):
        metric_bound(AINF, a, zero(), 64, 32)
    with pytest.raises(UnsupportedSpace):
        spaces.seminorm_rows(AINF)


# Exact bounds, in units of 2**-72, that the metric gave before its heads
# were shared across the budget ladder: the rewrite must reproduce them.
_PINNED_FINITE = FiniteRational({0: (F(1, 3), F(-2, 7)), 3: F(5, 2), 17: F(-1, 9)})
_PINNED_BOUNDS = [
    ("lp:1/1", 256, 25092116048602349599791, 25804666124192351456537),
    ("lp:1/1", 4096, 25626528605294850992279, 25804666124192351456475),
    ("lp:1/2", 256, 30888869819252988111011, 37128548600362423247548),
    ("lp:1/2", 4096, 34008709209807705678489, 37128548600362423246979),
    ("c0", 256, 11805916207174113034240, 11805916207174113034240),
    ("c0", 4096, 11805916207174113034240, 11805916207174113034240),
    ("linf", 256, 11805916207174113034240, 11805916207174113034240),
    ("linf", 4096, 11805916207174113034240, 11805916207174113034240),
    ("cn0", 256, 2454601417408091621449, 2454601417408091621466),
    ("cn0", 4096, 2454601417408091621449, 2454601417408091621466),
    ("hd", 256, 4630134774737644538657, 4630134774737644538659),
    ("hd", 4096, 4630134774737644538657, 4630134774737644538659),
    ("cap-lp:0/1", 256, 4060518117606193522857, 4138811866402935288911),
    ("cap-lp:0/1", 4096, 4086886095953930375956, 4138811866402935288908),
]


@pytest.mark.parametrize("space, budget, lower, upper", _PINNED_BOUNDS, ids=lambda v: str(v))
def test_metric_bound_pinned_values(space, budget, lower, upper):
    # prop28 against a finite sequence
    mb = metric_bound(parse_space(space), prop28(), _PINNED_FINITE, budget, 64)
    assert mb == MetricBound(F(lower, 1 << 72), F(upper, 1 << 72))


def test_combine_on_disjoint_rows_sums_scaled_base_terms():
    bases = [
        spread(gap_cap_lp(F(1), F(2)), DyadicRow(1)),
        spread(prop28(), DyadicRow(2)),
        spread(gap_cap_c0(F(2)), DyadicRow(3)),
    ]
    coeffs = [(F(3), F(-1)), (F(-1, 2), F(0)), (F(0), F(5, 7))]
    f = combine(coeffs, bases)
    assert isinstance(f, Combine)
    prec = 40
    child = prec + f._bump
    # 0, 2 on row 1; 1, 5 on row 2; 3, 11 on row 3; 7 on row 4, off all three
    for n in (0, 1, 2, 3, 5, 7, 11):
        expected = ComplexInterval.zero()
        for (re, im), base in zip(coeffs, bases):
            expected = expected + base.term(n, child).scale(re, im)
        assert f.term(n, prec) == expected
    assert f.term(7, prec).is_exact_zero


# -- integer head sums against exact Fraction sums ------------------------------

# The head sums as they were computed term by term in Fraction arithmetic,
# before they became integer numerators over a known denominator; the
# integer sums must give exactly the same rationals.


def _ref_abs(seq, n, hp):
    iv = seq.term(n, hp)
    return None if iv.is_exact_zero else iv.abs_bounds(hp)


def _ref_floor_grid(x, bits):
    return Fraction(math.floor(x * (1 << bits)), 1 << bits)


def _ref_ceil_grid(x, bits):
    return Fraction(math.ceil(x * (1 << bits)), 1 << bits)


def _ref_disc_sum(seq, r, N, hp):
    lo = hi = F(0)
    for n in sorted(seq.support_hint.elements_upto(N)):
        a = _ref_abs(seq, n, hp)
        if a is not None:
            lo += a[0] * r ** n
            hi += a[1] * r ** n
    return lo, hi


def _ref_ratio_sum(seq, N, hp):
    lo = hi = F(0)
    for n in range(N + 1):
        a = _ref_abs(seq, n, hp)
        if a is not None:
            weight = F(1, 1 << n)
            lo += _ref_floor_grid(weight * a[0] / (1 + a[0]), hp)
            hi += _ref_ceil_grid(weight * a[1] / (1 + a[1]), hp)
    return lo, hi


def _ref_nested_sum(N, prec, summand):
    grid = prec + 16
    K = min(N, max(16, prec + 8))
    lo = hi = F(0)
    for k in range(1, K + 1):
        s_lo, s_hi = summand(k, max(16, min(N, 4096 // k)))
        lo += _ref_floor_grid(F(1, 1 << k) * s_lo, grid)
        hi += _ref_ceil_grid(F(1, 1 << k) * s_hi, grid)
    return lo, hi + F(1, 1 << K)


_head_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
_head_entries = st.one_of(
    st.just((F(0), F(0))),  # an exact zero
    st.tuples(_head_rationals, st.just(F(0))),  # real: |x| is exact, often not dyadic
    st.tuples(_head_rationals, _head_rationals),
)
_head_finite = st.dictionaries(st.integers(0, 90), _head_entries, max_size=8).map(FiniteRational)
_head_spreads = st.builds(
    spread, _head_finite, st.sampled_from([Arith(1, 3), PowersOfTwo(), DyadicRow(2)])
)
_head_sequences = st.one_of(
    _head_finite,
    _head_spreads,
    st.builds(
        lambda a, b, c: combine([c, (F(1, 3), F(-2, 7))], [a, b]),
        _head_finite, _head_spreads, _head_rationals,
    ),
    _head_finite.map(lambda a: combine([1, -1], [prop28(), a])),
)
# one to four increasing cutoffs; -1 is the empty head
_head_cutoffs = st.lists(st.integers(-1, 160), min_size=1, max_size=4).map(sorted)


@given(_head_sequences, st.integers(1, 72), _head_cutoffs, st.sampled_from([32, 64]))
def test_disc_sum_equals_fraction_sum(seq, k, cutoffs, prec):
    head, r = _Head(seq, prec + 16), F(k, k + 1)
    for N in cutoffs:
        pairs = head.disc_sum(r, N)
        assert all(den > 0 for _, den in pairs)
        assert tuple(F(*pair) for pair in pairs) == _ref_disc_sum(seq, r, N, prec + 16)


@given(_head_sequences, _head_cutoffs, st.sampled_from([32, 64]))
def test_ratio_sum_equals_fraction_sum(seq, cutoffs, prec):
    head = _Head(seq, prec + 16)
    for N in cutoffs:
        assert head.ratio_sum(N) == _ref_ratio_sum(seq, N, prec + 16)


def _ref_power_sum(seq, p, N, hp):
    lo = hi = F(0)
    for n in sorted(seq.support_hint.elements_upto(N)):
        iv = seq.term(n, hp)
        if not iv.is_exact_zero:
            sq_lo, sq_hi = iv.abs_sq_bounds()
            lo += _ref_pow_bounds(sq_lo, p / 2, hp)[0]
            hi += _ref_pow_bounds(sq_hi, p / 2, hp)[1]
    return lo, hi


# lp exponents, and cap-lp exponents a + 1/n; p = 2 makes every summand exact
_POWER_EXPONENTS = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(1, 3), F(4, 3), F(13, 6), F(5, 4)]


@given(_head_sequences, st.sampled_from(_POWER_EXPONENTS), _head_cutoffs, st.sampled_from([32, 64]))
def test_power_sum_equals_fraction_sum(seq, p, cutoffs, prec):
    head = _Head(seq, prec + 16)
    for N in cutoffs:
        assert head.power_sum(p, N) == _ref_power_sum(seq, p, N, prec + 16)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_power_sums_on_the_catalog_equal_fraction_sums(name):
    seq = catalog()[name]
    head = _Head(seq, 80)
    for N in (-1, 0, 9, 40):
        for p in _POWER_EXPONENTS:
            assert head.power_sum(p, N) == _ref_power_sum(seq, p, N, 80), (N, p)


@pytest.mark.parametrize(
    "head_sum",
    [
        lambda head, N: tuple(F(*pair) for pair in head.disc_sum(F(2, 3), N)),
        lambda head, N: head.power_sum(F(3, 2), N),
        lambda head, N: head.max_abs(N),
        lambda head, N: head.ratio_sum(N),
    ],
    ids=["disc", "power", "max", "ratio"],
)
def test_head_sums_keep_their_cutoff_and_cannot_shrink(head_sum):
    head = _Head(catalog()["prop28"], 48)
    first = head_sum(head, 9)
    assert head_sum(head, 9) == first
    assert head_sum(head, 20) == head_sum(_Head(catalog()["prop28"], 48), 20)
    with pytest.raises(ValueError, match="cannot shrink"):
        head_sum(head, 9)


@given(
    st.lists(st.tuples(_head_rationals, _head_rationals), min_size=1, max_size=5),
    st.lists(st.integers(0, 700), min_size=1, max_size=4).map(sorted),
    st.sampled_from([16, 32, 64]),
)
def test_nested_sum_equals_fraction_sum(table, cutoffs, prec):
    # summands in [0, 1] with arbitrary, mostly non-dyadic denominators
    def ref_summand(k, inner):
        a, b = table[(k + inner) % len(table)]
        lo = min(abs(a), abs(b)) / (1 + abs(a) + abs(b)) / k
        return lo, min(F(1), lo + F(1, inner + k))

    # the same values as integer pairs, not reduced: a common factor must not
    # move a grid floor or ceiling
    def summand(k, inner):
        return tuple((x.numerator * (k + 2), x.denominator * (k + 2)) for x in ref_summand(k, inner))

    head = _Head(zero(), prec + 16)
    for N in cutoffs:
        assert _nested_sum(head, N, prec, summand) == _ref_nested_sum(N, prec, ref_summand)


@given(_head_sequences, _head_cutoffs)
def test_nested_disc_sums_equal_fraction_sums(seq, cutoffs):
    # the hd metric's pattern: the nested parts and the disc sums of one
    # head grow together, each radius from its own last inner cutoff
    head = _Head(seq, 32 + 16)

    def summand(k, inner):
        return tuple(pair if F(*pair) < 1 else (1, 1) for pair in head.disc_sum(F(k, k + 1), inner))

    def ref_summand(k, inner):
        lo, hi = _ref_disc_sum(seq, F(k, k + 1), inner, 32 + 16)
        return min(F(1), lo), min(F(1), hi)

    for N in cutoffs:
        N = max(0, N)
        assert _nested_sum(head, N, 32, summand) == _ref_nested_sum(N, 32, ref_summand)


# -- ball_scale ----------------------------------------------------------------


def test_ball_scale_sup_strict_inequality():
    y = unit(0)
    assert ball_scale(C0, y, F(1, 2), 64, 32) == F(1, 4)
    assert ball_scale(C0, y, F(2), 64, 32) == F(1)


def test_ball_scale_l1():
    y = FiniteRational({0: F(1)})
    assert ball_scale(lp(1), y, F(1, 8), 64, 32) == F(1, 16)


def test_ball_scale_postcondition_reverifiable():
    y = const_one()
    for space, radius in ((C0, F(1, 3)), (LINF, F(1, 5))):
        c = ball_scale(space, y, radius, 64, 32)
        scaled = combine([c], [y])
        assert metric_bound(space, scaled, zero(), 64, 32).upper < radius


def test_ball_scale_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(spaces, "_MAX_HALVINGS", 2)
    with pytest.raises(BudgetExceeded, match="radius 1/10 in 2 halvings"):
        ball_scale(C0, unit(0), F(1, 10), 64, 32)
