"""Distances read from a normal form: a scalar multiple's rows scaled by
homogeneity, cancelling forms at zero, and ``ball_scale`` searched from one
head.  The reference is the unnormalised path, a head over the nested
difference (``test_metric_rungs._ref_metric_bound``); no golden is read."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PREC, catalog
from seqchain import families
from seqchain.errors import BudgetExceeded, UnsupportedSpace
from seqchain.sequences import FiniteRational, combine, normal_form, spread, zero
from seqchain.spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    MetricBound,
    _Head,
    _radius_bits,
    _row,
    _upper_below,
    ball_scale,
    cap_lp,
    lp,
    metric_bound,
    metric_bounds,
)
from seqchain.supports import DyadicRow
from seqchain.witness import make_witness
from test_metric_rungs import _outcome, _ref_metric_bound

METRIC_SPACES = [lp(F(1, 2)), lp(1), lp(2), cap_lp(0), cap_lp(1), C0, LINF, HD, CN0]
CATALOG = catalog()


@given(
    name=st.sampled_from(sorted(CATALOG)),
    y=st.sampled_from(METRIC_SPACES),
    m=st.integers(0, 40),
)
def test_scaled_enclosures_meet_the_unnormalised_path(name, y, m):
    """d(2**-m x, 0) from x's own head, its rows scaled: it meets the nested
    path's enclosure at 4 * prec, and is at most 2**-prec wider than the
    nested path's at prec."""
    scaled, budget, prec = combine([F(1, 1 << m)], [CATALOG[name]]), 64, 32
    got = _outcome(metric_bound, y, scaled, zero(), budget, prec)
    fine = _outcome(_ref_metric_bound, y, scaled, zero(), budget, 4 * prec)
    coarse = _outcome(_ref_metric_bound, y, scaled, zero(), budget, prec)
    if not isinstance(got, MetricBound):  # no tail oracle on either path
        assert got[0] == fine[0] == coarse[0], (got, fine)
        return
    assert got.lower <= fine.upper and fine.lower <= got.upper, (str(y), got, fine)
    assert got.upper - got.lower <= coarse.upper - coarse.lower + F(1, 1 << prec)


def test_a_complex_multiple_meets_the_unnormalised_path():
    """|c|**p of a complex c is rooted from re**2 + im**2 on its own side."""
    c = (F(1, 3), F(-2, 5))
    for name in ("prop28", "finite", "gap-cap-lp-12"):
        scaled = combine([c], [CATALOG[name]])
        for y in METRIC_SPACES:
            got = _outcome(metric_bound, y, scaled, zero(), 64, 32)
            fine = _outcome(_ref_metric_bound, y, scaled, zero(), 64, 128)
            if isinstance(got, MetricBound):
                assert got.lower <= fine.upper and fine.lower <= got.upper, (name, str(y))
            else:
                assert got[0] == fine[0]


def _cancelling_pairs():
    s = families.gap_cap_lp(F(1), F(2))

    def x_plus_cw():
        x = FiniteRational({0: F(1, 3), 4: (F(-1, 7), F(2, 9))})
        return combine([1, F(1, 8)], [x, make_witness(AINF, lp(1), DyadicRow(1), 256, PREC).seq])

    return {
        "nat-nat": (families.nat(), families.nat()),
        "s+s~2s": (combine([1, 1], [s, s]), combine([2], [s])),
        "x+cw twice": (x_plus_cw(), x_plus_cw()),
        "nested": (combine([F(1, 2)], [combine([2, 1], [s, zero()])]), spread(s, DyadicRow(1))),
    }


@pytest.mark.parametrize("pair", ["nat-nat", "s+s~2s", "x+cw twice"])
def test_cancelling_normal_forms_are_zero_at_every_rung(pair):
    a, b = _cancelling_pairs()[pair]
    for y in METRIC_SPACES:
        walked = list(metric_bounds(y, a, b, 100, PREC))
        assert walked == [(rung, MetricBound(F(0), F(0))) for rung in (16, 32, 64)], str(y)
        assert _upper_below(metric_bounds(y, a, b, 100, PREC), F(0)) is None
    with pytest.raises(UnsupportedSpace):
        metric_bound(AINF, a, b, 100, PREC)


def test_normal_form_flattens_multiplies_and_sums_by_key():
    a, b = _cancelling_pairs()["nested"]
    s_key = families.gap_cap_lp(F(1), F(2)).spec_key()
    # 1/2 * (2 s + 1 * zero): the empty finite part goes, s keeps 1
    assert {k: c for k, (c, _) in normal_form([(F(1), F(0), a)]).items()} == {s_key: (F(1), F(0))}
    parts = normal_form([(F(0), F(1), a), (F(-1), F(0), b)])
    assert {k: c for k, (c, _) in parts.items()} == {
        s_key: (F(0), F(1)), b.spec_key(): (F(-1), F(0))
    }
    halved = combine([F(1, 2)], [a])
    assert normal_form([(F(1), F(0), a), (F(-1), F(0), halved), (F(0), F(0), b)]) == {
        s_key: ((F(1, 2), F(0)), parts[s_key][1])
    }


@pytest.mark.parametrize("radius", [F(1, 128), F(1, 2048)])
def test_ball_scale_postcondition_in_cap_lp_0(radius):
    """The radii that ``test_ball_scale_equals_the_full_ladder`` skips: the
    scale certifies at the capped budget and precision, twice it does not,
    and the unnormalised path at 4 * prec puts the distance below the radius."""
    y = cap_lp(0)
    w = make_witness(AINF, y, DyadicRow(1), 256, PREC).seq
    c = ball_scale(y, w, radius, 4096, PREC)
    budget, prec = 128, min(PREC, max(32, 12 + _radius_bits(radius)))
    assert _upper_below(metric_bounds(y, combine([c], [w]), zero(), budget, prec), radius) is not None
    doubled = metric_bounds(y, combine([2 * c], [w]), zero(), budget, prec)
    assert c < 1 and _upper_below(doubled, radius) is None
    assert _ref_metric_bound(y, combine([c], [w]), zero(), budget, 4 * prec).lower < radius


def test_no_remainder_check_for_a_zero_sequence():
    assert ball_scale(HD, zero(), F(1, 1 << 40), 16, PREC) == 1


def _within(inner, outer):
    return outer.lower <= inner.lower and inner.upper <= outer.upper


@pytest.mark.parametrize("budget, prec", [(16, 32), (16, 64), (256, 32), (256, 64)])
def test_re_recorded_one_part_bounds_lie_between_the_unnormalised_ones(budget, prec):
    """The bounds whose golden bytes changed with the normal form: rem29 on
    the powers of two against zero in cap-lp:1 (its own tails, no rounding
    of a combination's tail at prec), and the approx-cap-lp-0 report's x +
    c*w against x (rows scaled by |c|**p).  Each lies inside the
    unnormalised path's enclosure at prec, and contains it at a higher one
    (4 * prec, capped at 128 bits: at 256 bits cap-lp:1 reads 264 rows)."""
    x = FiniteRational({0: (F(1, 2), F(1, 3)), 3: F(-2, 5)})
    w = make_witness(AINF, cap_lp(0), DyadicRow(1), 4096, PREC).seq
    cases = [(cap_lp(1), CATALOG["rem29-pow2"], zero()),
             (cap_lp(0), combine([1, F(1, 256)], [x, w]), x)]
    for y, a, b in cases:
        got = metric_bound(y, a, b, budget, prec)
        assert _within(got, _ref_metric_bound(y, a, b, budget, prec)), str(y)
        assert _within(_ref_metric_bound(y, a, b, budget, min(4 * prec, 128)), got), str(y)


@pytest.mark.parametrize(
    "c", [(F(1, 3), F(0)), (F(-5, 4), F(0)), (F(1, 3), F(-2, 5)), (F(3, 5), F(4, 5))]
)
def test_modulus_powers_enclose_the_power_and_fall_as_the_modulus_halves(c):
    """lo**k <= |c|**a <= hi**k for e = a/k, read on |c|**2 = q for a
    complex c; and the upper end of |c/2|**e is below that of |c|**e."""
    head, q = _Head(zero(), 48), c[0] ** 2 + c[1] ** 2
    for e in (F(1), F(1, 2), F(1, 7), F(3, 2), F(5, 3)):
        lo, hi = head.power(c, e)
        a, k = e.numerator, e.denominator
        assert lo ** (2 * k) <= q ** a <= hi ** (2 * k), (c, e)
        assert head.power((c[0] / 2, c[1] / 2), e)[1] < hi


def test_scaled_rows_enclose_the_exact_row():
    """Each row kind of 1/3 * x, for x with three unit entries, read by
    ``_row`` from x's own head with its bounds scaled by |1/3| to the row's
    degree: lp at 1/2 (3 * 3**-1/2 = 3**1/2), lp at 3/2 rooted
    ((3 * 3**-3/2)**2/3 = 3**-1/3), sup (1/3) and disc at r = 2/3."""
    head, c, r = _Head(FiniteRational({0: 1, 2: 1, 5: 1}), 48), (F(1, 3), F(0)), F(2, 3)

    def row(kind, param, degree):
        return tuple(F(*pair) for pair in _row(head, kind, param, 16, 32, head.power(c, degree)))

    lo, hi = row("lp", F(1, 2), F(1, 2))
    assert lo ** 2 <= 3 <= hi ** 2
    lo, hi = row("lp", F(3, 2), F(3, 2))
    assert lo ** 3 <= F(1, 3) <= hi ** 3
    assert row("sup", None, F(1)) == (F(1, 3), F(1, 3))
    lo, hi = row("disc", r, F(1))
    assert lo <= (1 + r ** 2 + r ** 5) / 3 <= hi


@pytest.mark.parametrize(
    "y, budget, prec, K",
    [(HD, 16, PREC, 16), (cap_lp(0), 16, PREC, 16), (CN0, 4096, 16, 20)],
    ids=["hd", "cap-lp-0", "cn0"],
)
def test_the_remainder_check_fails_from_a_radius_of_2_to_the_minus_K(y, budget, prec, K):
    """The bound adds 2**-K at every scale: a radius of 2**-K fails at once,
    one of 2**-(K-1) is searched."""
    seq = FiniteRational({0: F(1, 3)})
    with pytest.raises(BudgetExceeded, match=f"adds 2\\*\\*-{K} at every scale"):
        ball_scale(y, seq, F(1, 1 << K), budget, prec)
    try:
        ball_scale(y, seq, F(1, 1 << (K - 1)), budget, prec)
    except BudgetExceeded as err:
        assert "halvings" in str(err)
