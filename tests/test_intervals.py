from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqchain.intervals import (
    ComplexInterval,
    iroot,
    pow_bounds,
    root_bounds,
    sqrt_bounds,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=50)
nonneg = st.fractions(min_value=0, max_value=20, max_denominator=50)


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=7))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(nonneg, st.integers(min_value=1, max_value=5), st.integers(min_value=4, max_value=40))
def test_root_bounds_enclose_and_meet_width(q, k, prec):
    lo, hi = root_bounds(q, k, prec)
    assert lo ** k <= q <= hi ** k
    assert hi - lo <= Fraction(1, 1 << prec)


def test_root_bounds_exact_cases():
    assert sqrt_bounds(Fraction(1, 4), 10) == (Fraction(1, 2), Fraction(1, 2))
    assert sqrt_bounds(Fraction(9), 10) == (Fraction(3), Fraction(3))
    assert root_bounds(Fraction(27, 8), 3, 10) == (Fraction(3, 2), Fraction(3, 2))


def test_root_bounds_nested_in_precision():
    q = Fraction(2, 3)
    prev = root_bounds(q, 2, 4)
    for prec in range(5, 60):
        cur = root_bounds(q, 2, prec)
        assert prev[0] <= cur[0] <= cur[1] <= prev[1]
        prev = cur


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=20, max_denominator=50),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda e: e != 0),
    st.integers(min_value=8, max_value=48),
)
def test_pow_bounds_enclose(q, e, prec):
    lo, hi = pow_bounds(q, e, prec)
    assert hi - lo <= Fraction(1, 1 << prec)
    # compare through the positive-exponent power to stay in rationals
    n, d = e.numerator, e.denominator
    if n > 0:
        assert lo ** d <= q ** n
        assert hi ** d >= q ** n or hi ** d == q ** n
    else:
        assert (1 / hi) ** d <= q ** (-n) <= (1 / lo) ** d


def test_pow_negative_exact():
    assert pow_bounds(Fraction(4), Fraction(-1, 2), 20) == (Fraction(1, 2), Fraction(1, 2))


@given(
    st.fractions(min_value=Fraction(1, 40), max_value=Fraction(9, 10), max_denominator=40),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(-1, 4), max_denominator=8),
    st.integers(min_value=8, max_value=40),
)
def test_pow_negative_small_base_width_contract(q, e, prec):
    # the value q**e is large here; the width contract must still hold
    lo, hi = pow_bounds(q, e, prec)
    assert 0 < lo <= hi
    assert hi - lo <= Fraction(1, 1 << prec)
    d = e.denominator
    assert (1 / hi) ** d <= q ** (-e.numerator) <= (1 / lo) ** d


def test_pow_negative_nested_in_precision():
    q, e = Fraction(13, 2), Fraction(-3, 7)
    prev = pow_bounds(q, e, 6)
    for prec in range(7, 80):
        cur = pow_bounds(q, e, prec)
        assert prev[0] <= cur[0] <= cur[1] <= prev[1]
        prev = cur


@given(rationals, rationals, rationals, rationals)
def test_interval_add_scale_contain_point_values(a, b, c, d):
    z = ComplexInterval.exact(a, b)
    w = ComplexInterval.exact(c, d)
    s = z + w
    assert s.contains(a + c, b + d)
    scaled = z.scale(c, d)
    # (a+bi)(c+di)
    assert scaled.contains(a * c - b * d, a * d + b * c)


boxes = st.tuples(rationals, nonneg, rationals, nonneg)


@given(boxes, rationals, rationals, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_scale_contains_scaled_points_of_nondegenerate_boxes(box, c_re, c_im, tre, tim):
    re_lo, re_w, im_lo, im_w = box
    z = ComplexInterval(re_lo, re_lo + re_w, im_lo, im_lo + im_w)
    # pick a point of the box via the extra parameters
    px = re_lo + re_w * Fraction(tre, 3)
    py = im_lo + im_w * Fraction(tim, 3)
    assert z.contains(px, py)
    scaled = z.scale(c_re, c_im)
    assert scaled.contains(px * c_re - py * c_im, px * c_im + py * c_re)


@given(rationals, rationals, rationals, rationals)
def test_interval_mul_div_roundtrip(a, b, c, d):
    z = ComplexInterval.exact(a, b)
    w = ComplexInterval.exact(c, d)
    if not w.excludes_zero():
        return
    prod = z.mul(w)
    assert prod.contains(a * c - b * d, a * d + b * c)
    back = prod.div(w)
    assert back.contains(a, b)


def _box_product(z, w):
    """The textbook complex box product from four interval products."""

    def prod(a_lo, a_hi, b_lo, b_hi):
        ps = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        return min(ps), max(ps)

    ac = prod(z.re_lo, z.re_hi, w.re_lo, w.re_hi)
    bd = prod(z.im_lo, z.im_hi, w.im_lo, w.im_hi)
    ad = prod(z.re_lo, z.re_hi, w.im_lo, w.im_hi)
    bc = prod(z.im_lo, z.im_hi, w.re_lo, w.re_hi)
    return ComplexInterval(ac[0] - bd[1], ac[1] - bd[0], ad[0] + bc[0], ad[1] + bc[1])


@given(boxes, rationals, rationals)
def test_mul_by_a_point_has_the_box_product_endpoints(box, c_re, c_im):
    re_lo, re_w, im_lo, im_w = box
    z = ComplexInterval(re_lo, re_lo + re_w, im_lo, im_lo + im_w)
    c = ComplexInterval.exact(c_re, c_im)
    assert c.mul(z) == _box_product(c, z)
    assert z.mul(c) == _box_product(z, c)


@given(boxes)
def test_abs_sq_bounds_of_a_real_box(box):
    re_lo, re_w, _, _ = box
    z = ComplexInterval.from_real_bounds(re_lo, re_lo + re_w)
    lo, hi = z.abs_sq_bounds()
    squares = (re_lo * re_lo, (re_lo + re_w) ** 2)
    assert hi == max(squares)
    assert lo == (0 if re_lo <= 0 <= re_lo + re_w else min(squares))


def test_abs_bounds_contain_true_modulus():
    z = ComplexInterval.exact(Fraction(3), Fraction(4))
    lo, hi = z.abs_bounds(30)
    assert lo == hi == 5
    z2 = ComplexInterval.exact(Fraction(1), Fraction(1))
    lo2, hi2 = z2.abs_bounds(30)
    assert lo2 ** 2 <= 2 <= hi2 ** 2


def test_interval_width_and_subset():
    wide = ComplexInterval(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    narrow = ComplexInterval(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(1, 2))
    assert narrow.subset_of(wide)
    assert not wide.subset_of(narrow)
    assert wide.width == 1


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        ComplexInterval(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
