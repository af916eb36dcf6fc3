from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqchain.errors import SeqchainError
from seqchain.intervals import (
    ComplexInterval,
    DiscSum,
    PowSum,
    format_rational,
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


def _ref_interval_mul(a_lo, a_hi, b_lo, b_hi):
    ps = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(ps), max(ps)


def _box_product(z, w):
    """The textbook complex box product from four interval products."""
    prod = _ref_interval_mul
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


# -- float-seeded integer roots ---------------------------------------------

orders = st.integers(min_value=3, max_value=200)


@st.composite
def root_operands(draw):
    """(n, k): n up to 12,000 bits, perfect k-th powers and their neighbours,
    and n below 2**k (floor root 1)."""
    k = draw(orders)
    shape = draw(st.sampled_from(["any", "power", "small"]))
    if shape == "any":
        return draw(st.integers(min_value=0, max_value=(1 << 12000) - 1)), k
    if shape == "small":
        return draw(st.integers(min_value=1, max_value=(1 << k) - 1)), k
    r = draw(st.integers(min_value=1, max_value=1 << (12000 // k)))
    return max(0, r ** k + draw(st.sampled_from([-1, 0, 1]))), k


@settings(max_examples=300)
@given(root_operands())
def test_iroot_is_floor_root_for_large_operands_and_orders(case):
    n, k = case
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=1, max_value=1 << 600), orders)
def test_iroot_of_exact_powers_and_neighbours(r, k):
    assert iroot(r ** k, k) == r
    assert iroot(r ** k - 1, k) == r - 1
    assert iroot(r ** k + 1, k) == r


# The enclosures before roots were float-seeded, kept as the reference:
# Newton from a power of two above the root, and a floor of a scaled root
# corrected by counting up and down.


def _ref_iroot(n, k):
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _ref_floor_scaled_root(num, den, k, scale):
    shifted = num << (k * scale)
    r = _ref_iroot(shifted // den, k)
    while (r + 1) ** k * den <= shifted:
        r += 1
    while r > 0 and r ** k * den > shifted:
        r -= 1
    return r


def _ref_root_bounds(q, k, prec):
    if q == 0:
        return Fraction(0), Fraction(0)
    num, den = q.numerator, q.denominator
    rn, rd = _ref_iroot(num, k), _ref_iroot(den, k)
    if rn ** k == num and rd ** k == den:
        return Fraction(rn, rd), Fraction(rn, rd)
    scale = prec + 1
    lo = _ref_floor_scaled_root(num, den, k, scale)
    unit = Fraction(1, 1 << scale)
    return lo * unit, (lo + 1) * unit


def _ref_pow_bounds(q, e, prec):
    if e == 0:
        return Fraction(1), Fraction(1)
    if e < 0:
        t = 0
        if q < 1:
            t = q.denominator.bit_length() - q.numerator.bit_length() + 1
            t = -(-(-e.numerator * t) // e.denominator)
        lo_p, hi_p = _ref_pow_bounds(q, -e, prec + 2 + 2 * t)
        return 1 / hi_p, 1 / lo_p
    if q == 0:
        return Fraction(0), Fraction(0)
    return _ref_root_bounds(q ** e.numerator, e.denominator, prec)


wide_nonneg = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


@st.composite
def perfect_power_ratios(draw):
    k = draw(st.integers(min_value=2, max_value=40))
    num = draw(st.integers(min_value=1, max_value=1000)) ** k
    den = draw(st.integers(min_value=1, max_value=1000))
    return Fraction(num, draw(st.sampled_from([den, den ** k]))), k


@given(wide_nonneg, st.integers(min_value=1, max_value=60), st.integers(min_value=4, max_value=200))
def test_root_bounds_equal_the_reference(q, k, prec):
    assert root_bounds(q, k, prec) == _ref_root_bounds(q, k, prec)


@given(perfect_power_ratios(), st.integers(min_value=4, max_value=200))
def test_root_bounds_of_perfect_power_numerators_equal_the_reference(case, prec):
    q, k = case
    assert root_bounds(q, k, prec) == _ref_root_bounds(q, k, prec)


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    st.fractions(min_value=-4, max_value=4, max_denominator=40),
    st.integers(min_value=8, max_value=128),
)
def test_pow_bounds_equal_the_reference(q, e, prec):
    assert pow_bounds(q, e, prec) == _ref_pow_bounds(q, e, prec)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=8, max_value=128))
def test_pow_bounds_with_order_2n_roots_equal_the_reference(n, prec):
    # the cap-lp exponents 1 + 1/n power |a|**2 through a root of order 2n
    q, e = Fraction(3, 17), Fraction(n + 1, 2 * n)
    assert pow_bounds(q, e, prec) == _ref_pow_bounds(q, e, prec)


# -- zero-skipping box arithmetic ---------------------------------------------

zero_or_rational = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def real_or_complex_boxes(draw):
    re_lo, re_w = draw(rationals), draw(nonneg)
    if draw(st.booleans()):
        return ComplexInterval.from_real_bounds(re_lo, re_lo + re_w)
    im_lo, im_w = draw(zero_or_rational), draw(nonneg)
    return ComplexInterval(re_lo, re_lo + re_w, im_lo, im_lo + im_w)


@given(real_or_complex_boxes(), rationals, zero_or_rational)
def test_scale_equals_the_four_product_formula(z, c_re, c_im):
    assert z.scale(c_re, c_im) == _box_product(z, ComplexInterval.exact(c_re, c_im))


@given(real_or_complex_boxes(), real_or_complex_boxes())
def test_add_equals_the_componentwise_sum(z, w):
    assert z + w == ComplexInterval(
        z.re_lo + w.re_lo, z.re_hi + w.re_hi, z.im_lo + w.im_lo, z.im_hi + w.im_hi
    )


def test_format_rational_past_the_digit_limit_is_a_seqchain_error():
    with pytest.raises(SeqchainError, match="integer-to-string"):
        format_rational(Fraction(10 ** 5000 + 1, 3))


# -- the integer kernel: rationality tested on the base -------------------------

# pow_bounds tests whether q**(a/k) is rational on q itself, not on q**a;
# with gcd(a, k) = 1 both tests agree, and every enclosure must equal the
# reference, which roots q**a.


def _coprime_exponent(a, k, sign):
    a = a if gcd(a, k) == 1 else 1
    return sign * Fraction(a, k)


small_bases = st.integers(min_value=1, max_value=60)
signs = st.sampled_from([1, -1])


@given(small_bases, small_bases, st.integers(2, 40), st.integers(1, 9), signs,
       st.integers(8, 128))
def test_pow_bounds_of_exact_power_bases_equal_the_reference(r, s, k, a, sign, prec):
    q, e = Fraction(r ** k, s ** k), _coprime_exponent(a, k, sign)
    got = pow_bounds(q, e, prec)
    assert got == _ref_pow_bounds(q, e, prec)
    assert got[0] == got[1] == Fraction(r, s) ** (e.numerator)


@given(small_bases, st.integers(2, 10 ** 6), st.integers(2, 40), st.integers(1, 9), signs,
       st.booleans(), st.integers(8, 128))
def test_pow_bounds_with_one_power_side_equal_the_reference(r, d, k, a, sign, flip, prec):
    # a numerator that is a k-th power over a denominator that is not
    # (or the other way round): the power is irrational
    if iroot(d, k) ** k == d:
        d += 1
    q, e = Fraction(r ** k, d), _coprime_exponent(a, k, sign)
    if flip:
        q = 1 / q
    lo, hi = pow_bounds(q, e, prec)
    assert (lo, hi) == _ref_pow_bounds(q, e, prec)
    assert lo < hi


@given(
    st.integers(min_value=1, max_value=(1 << 200) - 1),
    st.integers(130, 180),
    st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(2, 3),
                     Fraction(3, 2), Fraction(5, 4), Fraction(73, 144)]),
    st.sampled_from([64, 80, 96]),
)
def test_pow_bounds_of_grid_values_equal_the_reference(m, bits, e, prec):
    # squared head moduli are integers over 2**130 and more
    q = Fraction(m, 1 << bits)
    assert pow_bounds(q, e, prec) == _ref_pow_bounds(q, e, prec)


@settings(max_examples=100)
@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    st.integers(1, 144),
    st.integers(1, 3),
    signs,
    st.sampled_from([16, 64, 128]),
)
def test_pow_bounds_with_orders_up_to_144_equal_the_reference(q, k, a, sign, prec):
    # cap-lp:0 roots of order 2n for n <= 72, and k = 1 (integer powers)
    e = _coprime_exponent(a, k, sign)
    assert pow_bounds(q, e, prec) == _ref_pow_bounds(q, e, prec)


@given(wide_nonneg, st.integers(1, 144), st.integers(4, 200))
def test_root_bounds_is_pow_bounds_at_one_over_k(q, k, prec):
    assert root_bounds(q, k, prec) == pow_bounds(q, Fraction(1, k), prec)


@given(
    st.fractions(min_value=-1000, max_value=Fraction(-1, 50), max_denominator=50),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.integers(1, 8),
)
def test_negative_bases_are_rejected(q, e, k):
    # the domain is q >= 0, whatever the exponent: even numerators and e = 0 too
    with pytest.raises(ValueError):
        pow_bounds(q, e, 32)
    with pytest.raises(ValueError):
        root_bounds(q, k, 32)


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.just(Fraction(0)),
                st.fractions(min_value=0, max_value=50, max_denominator=50),
                st.builds(lambda r, s: Fraction(r * r, s * s), small_bases, small_bases),
            ),
            st.integers(1, 5),
        ),
        max_size=12,
    ),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 8)]),
    st.integers(8, 96),
)
def test_pow_sum_equals_the_sum_of_reference_endpoints(terms, e, prec):
    lo_sum, hi_sum = PowSum(e, prec), PowSum(e, prec, upper=True)
    ref_lo = ref_hi = Fraction(0)
    for q, count in terms:
        lo_sum.add(q, count)
        hi_sum.add(q, count)
        lo, hi = _ref_pow_bounds(q, e, prec)
        ref_lo += count * lo
        ref_hi += count * hi
    assert (lo_sum.value, hi_sum.value) == (ref_lo, ref_hi)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),  # gap to the previous index
            st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=50, max_denominator=60)),
        ),
        max_size=20,
    ),
    st.one_of(
        st.integers(1, 72).map(lambda k: Fraction(k, k + 1)),
        st.fractions(min_value=0, max_value=3, max_denominator=40),
    ),
)
def test_disc_sum_equals_the_reference_sum_at_every_prefix(steps, r):
    acc, ref, n, terms = DiscSum(r), Fraction(0), 0, []
    assert acc.value == 0  # the empty prefix
    for gap, a in steps:
        n += gap
        acc.extend([(n, a)])
        ref += a * r ** n
        assert acc.value == ref, (n, a)
        terms.append((n, a))
    assert DiscSum(r).extend(terms).value == ref  # all terms in one call
    assert DiscSum(r).extend(terms[:2]).extend(terms[2:]).value == ref


def test_equal_zero_boxes_are_exact_zeros():
    assert ComplexInterval.zero().is_exact_zero
    assert ComplexInterval.exact(0).is_exact_zero
    assert ComplexInterval(Fraction(0), Fraction(0), Fraction(0), Fraction(0)).is_exact_zero
    assert not ComplexInterval.exact(0, Fraction(1, 3)).is_exact_zero
    assert not ComplexInterval.from_real_bounds(0, Fraction(1, 9)).is_exact_zero


def test_scale_by_one_is_the_box_itself():
    z = ComplexInterval(Fraction(-1, 3), Fraction(2, 7), Fraction(1, 5), Fraction(4, 9))
    assert z.scale(1) is z
    assert z.scale(Fraction(1), Fraction(0)) is z
    assert z.scale(Fraction(1)) == _box_product(z, ComplexInterval.exact(1))


# -- one endpoint object per zero-width axis ----------------------------------
#
# Reference copies of the general box formulas, which compute every
# endpoint on its own: the kernel's shortcuts on points and zeros must give
# the same rationals.  Endpoints are compared as tuples of Fractions, so
# these tests do not rest on ComplexInterval.__eq__.


def _ends(z):
    return (z.re_lo, z.re_hi, z.im_lo, z.im_hi)


def _ref_add(z, w):
    return tuple(a + b for a, b in zip(_ends(z), _ends(w)))


def _ref_neg(z):
    return (-z.re_hi, -z.re_lo, -z.im_hi, -z.im_lo)


def _ref_conj(z):
    return (z.re_lo, z.re_hi, -z.im_hi, -z.im_lo)


def _ref_sq(lo, hi):
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Fraction(0), max(lo * lo, hi * hi)


def _ref_abs_sq(z):
    r, i = _ref_sq(z.re_lo, z.re_hi), _ref_sq(z.im_lo, z.im_hi)
    return r[0] + i[0], r[1] + i[1]


def _ref_div(z, w):
    d_lo, d_hi = _ref_abs_sq(w)
    num = _box_product(z, ComplexInterval(*_ref_conj(w)))
    re = _ref_interval_mul(num.re_lo, num.re_hi, 1 / d_hi, 1 / d_lo)
    im = _ref_interval_mul(num.im_lo, num.im_hi, 1 / d_hi, 1 / d_lo)
    return re + im


def _ref_abs_bounds(z, prec):
    sq_lo, sq_hi = _ref_abs_sq(z)
    return _ref_root_bounds(sq_lo, 2, prec)[0], _ref_root_bounds(sq_hi, 2, prec)[1]


def _copy(q):
    """An equal Fraction that is a distinct object."""
    return Fraction(q.numerator, q.denominator)


@st.composite
def point_or_wide_boxes(draw):
    """Boxes whose axes are points or not, real or complex; the high end of
    every axis is a new object, equal to the low end on a point axis."""

    def axis(lo):
        return lo, lo + draw(st.one_of(st.just(Fraction(0)), nonneg))

    im_lo = draw(st.one_of(st.just(Fraction(0)), rationals))
    return ComplexInterval(*axis(draw(rationals)), *axis(im_lo))


def _one_object_per_point_axis(z):
    return (z.re_lo is z.re_hi or z.re_lo != z.re_hi) and (
        z.im_lo is z.im_hi or z.im_lo != z.im_hi
    )


@given(point_or_wide_boxes(), point_or_wide_boxes(), rationals, zero_or_rational, nonneg)
def test_zero_width_axes_hold_one_endpoint_object(z, w, c_re, c_im, q):
    built = [
        z,
        w,
        ComplexInterval.exact(c_re, c_im),
        ComplexInterval.from_real_bounds(c_re, _copy(c_re)),
        ComplexInterval.from_real_bounds(q, q + 1),
        ComplexInterval(c_re, _copy(c_re), c_im, _copy(c_im)),
        z.scale(c_re, c_im),
        z + w,
        z - w,
        -z,
        z.mul(w),
        z.conj(),
    ]
    if w.excludes_zero():
        built.append(z.div(w))
    for box in built:
        assert _one_object_per_point_axis(box)
    for lo, hi in (z.abs_sq_bounds(), z.abs_bounds(64)):
        assert lo is hi or lo != hi
    if q:
        lo, hi = pow_bounds(q * q, Fraction(-1, 2), 64)  # the exact 1/q
        assert lo is hi and lo == 1 / q


@given(point_or_wide_boxes(), point_or_wide_boxes(), rationals, zero_or_rational)
def test_box_ops_equal_the_general_formulas(z, w, c_re, c_im):
    c = ComplexInterval.exact(c_re, c_im)
    assert _ends(z.scale(c_re, c_im)) == _ends(_box_product(z, c))
    assert _ends(z + w) == _ref_add(z, w)
    assert _ends(z - w) == _ref_add(z, ComplexInterval(*_ref_neg(w)))
    assert _ends(-z) == _ref_neg(z)
    assert _ends(z.conj()) == _ref_conj(z)
    assert _ends(z.mul(w)) == _ends(_box_product(z, w))
    assert z.abs_sq_bounds() == _ref_abs_sq(z)
    assert z.abs_bounds(40) == _ref_abs_bounds(z, 40)
    if w.excludes_zero():
        assert _ends(z.div(w)) == _ref_div(z, w)


@given(point_or_wide_boxes(), st.sampled_from(["copy", "other", "re_hi", "im_hi"]), point_or_wide_boxes())
def test_equality_and_hash_are_those_of_the_field_tuple(z, how, other):
    if how == "copy":
        w = ComplexInterval(*(_copy(x) for x in _ends(z)))
    elif how == "re_hi":  # same low ends, one axis wider
        w = ComplexInterval(z.re_lo, z.re_hi + 1, z.im_lo, z.im_hi)
    elif how == "im_hi":
        w = ComplexInterval(z.re_lo, z.re_hi, z.im_lo, z.im_hi + 1)
    else:
        w = other
    assert (z == w) is (w == z) is (_ends(z) == _ends(w))
    assert (z != w) is (_ends(z) != _ends(w))
    assert hash(z) == hash(_ends(z))
    if z == w:
        assert hash(z) == hash(w)


def test_a_box_never_equals_a_non_box():
    z = ComplexInterval.exact(Fraction(0))
    assert z.__eq__(0) is NotImplemented
    assert z != 0 and z != _ends(z)
    assert {z: 1}[ComplexInterval.exact(0)] == 1


@given(rationals, rationals)
def test_out_of_order_endpoints_are_rejected_on_either_axis(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    with pytest.raises(ValueError):
        ComplexInterval(hi, lo, Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        ComplexInterval(lo, hi, hi, lo)
    with pytest.raises(ValueError):
        ComplexInterval(hi, _copy(lo), lo, _copy(lo))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ComplexInterval.exact(0.1),
        lambda: ComplexInterval.exact(Fraction(1), 0.5),
        lambda: ComplexInterval.from_real_bounds(0.1, 1),
        lambda: ComplexInterval.from_real_bounds(0, 1.5),
    ],
    ids=["exact-re", "exact-im", "real-bounds-lo", "real-bounds-hi"],
)
def test_box_constructors_reject_floats(build):
    with pytest.raises(TypeError, match="not floats"):
        build()
