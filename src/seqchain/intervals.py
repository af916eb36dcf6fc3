"""Exact rational interval arithmetic for complex coefficient values.

All interval endpoints are `fractions.Fraction`.  Irrational quantities
(square roots, rational powers) are bracketed by directed-rounded dyadic
bounds computed from integer roots, so every produced interval provably
contains the true value, and refining the precision only shrinks it:
bounds at precision ``prec`` live on the dyadic grid ``2**-(prec+1)`` and
are exact floors/ceilings of the true value on that grid, which makes
intervals at successive precisions nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

Q0 = Fraction(0)
Q1 = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``"3/4"``, ``"-2"`` or ``"0"``.

    Only strings are accepted: a JSON number where a literal is expected
    is a malformed spec, not a value to coerce."""
    from .errors import ParseError

    if not isinstance(text, str):
        raise ParseError(f"bad rational literal {text!r}: expected a string")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    """Canonical ``num/den`` form used in all JSON reports."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer (Newton iteration)."""
    if n < 0:
        raise ValueError("iroot of negative integer")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # >= n**(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _floor_scaled_root(num: int, den: int, k: int, scale: int) -> int:
    """Exact floor((num/den)**(1/k) * 2**scale) for num >= 0, den > 0."""
    shifted = num << (k * scale)
    r = iroot(shifted // den, k)
    # correct the composition of the two floors (off by at most one)
    while (r + 1) ** k * den <= shifted:
        r += 1
    while r > 0 and r ** k * den > shifted:
        r -= 1
    return r


def root_bounds(q: Fraction, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose q**(1/k) for q >= 0 within width 2**-prec.

    Returns a zero-width pair whenever the root is exactly rational.
    """
    if q < 0:
        raise ValueError("root of negative rational")
    if q == 0:
        return Q0, Q0
    num, den = q.numerator, q.denominator
    rn, rd = iroot(num, k), iroot(den, k)
    if rn ** k == num and rd ** k == den:
        exact = Fraction(rn, rd)
        return exact, exact
    scale = prec + 1
    lo = _floor_scaled_root(num, den, k, scale)
    unit = Fraction(1, 1 << scale)
    return lo * unit, (lo + 1) * unit


def sqrt_bounds(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose sqrt(q) within width 2**-prec (exact when q is a square)."""
    return root_bounds(q, 2, prec)


def _neg_log2_upper(q: Fraction, e: Fraction) -> int:
    """Integer m with q**e >= 2**-m, for q > 0 and e > 0."""
    if q >= 1:
        return 0
    t = q.denominator.bit_length() - q.numerator.bit_length() + 1  # log2(1/q) <= t
    return -(-(e.numerator * t) // e.denominator)


def pow_bounds(q: Fraction, e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose q**e for q >= 0 and rational e within width 2**-prec.

    For negative exponents q must be positive; the enclosure of q**(-e) is
    computed on a grid fine enough (relative to the value's magnitude) that
    its inversion still meets the width contract, and the grid choice is a
    deterministic function of (q, e, prec) so enclosures stay nested.
    """
    e = Fraction(e)
    if e == 0:
        return Q1, Q1
    if e < 0:
        if q <= 0:
            raise ValueError("negative power of nonpositive rational")
        inner = prec + 2 + 2 * _neg_log2_upper(q, -e)
        lo_p, hi_p = pow_bounds(q, -e, inner)
        return 1 / hi_p, 1 / lo_p
    if q == 0:
        return Q0, Q0
    powered = q ** e.numerator
    return root_bounds(powered, e.denominator, prec)


def _interval_mul(a_lo: Fraction, a_hi: Fraction, b_lo: Fraction, b_hi: Fraction):
    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(products), max(products)


def _interval_sq(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Q0, max(lo * lo, hi * hi)


@dataclass(frozen=True)
class ComplexInterval:
    """Axis-aligned box of complex values with exact rational endpoints."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def __post_init__(self):
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def exact(re, im=0) -> "ComplexInterval":
        re, im = Fraction(re), Fraction(im)
        return ComplexInterval(re, re, im, im)

    @staticmethod
    def zero() -> "ComplexInterval":
        return _ZERO

    @staticmethod
    def from_real_bounds(lo, hi) -> "ComplexInterval":
        return ComplexInterval(Fraction(lo), Fraction(hi), Q0, Q0)

    @property
    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    @property
    def is_exact(self) -> bool:
        return self.re_lo == self.re_hi and self.im_lo == self.im_hi

    @property
    def is_exact_zero(self) -> bool:
        return self.is_exact and self.re_lo == 0 and self.im_lo == 0

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(
            self.re_lo + other.re_lo,
            self.re_hi + other.re_hi,
            self.im_lo + other.im_lo,
            self.im_hi + other.im_hi,
        )

    def __neg__(self) -> "ComplexInterval":
        return ComplexInterval(-self.re_hi, -self.re_lo, -self.im_hi, -self.im_lo)

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return self + (-other)

    def scale(self, c_re: Fraction, c_im: Fraction = Q0) -> "ComplexInterval":
        """Multiply by the exact complex scalar c_re + i*c_im."""
        a_lo, a_hi = _scale_real(self.re_lo, self.re_hi, c_re)
        b_lo, b_hi = _scale_real(self.im_lo, self.im_hi, c_im)
        re_lo, re_hi = a_lo - b_hi, a_hi - b_lo
        c_lo, c_hi = _scale_real(self.im_lo, self.im_hi, c_re)
        d_lo, d_hi = _scale_real(self.re_lo, self.re_hi, c_im)
        return ComplexInterval(re_lo, re_hi, c_lo + d_lo, c_hi + d_hi)

    def mul(self, other: "ComplexInterval") -> "ComplexInterval":
        # a zero-width box multiplies exactly as the scalar it holds
        if self.is_exact:
            return other.scale(self.re_lo, self.im_lo)
        if other.is_exact:
            return self.scale(other.re_lo, other.im_lo)
        ac = _interval_mul(self.re_lo, self.re_hi, other.re_lo, other.re_hi)
        bd = _interval_mul(self.im_lo, self.im_hi, other.im_lo, other.im_hi)
        ad = _interval_mul(self.re_lo, self.re_hi, other.im_lo, other.im_hi)
        bc = _interval_mul(self.im_lo, self.im_hi, other.re_lo, other.re_hi)
        return ComplexInterval(ac[0] - bd[1], ac[1] - bd[0], ad[0] + bc[0], ad[1] + bc[1])

    def conj(self) -> "ComplexInterval":
        return ComplexInterval(self.re_lo, self.re_hi, -self.im_hi, -self.im_lo)

    def div(self, other: "ComplexInterval") -> "ComplexInterval":
        """Exact-rational interval division; other must exclude zero."""
        d_lo, d_hi = other.abs_sq_bounds()
        if d_lo <= 0:
            raise ZeroDivisionError("divisor interval does not exclude zero")
        num = self.mul(other.conj())
        inv_lo, inv_hi = 1 / d_hi, 1 / d_lo
        re = _interval_mul(num.re_lo, num.re_hi, inv_lo, inv_hi)
        im = _interval_mul(num.im_lo, num.im_hi, inv_lo, inv_hi)
        return ComplexInterval(re[0], re[1], im[0], im[1])

    def abs_sq_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on |z|^2 over the box."""
        r_lo, r_hi = _interval_sq(self.re_lo, self.re_hi)
        if self.im_lo == 0 and self.im_hi == 0:
            return r_lo, r_hi  # real box: adding the zero square is exact
        i_lo, i_hi = _interval_sq(self.im_lo, self.im_hi)
        return r_lo + i_lo, r_hi + i_hi

    def abs_bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational bounds on |z|, rounded outward at 2**-prec."""
        sq_lo, sq_hi = self.abs_sq_bounds()
        lo = sqrt_bounds(sq_lo, prec)[0]
        hi = sqrt_bounds(sq_hi, prec)[1]
        return lo, hi

    def excludes_zero(self) -> bool:
        return self.abs_sq_bounds()[0] > 0

    def contains(self, c_re, c_im=0) -> bool:
        return (
            self.re_lo <= c_re <= self.re_hi and self.im_lo <= c_im <= self.im_hi
        )

    def subset_of(self, other: "ComplexInterval") -> bool:
        return (
            other.re_lo <= self.re_lo
            and self.re_hi <= other.re_hi
            and other.im_lo <= self.im_lo
            and self.im_hi <= other.im_hi
        )


def _scale_real(lo: Fraction, hi: Fraction, c: Fraction) -> tuple[Fraction, Fraction]:
    if c >= 0:
        return c * lo, c * hi
    return c * hi, c * lo


_ZERO = ComplexInterval(Q0, Q0, Q0, Q0)
