"""Exact rational interval arithmetic for complex coefficient values.

All interval endpoints are `fractions.Fraction`.  Irrational quantities
(square roots, rational powers) are bracketed by directed-rounded dyadic
bounds computed from integer roots, so every produced interval provably
contains the true value, and refining the precision only shrinks it:
bounds at precision ``prec`` live on the dyadic grid ``2**-(prec+1)`` and
are exact floors/ceilings of the true value on that grid, which makes
intervals at successive precisions nested.

All powers q**(a/k), gcd(a, k) = 1, come from one integer kernel,
``pow_grid``.  q**a is a k-th power exactly when q is: each prime's
exponent in q**a is a times that in q, and a is prime to k.  So the test
for a rational result roots q's own numerator and denominator; otherwise
the result is lo = iroot(floor(q**a * 2**(k*(prec+1))), k) over 2**(prec+1),
an integer that ``PowSum`` adds without building a ``Fraction``.  Every disc
sum, sum a_n r**n over a head, comes from one Horner kernel, ``DiscSum``.

The box operations skip work on exact zeros: when a box or a scalar is
real, the products with its zero imaginary part and the sums with them
are left out.  ``0*c`` and ``x + 0`` are exact in rational arithmetic, so
every endpoint is the same rational the full formula gives.

They also skip work on exact values: a zero-width axis of a
``ComplexInterval`` holds one endpoint object (``re_lo is re_hi`` whenever
``re_lo == re_hi``, and the same for ``im``), which the constructor
enforces.  ``is_exact``, ``is_exact_zero`` and ``is_real`` test identity,
``==`` compares one endpoint of an axis that is a point in both boxes, and
``+``, ``-``, ``conj``, ``scale``, ``div``, ``abs_sq_bounds``, ``abs_bounds``
and negative powers in ``pow_bounds`` compute a point's endpoint once: the
formula for either end gives that same rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log2

Q0 = Fraction(0)
Q1 = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``"3/4"``, ``"-2"`` or ``"0"``.

    Only strings are accepted: a JSON number where a literal is expected
    is a malformed spec, not a value to coerce.  Exponent notation is
    refused, since ``Fraction("1e-300000000")`` expands the power exactly."""
    from .errors import ParseError

    if not isinstance(text, str):
        raise ParseError(f"bad rational literal {text!r}: expected a string")
    if "e" in text or "E" in text:
        raise ParseError(f"bad rational literal {text!r}: exponent notation is not accepted")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    """Canonical ``num/den`` form used in all JSON reports.

    A numerator or denominator longer than the interpreter's limit on
    integer-to-string conversion (``sys.get_int_max_str_digits()``) cannot
    be rendered; that raises a SeqchainError naming the limit."""
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        import sys

        from .errors import SeqchainError

        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise SeqchainError(
            f"cannot render a {bits}-bit rational: it exceeds the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} digits for integer-to-string "
            "conversion"
        ) from None


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer (Newton iteration).

    Newton starts from a float estimate of 2**(log2(n)/k), taken after
    shifting whole k-th powers of two out of n so the float stays below
    2**61.  One unconditional step follows: by AM-GM the integer Newton
    iterate of any positive x is at least the floor of the root, so the
    decreasing loop after it starts at or above the root and stops on it.
    """
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
    s = max(0, n.bit_length() // k - 60)
    x = (int(2.0 ** (log2(n >> (k * s)) / k)) + 1) << s
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pow_grid(q: Fraction, a: int, k: int, prec: int) -> tuple[Fraction | None, int]:
    """q**(a/k) for q > 0 and coprime a, k >= 1, as (value, 0) when it is
    rational, else as (None, lo) with lo = floor(q**(a/k) * 2**(prec+1)):
    floor(x**(1/k)) = iroot(floor(x), k), as r**k <= x iff r**k <= floor(x)."""
    num, den = q.numerator, q.denominator
    if k == 1:  # an integer power needs no root
        return Fraction(num ** a, den ** a), 0
    rn = iroot(num, k)
    if rn ** k == num:  # the denominator is rooted only when it can matter
        rd = iroot(den, k)
        if rd ** k == den:
            return Fraction(rn ** a, rd ** a), 0
    return None, iroot((num ** a << (k * (prec + 1))) // den ** a, k)


def _grid_bounds(q: Fraction, a: int, k: int, prec: int) -> tuple[Fraction, Fraction]:
    if q < 0:
        raise ValueError("power of negative rational")
    if q == 0:
        return Q0, Q0
    exact, lo = pow_grid(q, a, k, prec)
    if exact is not None:
        return exact, exact
    return Fraction(lo, 1 << (prec + 1)), Fraction(lo + 1, 1 << (prec + 1))


def root_bounds(q: Fraction, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose q**(1/k) for q >= 0 within width 2**-prec: ``pow_bounds``
    with e = 1/k, zero-width whenever the root is rational."""
    return _grid_bounds(q, 1, k, prec)


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
    if q < 0:
        raise ValueError("power of negative rational")
    e = Fraction(e)
    if e == 0:
        return Q1, Q1
    if e < 0:
        if q == 0:
            raise ValueError("negative power of nonpositive rational")
        inner = prec + 2 + 2 * _neg_log2_upper(q, -e)
        lo_p, hi_p = pow_bounds(q, -e, inner)
        if lo_p is hi_p:
            inv = 1 / lo_p
            return inv, inv
        return 1 / hi_p, 1 / lo_p
    return _grid_bounds(q, e.numerator, e.denominator, prec)


class PowSum:
    """Running sum of one endpoint of ``pow_bounds(q, e, prec)``, e > 0, over
    ``add(q, count)`` calls (q >= 0): inexact endpoints, lo or lo + 1 over
    2**(prec+1), add as one integer numerator, exact ones as a ``Fraction``;
    ``value`` makes one ``Fraction`` per read, the exact sum of the endpoints."""

    def __init__(self, e: Fraction, prec: int, upper: bool = False):
        self.a, self.k, self.prec, self.upper = e.numerator, e.denominator, prec, upper
        self.exact, self.num = Q0, 0

    def add(self, q: Fraction, count: int = 1) -> "PowSum":
        if q:
            exact, lo = pow_grid(q, self.a, self.k, self.prec)
            if exact is None:
                self.num += count * (lo + self.upper)
            else:
                self.exact += count * exact
        return self

    @property
    def value(self) -> Fraction:
        return self.exact + Fraction(self.num, 1 << (self.prec + 1))


class DiscSum:
    """Exact sum of a * r**n over terms (n, a) at increasing n, r = u/v: one
    integer numerator over L * v**m (m the last index, L the lcm of the
    denominators of a), one Horner step per term, one ``Fraction`` per read."""

    def __init__(self, r: Fraction):
        self.u, self.v = r.numerator, r.denominator
        self.m, self.L, self.num = 0, 1, 0

    def extend(self, terms) -> "DiscSum":
        u, v, m, L, num = self.u, self.v, self.m, self.L, self.num
        um = u ** m
        for n, a in terms:
            if a:
                den = a.denominator
                if L % den:
                    widen = den // gcd(L, den)
                    L, num = L * widen, num * widen
                um *= u ** (n - m)
                num = num * v ** (n - m) + a.numerator * (L // den) * um
                m = n
        self.m, self.L, self.num = m, L, num
        return self

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.L * self.v ** self.m)


def _interval_mul(a_lo: Fraction, a_hi: Fraction, b_lo: Fraction, b_hi: Fraction):
    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(products), max(products)


def _interval_sq(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    if lo is hi:
        sq = lo * lo
        return sq, sq
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
        # a zero-width axis holds one endpoint object (module docstring)
        if self.re_lo is not self.re_hi and not self.re_lo < self.re_hi:
            if self.re_lo > self.re_hi:
                raise ValueError("interval endpoints out of order")
            object.__setattr__(self, "re_hi", self.re_lo)
        if self.im_lo is not self.im_hi and not self.im_lo < self.im_hi:
            if self.im_lo > self.im_hi:
                raise ValueError("interval endpoints out of order")
            object.__setattr__(self, "im_hi", self.im_lo)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        s, o = self, other
        return (
            (s.re_lo is o.re_lo or s.re_lo == o.re_lo)
            and (s.re_lo is s.re_hi and o.re_lo is o.re_hi or s.re_hi == o.re_hi)
            and (s.im_lo is o.im_lo or s.im_lo == o.im_lo)
            and (s.im_lo is s.im_hi and o.im_lo is o.im_hi or s.im_hi == o.im_hi)
        )

    @staticmethod
    def exact(re, im=Q0) -> "ComplexInterval":
        re, im = _as_endpoint(re), _as_endpoint(im)
        return ComplexInterval(re, re, im, im)

    @staticmethod
    def zero() -> "ComplexInterval":
        return _ZERO

    @staticmethod
    def from_real_bounds(lo, hi) -> "ComplexInterval":
        return ComplexInterval(_as_endpoint(lo), _as_endpoint(hi), Q0, Q0)

    @property
    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    @property
    def is_exact(self) -> bool:
        return self.re_lo is self.re_hi and self.im_lo is self.im_hi

    @property
    def is_exact_zero(self) -> bool:
        return self is _ZERO or self.is_exact and not self.re_lo and not self.im_lo

    @property
    def is_real(self) -> bool:
        return self.im_lo is self.im_hi and not self.im_lo

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        re_lo, re_hi = _sum(self.re_lo, self.re_hi, other.re_lo, other.re_hi)
        if self.is_real and other.is_real:
            return ComplexInterval(re_lo, re_hi, Q0, Q0)
        im_lo, im_hi = _sum(self.im_lo, self.im_hi, other.im_lo, other.im_hi)
        return ComplexInterval(re_lo, re_hi, im_lo, im_hi)

    def __neg__(self) -> "ComplexInterval":
        return ComplexInterval(*_neg(self.re_lo, self.re_hi), *_neg(self.im_lo, self.im_hi))

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return self + (-other)

    def scale(self, c_re: Fraction, c_im: Fraction = Q0) -> "ComplexInterval":
        """Multiply by the exact complex scalar c_re + i*c_im.

        A real box or scalar skips the products with zero and the sums with
        them, and a scale by 1 is the box itself: the full formula's endpoints."""
        if c_re == 1 and c_im == 0:
            return self
        a_lo, a_hi = _scale_real(self.re_lo, self.re_hi, c_re)
        if c_im == 0:
            if self.is_real:
                return ComplexInterval(a_lo, a_hi, Q0, Q0)
            c_lo, c_hi = _scale_real(self.im_lo, self.im_hi, c_re)
            return ComplexInterval(a_lo, a_hi, c_lo, c_hi)
        if self.is_real:
            d_lo, d_hi = _scale_real(self.re_lo, self.re_hi, c_im)
            return ComplexInterval(a_lo, a_hi, d_lo, d_hi)
        b_lo, b_hi = _scale_real(self.im_lo, self.im_hi, -c_im)
        re_lo, re_hi = _sum(a_lo, a_hi, b_lo, b_hi)
        c_lo, c_hi = _scale_real(self.im_lo, self.im_hi, c_re)
        d_lo, d_hi = _scale_real(self.re_lo, self.re_hi, c_im)
        return ComplexInterval(re_lo, re_hi, *_sum(c_lo, c_hi, d_lo, d_hi))

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
        return ComplexInterval(self.re_lo, self.re_hi, *_neg(self.im_lo, self.im_hi))

    def div(self, other: "ComplexInterval") -> "ComplexInterval":
        """Exact-rational interval division; other must exclude zero."""
        d_lo, d_hi = other.abs_sq_bounds()
        if d_lo <= 0:
            raise ZeroDivisionError("divisor interval does not exclude zero")
        num = self.mul(other.conj())
        if d_lo is d_hi:  # a point divisor: scale by the exact 1/|w|**2
            return num.scale(1 / d_lo)
        inv_lo, inv_hi = 1 / d_hi, 1 / d_lo
        re = _interval_mul(num.re_lo, num.re_hi, inv_lo, inv_hi)
        im = _interval_mul(num.im_lo, num.im_hi, inv_lo, inv_hi)
        return ComplexInterval(re[0], re[1], im[0], im[1])

    def abs_sq_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on |z|^2 over the box."""
        r_lo, r_hi = _interval_sq(self.re_lo, self.re_hi)
        if self.is_real:
            return r_lo, r_hi  # real box: adding the zero square is exact
        return _sum(r_lo, r_hi, *_interval_sq(self.im_lo, self.im_hi))

    def abs_bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational bounds on |z|, rounded outward at 2**-prec."""
        sq_lo, sq_hi = self.abs_sq_bounds()
        if sq_lo is sq_hi:
            return sqrt_bounds(sq_lo, prec)
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


def _as_endpoint(x) -> Fraction:
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("interval endpoints must be exact rationals, not floats")
    return Fraction(x)


def _sum(a_lo, a_hi, b_lo, b_hi) -> tuple[Fraction, Fraction]:
    lo = a_lo + b_lo
    if a_lo is a_hi and b_lo is b_hi:
        return lo, lo
    return lo, a_hi + b_hi


def _neg(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    if lo is hi:
        neg = -lo
        return neg, neg
    return -hi, -lo


def _scale_real(lo: Fraction, hi: Fraction, c: Fraction) -> tuple[Fraction, Fraction]:
    if lo is hi:
        p = c * lo
        return p, p
    if c >= 0:
        return c * lo, c * hi
    return c * hi, c * lo


_ZERO = ComplexInterval(Q0, Q0, Q0, Q0)
