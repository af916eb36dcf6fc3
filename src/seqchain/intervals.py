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
for a rational result looks at q's own sides, and gives the coprime pair of
their roots powered at a.  A power-of-two side 2**e is a k-th power iff k
divides e; it is tested first, and the other side tested only if it passes,
below 2**52 by a rounded float root.  Otherwise the result is
lo = iroot(floor(q**a * 2**(k*(prec+1))), k) over 2**(prec+1), the one root
that also decides exactness when q = num/2**e with k | e (the dyadic merge).
``PowSum`` adds a slice's grid integers as one numerator and the exact pairs
as one over the lcm of their denominators, making one ``Fraction``.  Every
disc sum, sum a_n r**n over a head, comes from one Horner kernel, ``DiscSum``.
The tail oracles and the schedule and seminorm rows keep this rule too:
integers inside, one ``Fraction`` per result.

``pow_bounds`` builds each endpoint as one reduced ``Fraction`` from these
integers, through the public ``fractions`` API only (its private fast
constructors differ between Python 3.10 and 3.13):

- An integer exponent j needs no grid: q = num/den in lowest terms gives
  q**j = num**j/den**j and q**-j = den**j/num**j, coprime as num and den are.
  That exact rational is ``Fraction``'s own integer power, both ends one object.
- A grid end m/2**P is reduced by shifting the trailing zeros off m: a power
  of two is the only factor the two can share.
- A negative exponent -a/k, k > 1, takes the grid integer lo of q**(a/k) at
  the inner precision I and returns [2**(I+1)/(lo+1), 2**(I+1)/lo], again
  reduced by shifting off the powers of two they share; an exact pair (n, d)
  gives d/n.  These are the reciprocals of the grid ends, so each endpoint is
  the rational that inverting the enclosure of q**(a/k) gives, and every
  enclosure equals the one computed through ``Fraction`` division.

``PowSum`` powers a bound h on |x| at p for a real box, one on |x|**2 at p/2
otherwise (``ComplexInterval.modulus_bounds``).  h**p = (h**2)**(p/2) is one
real number, with one grid floor, and for p = a/k in lowest terms both are
rational iff h is a k-th power (a even makes k odd; a odd asks h**2 to be a
2k-th power).  So a real term is powered from half the bits.

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

Every bound on |z| is ``abs_end`` of a ``modulus_bounds`` end: a real box's
end bounds |re| and needs no root (it is its square's exact root), a complex
box's bounds |z|**2 and is rooted on its own side, a point's once for both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, log2
from operator import attrgetter

from .errors import ParseError

Q0 = Fraction(0)
Q1 = Fraction(1)


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its constructor's parameters in ``_fields``, in order,
    and keeps them in ``__slots__``; it compares, hashes and shows the
    fields in ``_compare`` (all of ``_fields`` unless it says otherwise), and
    never equals an instance of another class.  Fields are written once, in
    ``__init__``: a type built on every op writes each slot through its member
    descriptor (``setters``), and a cold record keeps this base's constructor,
    which binds positional and keyword arguments to ``_fields``.  Plain
    classes load and build faster than generated ones: no source is compiled
    per class at import."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._compare = cls.__dict__.get("_compare", cls._fields)
        cls._key = attrgetter(*cls._compare)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compare)
        return f"{type(self).__qualname__}({shown})"

    # copy and pickle rebuild through the constructor: __setattr__ refuses
    # their slot writes
    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def setters(cls) -> tuple:
    """The member descriptors' ``__set__`` of cls's fields, in order, for the
    ``__init__`` of a type built on every op."""
    return tuple(getattr(cls, name).__set__ for name in cls._fields)


def replace(obj: Frozen, **changes) -> Frozen:
    """A copy of obj with some fields changed, built by obj's constructor, so
    its checks run again."""
    return obj.__class__(**{name: getattr(obj, name) for name in obj._fields} | changes)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``"3/4"``, ``"-2"`` or ``"0"``.

    Only strings are accepted: a JSON number where a literal is expected
    is a malformed spec, not a value to coerce.  Exponent notation is
    refused, since ``Fraction("1e-300000000")`` expands the power exactly.
    The canonical literal ``-?digits/digits`` in ASCII, as reports write it,
    and a bare ``-?digits`` skip ``Fraction``'s regular expression; every
    other string takes it."""
    if not isinstance(text, str):
        raise ParseError(f"bad rational literal {text!r}: expected a string")
    num, slash, den = text.partition("/")
    if text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
        try:
            if d := int(den or 1):
                return Fraction(int(num), d)
        except ValueError:  # past the int-to-str digit limit: the regular path names it
            pass
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
    if q.__class__ is not Fraction:
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
    iterate of any positive x is at least the floor of the root, so one
    check x**k <= n finds the root when that step lands on it (the estimate
    holds about 47 bits, so it does for roots of up to about 90), and
    otherwise the decreasing loop after it starts above the root and stops
    on it.
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
    if x ** k <= n:
        return x
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _exact_root(n: int, k: int) -> int:
    """The k-th root of n >= 1 if n is a k-th power, else 0; rootless for 2**e.
    Below 2**52, n is an exact float and n**(1/k) errs from the root r < 2**26
    by under 2**-46 relative, 2**-20 absolute: it rounds to r if n = r**k."""
    if not n & (n - 1):
        e = n.bit_length() - 1
        return 0 if e % k else 1 << (e // k)
    r = round(n ** (1 / k)) if n < 1 << 52 else iroot(n, k)
    return r if r ** k == n else 0


def pow_grid(q: Fraction, a: int, k: int, prec: int) -> tuple[tuple[int, int] | None, int]:
    """q**(a/k) for q > 0 and coprime a, k >= 1, as a coprime pair
    ((num, den), 0) when it is rational, else as (None, lo) with
    lo = floor(q**(a/k) * 2**(prec+1)): floor(x**(1/k)) = iroot(floor(x), k),
    as r**k <= x iff r**k <= floor(x).  Over den = 2**e, k | e, with
    k(prec+1) >= e*a and num no power of two, that floor's integer
    x = num**a * 2**(k(prec+1) - e*a) is a k-th power iff num is, so its one
    root decides both.  Else a power-of-two side is tested first."""
    num, den = q.as_integer_ratio()
    if k == 1:  # an integer power needs no root
        return (num ** a, den ** a), 0
    P, merged = prec + 1, False
    if den & (den - 1):
        rn = _exact_root(num, k)
        rd = rn and _exact_root(den, k)
    else:  # den = 2**e
        e = den.bit_length() - 1
        merged = not e % k and num & (num - 1) and k * P >= e * a
        rd = not merged and _exact_root(den, k)
        rn = rd and _exact_root(num, k)
    if rn and rd:
        return (rn ** a, rd ** a), 0
    x = (num ** a << k * P) // den ** a
    lo = iroot(x, k)
    if merged and lo ** k == x:
        t = e * a // k
        return (lo >> P - t, 1 << t), 0
    return None, lo


def _strip_twos(m: int, P: int) -> tuple[int, int]:
    """m and 2**P, m >= 1, with their common power of two divided out."""
    s = min((m & -m).bit_length() - 1, P)
    return m >> s, 1 << (P - s)


def _grid_bounds(q: Fraction, a: int, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """``pow_bounds`` at e = a/k > 0 for q > 0."""
    exact, lo = pow_grid(q, a, k, prec)
    if exact is not None:
        return (value := Fraction(*exact)), value
    P = prec + 1
    return Fraction(*_strip_twos(lo, P)) if lo else Q0, Fraction(*_strip_twos(lo + 1, P))


def root_bounds(q: Fraction, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose q**(1/k) for q >= 0 within width 2**-prec: ``pow_bounds``
    with e = 1/k, zero-width whenever the root is rational."""
    if q < 0:
        raise ValueError("power of negative rational")
    return _grid_bounds(q, 1, k, prec) if q else (Q0, Q0)


def sqrt_bounds(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose sqrt(q) within width 2**-prec (exact when q is a square)."""
    return root_bounds(q, 2, prec)


def _neg_log2_upper(q: Fraction, a: int, k: int) -> int:
    """Integer m with q**(a/k) >= 2**-m, for q > 0 and a, k >= 1."""
    if q >= 1:
        return 0
    t = q.denominator.bit_length() - q.numerator.bit_length() + 1  # log2(1/q) <= t
    return -(-(a * t) // k)


def pow_bounds(q: Fraction, e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclose q**e for q >= 0 and rational e within width 2**-prec.

    An integer exponent gives the exact power.  For other negative exponents
    q must be positive; the enclosure of q**(-e) is computed on a grid fine
    enough (relative to the value's magnitude) that its inversion still
    meets the width contract, and the grid choice is a deterministic
    function of (q, e, prec) so enclosures stay nested.
    """
    if q < 0:
        raise ValueError("power of negative rational")
    a, k = e.numerator, e.denominator
    if not a:
        return Q1, Q1
    if not q:
        if a < 0:
            raise ValueError("negative power of nonpositive rational")
        return Q0, Q0
    if k == 1:  # num**a / den**a, coprime: exact, no grid
        if q.__class__ is not Fraction:
            q = Fraction(q)
        return (value := q if a == 1 else q ** a), value
    if a > 0:
        return _grid_bounds(q, a, k, prec)
    inner = prec + 2 + 2 * _neg_log2_upper(q, -a, k)
    exact, lo = pow_grid(q, -a, k, inner)
    if exact is not None:
        return (value := Fraction(exact[1], exact[0])), value
    # 1 over the grid ends: lo >= 8 there, as q**(-e) * 2**(inner+1) >= 2**(prec+3)
    (n_lo, d_lo), (n_hi, d_hi) = _strip_twos(lo + 1, inner + 1), _strip_twos(lo, inner + 1)
    return Fraction(d_lo, n_lo), Fraction(d_hi, n_hi)


def abs_end(end: tuple[Fraction, bool], side: int, prec: int) -> Fraction:
    """The bound on |z| from one ``modulus_bounds`` end, on its side (0 lower,
    1 upper): the end, or its root on that side, outward at 2**-prec."""
    q, squared = end
    return sqrt_bounds(q, prec)[side] if squared else q


def abs_ends(ends, prec: int) -> tuple[Fraction, Fraction]:
    """Both ``abs_end`` bounds on |z|; a point's |z|**2 is rooted once."""
    lo, hi = ends
    if lo[1] and lo[0] is hi[0]:
        return sqrt_bounds(lo[0], prec)
    return abs_end(lo, 0, prec), abs_end(hi, 1, prec)


class PowSum:
    """Running sum of one endpoint of ``pow_bounds(q, e, prec)``, e > 0 (e/2 if
    ``squared``), over the ends ``(q, squared)`` given to ``extend``,
    q >= 0 (``modulus_bounds`` ends).  Inexact endpoints, lo or lo + 1 over
    2**(prec+1), add as one integer numerator, exact pairs as another over L,
    the lcm of their denominators (the ``DiscSum`` pattern); ``value`` is
    their exact sum.  ``extend_pair`` sums a slice into a lower and an upper
    sum in one loop, a point's end powered once for both, widening each L as
    new denominators come, and multiplies by the count once."""

    def __init__(self, e: Fraction, prec: int, upper: bool = False):
        a, k = e.numerator, e.denominator  # e/2 in lowest terms from e's own
        self.exps = (a, k), (a // 2, k) if a % 2 == 0 else (a, 2 * k)
        self.prec, self.upper = prec, upper
        self.L, self.exact, self.num = 1, 0, 0

    def extend(self, ends, count: int = 1) -> "PowSum":
        """Add count times the endpoint of each end's power."""
        sides = (None, self) if self.upper else (self, None)
        PowSum.extend_pair(*sides, ((end, end) for end in ends), count)
        return self

    @staticmethod
    def extend_pair(lower: "PowSum | None", upper: "PowSum | None", pairs, count: int = 1):
        """Add count times the power's lower endpoint at each (lower, upper)
        pair's lower end to ``lower``, and its upper one at the upper end to
        ``upper`` (one of them may be None).  A point, one q, is powered once."""
        exps, prec = (lower or upper).exps, (lower or upper).prec
        lo_L, lo_exact, lo_grid = lower.L if lower else 1, 0, 0
        hi_L, hi_exact, hi_grid = upper.L if upper else 1, 0, 0
        for (q, squared), (q_hi, squared_hi) in pairs:
            if not q_hi:  # so q = 0 too
                continue
            pair, g = pow_grid(q_hi, *exps[squared_hi], prec)
            if pair is None:
                hi_grid += g + 1
            else:
                hi_L, hi_exact = _add_exact(hi_L, hi_exact, pair)
            if q is not q_hi:
                if not q:
                    continue
                pair, g = pow_grid(q, *exps[squared], prec)
            if pair is None:
                lo_grid += g
            else:
                lo_L, lo_exact = _add_exact(lo_L, lo_exact, pair)
        for total, L, exact, grid in ((lower, lo_L, lo_exact, lo_grid),
                                      (upper, hi_L, hi_exact, hi_grid)):
            if total is not None:
                if exact:  # L widens only with an exact summand
                    total.exact, total.L = total.exact * (L // total.L) + count * exact, L
                total.num += count * grid

    @property
    def value(self) -> Fraction:
        return Fraction((self.exact << self.prec + 1) + self.num * self.L, self.L << self.prec + 1)


def _add_exact(L: int, exact: int, pair: tuple[int, int]) -> tuple[int, int]:
    """exact/L plus num/den, over L widened to a multiple of den."""
    num, den = pair
    if L % den:
        widen = den // gcd(L, den)
        L, exact = L * widen, exact * widen
    return L, exact + num * (L // den)


class DiscSum:
    """Exact sum of a * r**n over terms (n, a) at increasing n, r = u/v: one
    integer numerator over L * v**m (m the last index, L the lcm of the
    denominators of a), one Horner step per term, read as that unreduced pair."""

    def __init__(self, r: Fraction):
        self.u, self.v = r.numerator, r.denominator
        self.m, self.L, self.num, self.um, self.vm = 0, 1, 0, 1, 1

    def extend(self, terms) -> "DiscSum":
        u, v, m, L, num, um, vm = self.u, self.v, self.m, self.L, self.num, self.um, self.vm
        for n, a in terms:
            a, den = a.as_integer_ratio()
            if a:
                if L % den:
                    widen = den // gcd(L, den)
                    L, num = L * widen, num * widen
                step = v ** (n - m)
                um, vm = um * u ** (n - m), vm * step
                num = num * step + a * (L // den) * um
                m = n
        self.m, self.L, self.num, self.um, self.vm = m, L, num, um, vm
        return self

    @property
    def pair(self) -> tuple[int, int]:
        return self.num, self.L * self.vm


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


class ComplexInterval(Frozen):
    """Axis-aligned box of complex values with exact rational endpoints."""

    __slots__ = _fields = ("re_lo", "re_hi", "im_lo", "im_hi")

    def __init__(self, re_lo: Fraction, re_hi: Fraction, im_lo: Fraction, im_hi: Fraction):
        # a zero-width axis holds one endpoint object (module docstring)
        if re_lo is not re_hi and not re_lo < re_hi:
            if re_lo > re_hi:
                raise ValueError("interval endpoints out of order")
            re_hi = re_lo
        if im_lo is not im_hi and not im_lo < im_hi:
            if im_lo > im_hi:
                raise ValueError("interval endpoints out of order")
            im_hi = im_lo
        _set_re_lo(self, re_lo)
        _set_re_hi(self, re_hi)
        _set_im_lo(self, im_lo)
        _set_im_hi(self, im_hi)

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

    __hash__ = Frozen.__hash__  # a class that defines __eq__ alone is unhashable

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

    def modulus_bounds(self) -> tuple[tuple[Fraction, bool], tuple[Fraction, bool]]:
        """The least and greatest |z| over the box as ``PowSum`` ends: exact
        bounds on |re| and False for a real box, no square taken, and on
        |z|**2 and True otherwise (module docstring)."""
        if not self.is_real:
            lo, hi = self.abs_sq_bounds()
            return (lo, True), (hi, True)
        lo, hi = self.re_lo, self.re_hi
        lo, hi = (lo, hi) if lo >= 0 else _neg(lo, hi) if hi <= 0 else (Q0, max(-lo, hi))
        return (lo, False), (hi, False)

    def abs_bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational bounds on |z|, rounded outward at 2**-prec (``abs_ends``)."""
        return abs_ends(self.modulus_bounds(), prec)

    def excludes_zero(self) -> bool:
        """Whether the lower end of |z|**2 over the box is positive, tested by
        sign alone: that lower end is the least re**2 plus the least im**2,
        and the least square on an axis is positive exactly when the axis
        excludes 0."""
        return self.re_lo > 0 or self.re_hi < 0 or self.im_lo > 0 or self.im_hi < 0

    def contains(self, c_re, c_im=0) -> bool:
        if self.re_lo is self.re_hi and self.im_lo is self.im_hi:
            return self.re_lo == c_re and self.im_lo == c_im
        return (
            self.re_lo <= c_re <= self.re_hi and self.im_lo <= c_im <= self.im_hi
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


_set_re_lo, _set_re_hi, _set_im_lo, _set_im_hi = setters(ComplexInterval)
_ZERO = ComplexInterval(Q0, Q0, Q0, Q0)
