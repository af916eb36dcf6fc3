"""Dense-family construction with certified escape from the inner space.

The construction pairs the j-th finitely supported Gaussian-rational
sequence x_j with a witness y_j supported in the j-th row of a dyadic
partition of the naturals, scaled by a dyadic c_j so that f_j = x_j +
c_j y_j sits within 1/j of x_j in the outer metric.  On one witness
row, past the joint support of the x parts, a nonzero finite combination
of the f_j agrees term by term with a scalar multiple of that row's
witness; the escape certificate records that row identity together with
the witness, whose out-certificate it carries.  ``approximate_with_avoider``
walks no metric: d(x + c y, t) <= d(x, t) + d(c y, 0) in every outer metric.

Build and check prove the row identity from support hints and spec keys,
for every point at once (``row_parts``): past the cutoff, the only part of
the combination that may meet the row is the witness, with total
coefficient inside the scale, and the witness's own hint lies within the
row (``Sequence.zero_off``).  Both rest on the hint contract, that a hint
is a superset of its node's support; no term is evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import (
    AllZeroCoefficients,
    BudgetExceeded,
    LengthMismatch,
    NotStrictPair,
    SeqchainError,
    UnsupportedOuter,
)
from .intervals import ComplexInterval, Frozen, Q0, format_rational, setters
from .sequences import FiniteRational, Sequence, _as_pair, combine, zero
from .spaces import SpaceId, ball_bound, strictly_included, truncation_bound
from .supports import DyadicRow, SupportSet
from .witness import Witness, make_witness


def disjoint_support(j: int) -> DyadicRow:
    """Row j of the dyadic partition: n with v2(n+1) = j-1.  The rows are
    infinite, pairwise disjoint, and cover the naturals."""
    return DyadicRow(j)


# -- enumeration of finitely supported Gaussian-rational sequences ------------


def _cw_rational(n: int) -> Fraction:
    """n-th positive rational (n >= 1) along the Calkin-Wilf tree."""
    num, den = 1, 1
    for bit in bin(n)[3:]:
        if bit == "1":
            num += den
        else:
            den += num
    return Fraction(num, den)


def _decode_rational(code: int) -> Fraction:
    if code == 0:
        return Q0
    if code % 2 == 1:
        return _cw_rational((code + 1) // 2)
    return -_cw_rational(code // 2)


def _unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def _decode_value(code: int) -> tuple[Fraction, Fraction]:
    re_code, im_code = _unpair(code)
    return _decode_rational(re_code), _decode_rational(im_code)


def _decode_list(code: int) -> list[int]:
    out = []
    while code:
        head, code = _unpair(code - 1)
        out.append(head)
    return out


def enumerate_rational_c00(j: int) -> FiniteRational:
    """The j-th finitely supported Gaussian-rational sequence (j >= 1).

    A bijection: j = 1 is the zero sequence, and the final entry of the
    dense value list is forced nonzero, which makes the trimmed
    representation canonical."""
    if j < 1:
        raise ValueError("enumeration is 1-based")
    if j == 1:
        return zero()
    prefix_code, last_code = _unpair(j - 2)
    values = [_decode_value(c) for c in _decode_list(prefix_code)]
    values.append(_decode_value(last_code + 1))
    return FiniteRational({n: v for n, v in enumerate(values)})


# -- dense family elements ----------------------------------------------------


class DenseFamilyElement(Frozen):
    __slots__ = _fields = ("j", "x", "witness", "scale", "f")
    j: int
    x: FiniteRational
    witness: Witness  # supported in disjoint_support(j)
    scale: Fraction  # dyadic c_j with d_Y(c_j y_j, 0) < 1/j
    f: Sequence  # x + scale * witness.seq


def _require_outer(outer: SpaceId):
    if outer.tag == "linf":
        raise UnsupportedOuter(
            "the bounded-sequence space is excluded from the dense-family construction"
        )


# One command never asks for a row twice, but the ops of the benchmark's
# approx workload share 64 (inner, outer, j, radius) rows; twice that many
# stay cached
_ROW_CACHE_SIZE = 128


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _row_element(
    inner: SpaceId, outer: SpaceId, j: int, radius: Fraction, budget: int, prec: int
) -> tuple[Witness, Fraction, Fraction]:
    """The witness y on row j, its dyadic scale c with d_Y(c y, 0) < radius,
    and the bound that certified c.  All three are pure in the arguments, so
    cached: the package's one module-level cache, bounded by ``_ROW_CACHE_SIZE``."""
    w = make_witness(inner, outer, disjoint_support(j), budget, prec)
    return (w, *ball_bound(outer, w.seq, radius, budget, prec))


def dense_family_element(
    j: int, outer: SpaceId, inner: SpaceId, budget: int, prec: int
) -> DenseFamilyElement:
    """The j-th element f_j = x_j + c_j y_j of the dense family."""
    if j < 1:
        raise ValueError("element index is 1-based")
    _require_outer(outer)
    x = enumerate_rational_c00(j)
    w, c, _ = _row_element(inner, outer, j, Fraction(1, j), budget, prec)
    f = combine([1, c], [x, w.seq])
    return DenseFamilyElement(j=j, x=x, witness=w, scale=c, f=f)


# -- escape certificates -------------------------------------------------------


class OutsideXCertificate(Frozen):
    """Certificate that a finite combination escapes the inner space.

    On the witness row, from the cutoff on, the combination's own terms
    agree with scale * witness, and the witness is zero off that row.
    Every space of the chain is solid, so were the combination inside the
    inner space, its part on that row past the cutoff would be too, and
    with it the witness (a nonzero multiple of that part, modulo finitely
    many terms), contradicting the witness's out-certificate.  Build and
    check share the one proof of both facts, ``_row_identity_unproved``;
    the decomposition it accepts is {witness: c} with c in scale, so the
    scale records it."""

    __slots__ = _fields = ("j0", "scale", "cutoff", "witness")

    # the scale is exact for exact-coefficient combinations
    def __init__(self, j0: int, scale: ComplexInterval, cutoff: int, witness: Witness):
        _set_j0(self, j0)
        _set_scale(self, scale)
        _set_cutoff(self, cutoff)
        _set_witness(self, witness)

    def describe(self):
        scale = {
            "re": [format_rational(self.scale.re_lo), format_rational(self.scale.re_hi)],
            "im": [format_rational(self.scale.im_lo), format_rational(self.scale.im_hi)],
        }
        return {
            "inner": str(self.witness.inner),
            "j0": self.j0,
            "scale": scale,
            "cutoff": self.cutoff,
            "witness_out_certificate": self.witness.out_cert.describe(),
        }


_set_j0, _set_scale, _set_cutoff, _set_witness = setters(OutsideXCertificate)


def row_parts(f: Sequence, row: SupportSet, cutoff: int) -> dict[str, tuple[Fraction, Fraction]]:
    """f's ``normal_form`` coefficients by spec key, without the parts whose
    support hint, a superset of their support, misses row from the cutoff
    on (``SupportSet.misses``): there, f is sum c_k * part_k at every index."""
    return {key: c for key, (c, part) in f.normal_parts.items()
            if not part.support_hint.misses(row, cutoff)}


def _row_identity_unproved(f: Sequence, cert: OutsideXCertificate):
    """Why the support hints do not prove f = c * witness on the witness
    row from the cutoff on for a c inside the scale, with the witness zero
    off its row; None when they do."""
    w = cert.witness
    if not w.seq.zero_off(w.support):
        return f"the witness may meet indices off row {cert.j0}"
    key = w.seq.spec_key()
    parts = row_parts(f, w.support, cert.cutoff)
    stray = next((k for k in parts if k != key), None)
    if stray is not None:
        name = stray if len(stray) <= 60 else stray[:57] + "..."
        return f"part {name} may meet row {cert.j0} from index {cert.cutoff} on"
    c_re, c_im = parts.get(key, (Q0, Q0))
    if not cert.scale.contains(c_re, c_im):
        c = f"{format_rational(c_re)} + {format_rational(c_im)}i"
        return f"the witness coefficient {c} lies outside the scale"
    return None


def escape_certificate(
    f: Sequence, j0: int, witness: Witness, scale: ComplexInterval, cutoff: int
) -> OutsideXCertificate:
    """Escape certificate for f on row j0: the support hints must prove that
    f agrees with scale * witness on the witness row from the cutoff on."""
    cert = OutsideXCertificate(j0, scale, cutoff, witness)
    why = _row_identity_unproved(f, cert)
    if why is not None:
        raise SeqchainError(f"row identity not proved: {why}")
    return cert


def certify_outside(coeffs, elements: list[DenseFamilyElement]) -> OutsideXCertificate:
    """Escape certificate for sum_j t_j f_j over dense-family elements, on
    the row of the first nonzero coefficient, past every anchor's support."""
    coeffs = [_as_pair(c) for c in coeffs]
    if len(coeffs) != len(elements):
        raise LengthMismatch("one coefficient per element")
    pick = None
    for (re, im), element in zip(coeffs, elements):
        if re != 0 or im != 0:
            pick = ((re, im), element)
            break
    if pick is None:
        raise AllZeroCoefficients("the combination is identically zero")
    (t_re, t_im), chosen = pick

    cutoff = 1 + max((e.x.max_index for e in elements), default=-1)
    g = combine(coeffs, [e.f for e in elements])

    c = chosen.scale
    scale = ComplexInterval.exact(t_re * c, t_im * c)
    return escape_certificate(g, chosen.j, chosen.witness, scale, cutoff)


def check_outside_certificate(
    f: Sequence, cert: OutsideXCertificate, samples: int, prec: int
) -> bool:
    """Re-verify an escape certificate against the combination f: prove the
    row identity again and re-check the witness's out-certificate."""
    w = cert.witness
    return (
        cert.scale.excludes_zero()
        and w.out_cert.space == w.inner
        and _row_identity_unproved(f, cert) is None
        and w.out_cert_holds(samples, prec)
    )


# -- approximation with certified avoidance ------------------------------------


class ApproxResult(Frozen):
    __slots__ = _fields = ("f", "certificate", "distance_upper")
    f: Sequence
    certificate: OutsideXCertificate
    distance_upper: Fraction

    def describe(self):
        return {
            "f": self.f.spec(),
            "certificate": self.certificate.describe(),
            "distance_upper": format_rational(self.distance_upper),
        }


def _truncation(target: Sequence, outer: SpaceId, head: int, grid_bits: int, prec: int):
    """x, the target's boxes to head with midpoints rounded half to even onto the grid,
    and the bound on d(target, x) at e, the largest |re| + |im| to a box's far corner."""
    entries, e, grid = {}, 0, 1 << grid_bits
    for n in target.support_hint.elements_upto(head):
        iv, x_n, e_n = target.term(n, grid_bits + 4), [], 0
        for lo, hi in ((iv.re_lo, iv.re_hi), (iv.im_lo, iv.im_hi)):  # in exact integers
            if lo is hi and not lo:  # a zero axis: rounds to 0, no residue
                x_n.append(Q0)
                continue
            s, t = lo.numerator * hi.denominator, hi.numerator * lo.denominator
            den, mid = 2 * lo.denominator * hi.denominator, (s + t) * grid
            k, r = divmod(mid, den)  # mid/den rounded half to even: k, off by r
            if 2 * r > den or 2 * r == den and k & 1:
                k, r = k + 1, den - r
            x_n.append(Fraction(k, grid) if k else Q0)
            e_n += -(-16 * ((t - s) * grid + r) // den)  # on 2**-(grid_bits+4)
        entries[n], e = tuple(x_n), max(e, e_n)
    e = Fraction(e, 16 * grid)
    return FiniteRational(entries), truncation_bound(outer, target, e, len(entries), head, prec)


def _rational_truncation(
    target: Sequence, outer: SpaceId, half_eps: Fraction, budget: int, prec: int
) -> tuple[FiniteRational, Fraction]:
    """x in c00 and its bound below half_eps on d(target, x), on the first head whose tail is."""
    if isinstance(target, FiniteRational):
        return target, Q0
    # a repeated cutoff (budget below 1024) would rebuild x and fail again
    for head in dict.fromkeys((64, 256, min(1024, budget), budget)):
        bound = truncation_bound(outer, target, Q0, 0, head, prec)
        for grid_bits in (prec, 2 * prec) if bound < half_eps else ():
            x, bound = _truncation(target, outer, head, grid_bits, prec)
            if bound < half_eps:
                return x, bound
    from decimal import Decimal  # renders any size of bound; needed on this path alone
    raise BudgetExceeded(f"no rational truncation within {format_rational(half_eps)} in {outer} by "
                         f"--budget {budget}: the bound at cutoff {head} is "
                         f"{Decimal(bound.numerator) / bound.denominator:.3g}")


def approximate_with_avoider(
    target: Sequence,
    epsilon: Fraction,
    outer: SpaceId,
    inner: SpaceId,
    budget: int,
    prec: int,
) -> ApproxResult:
    """f = x + c y within epsilon of the target in the outer metric, with a
    certificate that f escapes the inner space."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_outer(outer)
    if not strictly_included(inner, outer):
        raise NotStrictPair(f"{inner} is not strictly below {outer}")

    x, x_bound = _rational_truncation(target, outer, epsilon / 2, budget, prec)
    w, c, w_bound = _row_element(inner, outer, 1, epsilon / 2, budget, prec)

    f = combine([1, c], [x, w.seq])
    cert = escape_certificate(f, 1, w, ComplexInterval.exact(c), x.max_index + 1)
    return ApproxResult(f=f, certificate=cert, distance_upper=x_bound + w_bound)
