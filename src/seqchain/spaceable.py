"""Disjointly supported witness bases with exact coefficient recovery.

Basis element j lives on row j of the dyadic partition, so distinct
elements never share a support point.  Coefficients of a finite
combination are recovered by evaluating at a support point where the
basis element is provably nonzero; for combinations built over the basis
the cross terms vanish exactly and the recovered interval is zero-width,
even when the witness values themselves are irrational.  That point is
kept on the witness's node per (row, budget, prec), and the residual is
read only from the parts whose support hint holds it, so recovering row j
evaluates no term of another row's witness.  A combination's escape
certificate needs one coefficient that excludes zero, so its recovery
runs in row order and stops at the first such row.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import AllCoefficientsPossiblyZero, NoNonzeroSupportPoint
from .generic import OutsideXCertificate, disjoint_support, escape_certificate
from .intervals import Q0, ComplexInterval, Frozen
from .sequences import Sequence
from .spaces import SpaceId
from .witness import Witness, make_witness


def basis_element(
    inner: SpaceId, outer: SpaceId, j: int, budget: int, prec: int = 64
) -> Witness:
    """The j-th basis witness, supported in disjoint_support(j)."""
    if j < 1:
        raise ValueError("basis index is 1-based")
    return make_witness(inner, outer, disjoint_support(j), budget, prec)


class SpaceableBasis(Frozen):
    __slots__ = _fields = ("inner", "outer", "elements")

    def __init__(self, inner: SpaceId, outer: SpaceId, elements):  # j -> witness, read-only
        super().__init__(inner, outer, MappingProxyType(dict(elements)))

    def describe(self):
        return {
            "inner": str(self.inner),
            "outer": str(self.outer),
            "elements": {str(j): w.describe() for j, w in sorted(self.elements.items())},
        }


def build_basis(
    inner: SpaceId, outer: SpaceId, count: int, budget: int, prec: int = 64
) -> SpaceableBasis:
    elements = {
        j: basis_element(inner, outer, j, budget, prec) for j in range(1, count + 1)
    }
    return SpaceableBasis(inner=inner, outer=outer, elements=elements)


def _first_nonzero_point(w: Witness, budget: int, prec: int) -> tuple[int, int]:
    """First support point of the witness row whose value interval excludes
    zero, with the precision (prec doubled up to three times) at which it
    does."""
    support = w.support
    for k in range(1, max(1, budget) + 1):
        n = support.nth(k)
        if w.seq.term(n, prec).is_exact_zero:
            continue
        for work in (prec, 2 * prec, 4 * prec, 8 * prec):
            if w.seq.term(n, work).excludes_zero():
                return n, work
    raise NoNonzeroSupportPoint(
        f"no provably nonzero value among the first {budget} support points"
    )


def recover_coefficient(
    f: Sequence, basis: SpaceableBasis, j: int, prec: int, budget: int = 256
) -> ComplexInterval:
    """Interval for the coefficient of basis element j in f.

    f's ``normal_parts`` give the basis element's coefficient exactly (parts
    recognized by spec identity, nested combinations flattened; a bare f is
    its own one part); the other parts whose support hint holds the
    evaluation point add their value there over y, and the rest are exact
    zeros there by the hint contract, so the other basis rows are never
    evaluated and the result is zero-width for exact combinations over the
    basis.  The evaluation point is kept on the witness's node per (row,
    budget, prec); a search that raises keeps nothing."""
    if j not in basis.elements:
        raise KeyError(f"basis has no element {j}")
    w = basis.elements[j]
    i0, prec = w.seq.kept(("first-nonzero", w.support, budget, prec),
                          _first_nonzero_point, w, budget, prec)
    y_key, exact, residual = w.seq.spec_key(), (Q0, Q0), None
    for key, ((re, im), part) in f.normal_parts.items():
        if key == y_key:
            exact = re, im
        elif part.support_hint.member(i0):
            v = part.term(i0, prec)
            if not v.is_exact_zero:
                v = v.scale(re, im)
                residual = v if residual is None else residual + v
    out = ComplexInterval.exact(*exact)
    return out if residual is None else out + residual.div(w.seq.term(i0, prec))


def certify_combination_outside(
    f: Sequence,
    basis: SpaceableBasis,
    active: list[int],
    budget: int,
    prec: int,
) -> OutsideXCertificate:
    """Escape certificate for a finite combination over the basis, on the
    row of the smallest active index whose recovered coefficient excludes
    zero, with that coefficient as the scale.

    Every active index must be in the basis (``KeyError`` otherwise, before
    any recovery).  Coefficients are recovered in index order and recovery
    stops at the first that excludes zero: the rows after it are never
    evaluated."""
    for j in active:
        if j not in basis.elements:
            raise KeyError(f"basis has no element {j}")
    for j in sorted(active):
        iv = recover_coefficient(f, basis, j, prec, budget)
        if iv.excludes_zero():
            return escape_certificate(f, j, basis.elements[j], iv, 0)
    raise AllCoefficientsPossiblyZero(
        "no recovered coefficient interval excludes zero at this precision"
    )
