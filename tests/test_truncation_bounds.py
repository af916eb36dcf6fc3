"""Approx's truncation distances come from the tail oracles alone: a
rounding residue on the head and one tail bound per seminorm row, composed
by the metric's own rules (``spaces.truncation_bound``).  No walk checks
them when they are made, so here each is held against a metric walk of the
same difference at four times the precision: the walk's certified lower
bound may never exceed the oracle bound."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import catalog
from seqchain.errors import MissingTailOracle
from seqchain.generic import _rational_truncation, _truncation
from seqchain.intervals import ComplexInterval
from seqchain.sequences import FiniteRational, Sequence, combine
from seqchain.spaces import C0, CN0, HD, cap_lp, lp, metric_bound, truncation_bound
from seqchain.supports import ExplicitFinite

F = Fraction
OUTERS = (lp(F(1, 2)), lp(1), lp(2), cap_lp(0), cap_lp(1), C0, HD, CN0)


def _walk_budget(outer):
    """Past the first head, where the walk sees what a bound that skips part
    of the tail misses; at 4 * prec a Frechet sum's many rows cost seconds
    per rung past 64, so those walks stop there."""
    return 64 if outer.tag in ("cap-lp", "hd") else 256


# finite data past the first two heads, with its largest entry between them:
# a bound whose tail is read past a later cutoff than its head misses it
LONG = FiniteRational({0: F(1, 3), 100: (F(1), F(-1, 5)), 700: (F(1, 9), F(1, 7))})
TARGETS = {**catalog(), "long": LONG, "long-combined": combine([F(1, 2)], [LONG])}


def _heads(budget):
    return list(dict.fromkeys((64, 256, min(1024, budget), budget)))


# the rounding residue of an exact entry off the grid (-1/3i), and a tail
# that holds the largest entry past the first head
@example(name="finite", outer=lp(1), budget=16, prec=32, pick=0, double_grid=False)
@example(name="long", outer=lp(1), budget=16, prec=64, pick=0, double_grid=False)
@given(
    name=st.sampled_from(sorted(TARGETS)),
    outer=st.sampled_from(OUTERS),
    budget=st.sampled_from((16, 100, 300, 1024)),
    prec=st.sampled_from((32, 64)),
    pick=st.integers(0, 3),
    double_grid=st.booleans(),
)
def test_truncation_bounds_hold_against_a_finer_walk(name, outer, budget, prec, pick,
                                                     double_grid):
    target = TARGETS[name]
    heads = _heads(budget)
    head = heads[pick % len(heads)]
    try:
        x, bound = _truncation(target, outer, head, 2 * prec if double_grid else prec, prec)
    except MissingTailOracle:
        return
    assert metric_bound(outer, target, x, _walk_budget(outer), 4 * prec).lower <= bound
    # the bound before x is built leaves the residue out, and no more
    assert truncation_bound(outer, target, F(0), 0, head, prec) <= bound


@pytest.mark.parametrize("outer", OUTERS, ids=str)
def test_the_chosen_truncation_is_within_its_bound(outer):
    """What ``approx`` uses: the first head whose bound reaches the radius,
    and its bound, below the radius and above a walk's lower bound."""
    target = TARGETS["long-combined"]
    x, bound = _rational_truncation(target, outer, F(1, 4), 4096, 64)
    assert metric_bound(outer, target, x, _walk_budget(outer), 256).lower <= bound < F(1, 4)


class _Boxes(Sequence):
    """a_n = boxes[n] inside the list, zero past it."""

    kind = "boxes"

    def __init__(self, boxes):
        super().__init__()
        self.boxes = boxes
        self.support_hint = ExplicitFinite(range(len(boxes)))

    def _term(self, n, prec):
        return self.boxes[n] if n < len(self.boxes) else ComplexInterval.zero()


GRID_BITS = 3


@st.composite
def rounding_axes(draw):
    """(lo, hi): a midpoint on a tie of the 2**-GRID_BITS grid (either parity,
    either sign) or anywhere, as a point or a box, or zero."""
    shape = draw(st.sampled_from(["tie", "any", "zero"]))
    if shape == "zero":
        return Fraction(0), Fraction(0)
    if shape == "tie":
        mid = Fraction(2 * draw(st.integers(-40, 40)) + 1, 2 << GRID_BITS)
    else:
        mid = draw(st.fractions(-3, 3, max_denominator=60))
    half = draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(5, 2 << GRID_BITS)]))
    return (mid, mid) if not half else (mid - half, mid + half)


def _ref_rounding(boxes):
    """x's entries and the residue e, rounded as ``round(Fraction(mid, den))``."""
    entries, e, grid = {}, 0, 1 << GRID_BITS
    for n, iv in enumerate(boxes):
        x_n, e_n = [], 0
        for lo, hi in ((iv.re_lo, iv.re_hi), (iv.im_lo, iv.im_hi)):
            s, t = lo.numerator * hi.denominator, hi.numerator * lo.denominator
            den, mid = 2 * lo.denominator * hi.denominator, (s + t) * grid
            x_n.append(Fraction(k := round(Fraction(mid, den)), grid))
            e_n += -(-16 * ((t - s) * grid + abs(mid - k * den)) // den)
        entries[n], e = tuple(x_n), max(e, e_n)
    return FiniteRational(entries).entries, Fraction(e, 16 * grid)


@given(st.lists(st.tuples(rounding_axes(), rounding_axes()), min_size=1, max_size=8))
def test_truncation_rounds_half_to_even_as_the_fraction_round(axes):
    """Ties of both parities and signs, real and complex boxes: the integer
    rounding gives the entries and residue of ``round`` on a ``Fraction``."""
    boxes = [ComplexInterval(*re, *im) for re, im in axes]
    target = _Boxes(boxes)
    entries, e = _ref_rounding(boxes)
    x, bound = _truncation(target, CN0, len(boxes) - 1, GRID_BITS, 32)
    assert x.entries == entries
    assert bound == truncation_bound(CN0, target, e, len(boxes), len(boxes) - 1, 32)
