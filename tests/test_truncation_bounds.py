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
from seqchain.sequences import FiniteRational, combine
from seqchain.spaces import C0, CN0, HD, cap_lp, lp, metric_bound, truncation_bound

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
