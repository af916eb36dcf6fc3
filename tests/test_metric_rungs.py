"""Distance questions decided at the first decisive rung of the budget ladder,
against reference copies of the full-ladder code they replaced: one
``metric_bound`` call per question, each summing every rung."""

import re
from fractions import Fraction

import pytest

from conftest import PREC, catalog
from seqchain.errors import BudgetExceeded, SeqchainError
from seqchain.generic import (
    ApproxResult,
    DenseFamilyElement,
    _require_outer,
    _row_element,
    approximate_with_avoider,
    certify_outside,
    disjoint_support,
)
from seqchain.sequences import FiniteRational, combine, zero
from seqchain.spaces import (
    C0,
    CN0,
    HD,
    MetricBound,
    _budget_ladder,
    _ceil_grid,
    _Head,
    _metric_once,
    _upper_below,
    ball_scale,
    cap_lp,
    lp,
    metric_bound,
    metric_bounds,
    standard_chain,
    strictly_included,
)
from seqchain.witness import make_witness

F = Fraction
BALL_SPACES = (lp(1), lp(F(1, 2)), C0, CN0, HD, cap_lp(0))
RADII = (F(1), F(1, 2), F(1, 8), F(1, 128), F(1, 2048))


# -- reference: every question answered by a full ladder ------------------------------


def _floor_grid(x, bits):
    return F((x.numerator << bits) // x.denominator, 1 << bits)


def _ref_metric_bound(y, a, b, budget, prec):
    if a is b or a.spec_key() == b.spec_key():
        return MetricBound(F(0), F(0))
    head = _Head(combine([1, -1], [a, b]), prec + 16)
    best_lo, best_hi = F(0), None
    for rung in _budget_ladder(budget):
        lo, hi = _metric_once(y, head, rung, prec)
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
    best_lo = _floor_grid(best_lo, prec + 8)
    if best_hi is not None:
        best_hi = max(best_lo, _ceil_grid(best_hi, prec + 8))
    return MetricBound(best_lo, best_hi)


def _ref_ball_scale(y, seq, radius, budget, prec, max_halvings=96):
    radius = Fraction(radius)
    eval_budget = min(budget, 128)
    bits = max(0, radius.denominator.bit_length() - radius.numerator.bit_length())
    eval_prec = min(prec, max(32, 12 + bits))
    for m in range(max_halvings + 1):
        c = Fraction(1, 1 << m)
        bound = _ref_metric_bound(y, combine([c], [seq]), zero(), eval_budget, eval_prec)
        if bound.upper is not None and bound.upper < radius:
            return c
    raise BudgetExceeded(f"no dyadic scale reached radius {radius} in {max_halvings} halvings")


def _round_to_grid(value: Fraction, grid_bits: int) -> Fraction:
    scale = 1 << grid_bits
    return Fraction(round(value * scale), scale)


def _ref_rational_truncation(target, outer, half_eps, budget, prec):
    if isinstance(target, FiniteRational):
        return target
    for head in (64, 256, min(1024, budget), budget):
        for grid_bits in (prec, 2 * prec):
            entries = {}
            for n in target.support_hint.elements_upto(head):
                iv = target.term(n, grid_bits + 4)
                re = _round_to_grid((iv.re_lo + iv.re_hi) / 2, grid_bits)
                im = _round_to_grid((iv.im_lo + iv.im_hi) / 2, grid_bits)
                entries[n] = (re, im)
            x = FiniteRational(entries)
            bound = _ref_metric_bound(outer, target, x, budget, prec)
            if bound.upper is not None and bound.upper < half_eps:
                return x
    raise BudgetExceeded("no rational truncation reached the target distance")


def _ref_approximate_with_avoider(target, epsilon, outer, inner, budget, prec):
    epsilon = Fraction(epsilon)
    _require_outer(outer)
    x = _ref_rational_truncation(target, outer, epsilon / 2, budget, prec)
    w = make_witness(inner, outer, disjoint_support(1), budget, prec)
    c = _ref_ball_scale(outer, w.seq, epsilon / 2, budget, prec)
    element = DenseFamilyElement(j=1, x=x, witness=w, scale=c, f=combine([1, c], [x, w.seq]))
    cert = certify_outside([1], [element])
    for b in sorted({min(64, budget), min(256, budget), budget}):
        dist = _ref_metric_bound(outer, element.f, target, b, prec)
        if dist.upper is not None and dist.upper < epsilon:
            return ApproxResult(f=element.f, certificate=cert, distance_upper=dist.upper)
    raise BudgetExceeded("certified distance bound did not reach epsilon")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SeqchainError as err:
        return type(err).__name__, str(err)


# -- cases ----------------------------------------------------------------------------


def _witnesses(outer):
    """Row-1 witnesses of ainf and of the chain member just below outer."""
    below = [x for x in standard_chain() if strictly_included(x, outer)]
    inners = dict.fromkeys([below[0], below[-1]])
    return [make_witness(inner, outer, disjoint_support(1), 256, PREC) for inner in inners]


def _metric_cases():
    """(y, a, b, budget, prec): the witnesses and prop28 against zero and
    against a nearby finite sequence."""
    near = FiniteRational({0: F(1, 3), 5: (F(-1, 7), F(2, 9))})
    for y in BALL_SPACES:
        for seq in [w.seq for w in _witnesses(y)] + [catalog()["prop28"]]:
            for other in (zero(), near):
                for budget, prec in ((40, 32), (100, 48)):
                    yield y, seq, other, budget, prec


def test_rung_walk_and_early_decision_equal_the_full_ladder():
    """Each rung yields the bound of a ladder stopped there, ``metric_bound``
    is the last of them, and the early decision ``ball_bound`` relies on
    (``_upper_below`` over the walk) answers as the full ladder does at
    either endpoint and one grid step either side of it."""
    for y, a, b, budget, prec in _metric_cases():
        walked = list(metric_bounds(y, a, b, budget, prec))
        assert [rung for rung, _ in walked] == _budget_ladder(budget)
        for rung, bound in walked:
            assert bound == _ref_metric_bound(y, a, b, rung, prec), (str(y), rung)
        bound = walked[-1][1]
        assert metric_bound(y, a, b, budget, prec) == bound
        step = F(1, 1 << (prec + 8))
        for end in (bound.lower, bound.upper):
            for r in (end - step, end, end + step):
                got = _upper_below(metric_bounds(y, a, b, budget, prec), r) is not None
                assert got == (bound.upper < r), (str(y), budget, prec, r, bound)


def test_identical_pair_is_zero_at_every_rung():
    seq = catalog()["prop28"]
    walked = list(metric_bounds(HD, seq, seq, 100, PREC))
    assert walked == [(rung, MetricBound(F(0), F(0))) for rung in (16, 32, 64)]
    assert _upper_below(metric_bounds(HD, seq, seq, 100, PREC), F(0)) is None
    assert _upper_below(metric_bounds(HD, seq, seq, 100, PREC), F(1, 1 << 80)) is not None


def test_ball_scale_equals_the_full_ladder():
    for y in BALL_SPACES:
        # in cap-lp:0 radii 1/128 and 1/2048 take 45 and 84 halvings,
        # seconds of reference ladders
        radii = RADII[:3] if y.tag == "cap-lp" else RADII
        for w in _witnesses(y):
            for radius in radii:
                got = _outcome(ball_scale, y, w.seq, radius, 4096, PREC)
                ref = _outcome(_ref_ball_scale, y, w.seq, radius, 4096, PREC)
                assert got == ref, (str(y), str(w.inner), radius)


_APPROX_CASES = {
    # at budget 4096: fails at the checkpoints 64 and 256, passes at 4096
    "prop28-lp1": ("prop28", F(1, 4), lp(1), standard_chain()[0]),
    # passes the checkpoint of budget 40 at rung 32, not at a rung equal to 40
    "prop28-cn0": ("prop28", F(1, 1024), CN0, C0),
    # no rational truncation below budget 4096
    "rem29-lp2": ("rem29-evens", F(1, 8), lp(2), lp(1)),
    "finite-hd": ("finite", F(1, 64), HD, C0),
}


@pytest.mark.parametrize("budget", [1, 8, 40, 64, 100, 300, 4096])
@pytest.mark.parametrize("case", sorted(_APPROX_CASES))
def test_approximation_equals_the_full_ladder(case, budget):
    """The outcome, f and the certificate are the full ladders'.  The
    distance comes from the tail oracles and the triangle inequality, not
    from a walk, so it is checked for soundness instead: the walked lower
    bound on d(f, target) at 4 * prec is at most ``distance_upper``, which
    is below epsilon.  A truncation that fails names its last cutoff's bound."""
    # a row built here, not read from an earlier test's cache hit
    _row_element.cache_clear()
    name, eps, outer, inner = _APPROX_CASES[case]
    target = catalog()[name]
    got = _outcome(approximate_with_avoider, target, eps, outer, inner, budget, PREC)
    ref = _outcome(_ref_approximate_with_avoider, target, eps, outer, inner, budget, PREC)
    if not isinstance(ref, ApproxResult):
        assert not isinstance(got, ApproxResult) and got[0] == ref[0]
        if ref[1].startswith("no rational truncation"):
            assert re.fullmatch(r"no rational truncation within \S+ in \S+ by --budget \d+: "
                                r"the bound at cutoff \d+ is [0-9.e+-]+", got[1])
        else:
            assert got == ref
        return
    assert isinstance(got, ApproxResult)
    assert got.describe()["f"] == ref.describe()["f"]
    assert got.describe()["certificate"] == ref.describe()["certificate"]
    lower = metric_bound(outer, got.f, target, budget, 4 * PREC).lower
    assert lower <= got.distance_upper < eps
