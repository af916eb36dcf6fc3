"""A node keeps the raw bounds of each metric rung (``Sequence.kept`` under
("rungs", space, prec, c)): a later walk on the same node reads the rungs it finds there and computes
the rest on a fresh head.  The reference for every walk is the same walk on
a freshly parsed node of the same spec, whose memo is empty; no golden is
read."""

from fractions import Fraction as F
from itertools import zip_longest

import pytest

from conftest import PREC, catalog
from seqchain import spaces
from seqchain.diagnose import classify
from seqchain.generic import disjoint_support
from seqchain.intervals import Q0
from seqchain.sequences import combine, zero
from seqchain.serialize import sequence_from_spec
from seqchain.spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    _budget_ladder,
    _Head,
    _walk,
    ball_scale,
    cap_lp,
    lp,
    metric_bounds,
    standard_chain,
)
from seqchain.witness import make_witness

# outer space -> the inner space of its row witnesses
SPACES = {
    "lp:1": (lp(1), cap_lp(0)),
    "lp:2": (lp(2), lp(1)),
    "cap-lp:0": (cap_lp(0), AINF),
    "cap-lp:1": (cap_lp(1), lp(1)),
    "c0": (C0, cap_lp(2)),
    "hd": (HD, LINF),
    "cn0": (CN0, HD),
}
C = F(3, 4)


def _spec(y, inner, node):
    """A row witness of y, or a two-part combination of two, by spec: rows 3
    and 4, sparse enough that a walk to budget 4096 stays short."""
    w3, w4 = (make_witness(inner, y, disjoint_support(j), 4096, PREC).seq for j in (3, 4))
    return w3.spec() if node == "witness" else combine([1, (F(-2), F(1, 3))], [w3, w4]).spec()


def _walk_on(y, node, c, budget):
    """The walk ``metric_bounds`` makes of c * node when node is its normal
    form's one part: a fresh head and the rungs the node keeps."""
    rungs = node.kept(("rungs", y, PREC, (c, Q0)), dict)
    return _walk(y, (_Head(node, PREC + 16), (c, Q0)), _budget_ladder(budget), PREC, rungs)


def _rung_keys(seq):
    return {key for key in seq._kept if key[0] == "rungs"}


def _fresh(spec, c, budget, y):
    """The walk on a freshly parsed node, whose memo is empty."""
    return list(_walk_on(y, sequence_from_spec(spec), c, budget))


@pytest.mark.parametrize("node", ["witness", "combination"])
@pytest.mark.parametrize("space", sorted(SPACES))
def test_memo_walks_equal_fresh_walks_rung_by_rung(space, node):
    y, inner = SPACES[space]
    spec = _spec(y, inner, node)
    # a walk's first rungs are the walk of a shorter ladder
    fresh = {(c, 4096): _fresh(spec, c, 4096, y) for c in (C, C / 2)}
    fresh[C, 256] = fresh[C, 4096][:len(_budget_ladder(256))]
    for order in ([(C, 256), (C, 4096)], [(C, 4096), (C, 256)], [(C, 4096), (C, 4096)]):
        seq = sequence_from_spec(spec)
        for c, budget in order:
            assert list(_walk_on(y, seq, c, budget)) == fresh[c, budget], order
        assert _rung_keys(seq) == {("rungs", y, PREC, (C, Q0))}
    # walks at c and c/2, and a second one at c, stepped in turn: a rung one
    # walk computes is read by the next, each on its own head
    seq = sequence_from_spec(spec)
    walks = [_walk_on(y, seq, c, budget) for c, budget in ((C, 4096), (C / 2, 4096), (C, 256))]
    got = [[], [], []]
    for steps in zip_longest(*walks):
        for out, step in zip(got, steps):
            if step is not None:
                out.append(step)
    assert got == [fresh[C, 4096], fresh[C / 2, 4096], fresh[C, 256]]


def test_metric_bounds_reads_the_memo_of_the_witness_it_scales(monkeypatch):
    y, inner = SPACES["hd"]
    w = make_witness(inner, y, disjoint_support(1), 4096, PREC).seq
    f, x = combine([1, C], [catalog()["finite"], w]), catalog()["finite"]
    first = list(metric_bounds(y, f, x, 4096, PREC))
    assert list(w._kept["rungs", y, PREC, (C, Q0)]) == _budget_ladder(4096)
    calls = []
    real = spaces._metric_once
    monkeypatch.setattr(spaces, "_metric_once", lambda *args: calls.append(args) or real(*args))
    assert list(metric_bounds(y, f, x, 4096, PREC)) == first
    assert list(metric_bounds(y, f, x, 256, PREC)) == first[:len(_budget_ladder(256))]
    assert calls == []
    # a longer ladder computes only the rungs past the cached ones
    assert [rung for rung, _ in metric_bounds(y, f, x, 16384, PREC)] == _budget_ladder(16384)
    assert [args[2] for args in calls] == [8192, 16384]


def test_ball_scale_and_classify_leave_no_memo():
    for y, inner in SPACES.values():
        w = make_witness(inner, y, disjoint_support(1), 4096, PREC).seq
        ball_scale(y, w, F(1, 8), 4096, PREC)
        assert not _rung_keys(w), str(y)
    nodes = [catalog()["prop28"], catalog()["nat"]]
    nodes.append(combine([1, (1, 2)], nodes))
    for seq in nodes:
        for y in standard_chain():
            classify(seq, y, 4096, PREC)
    assert not any(_rung_keys(seq) for seq in nodes)
    assert not zero()._kept
