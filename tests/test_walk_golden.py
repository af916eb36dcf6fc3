"""Pinned metric walks: the exact rationals of every rung, scale search and
truncation that the metrics give on the library's own witnesses.

``walk_golden.json`` holds, for the witness of each adjacent pair whose outer
space is ``hd`` or ``cap-lp`` (rows 1 to 4):

* every rung of ``metric_bounds(outer, c * w, 0, 256, 64)`` for each c in
  ``SCALES``, as (rung, lower, upper), read from one head of w shared by the
  scales, as ``ball_bound`` shares it (``metric_bounds`` is this walk on a
  head of its own, and a sum extended over a shared head equals a fresh one);
* ``ball_bound(outer, w, 1/j, 4096, 64)`` on row j, as (scale, upper);

the same two (``row_walks``, keyed by the pair) for the witness of each
adjacent pair of ``standard_chain(1, 2)`` and ``standard_chain(1/3, 7/5)``
whose outer space has one row or is ``cn0`` (``lp`` at 1/3, 1, 7/5 and 2,
``c0``, ``linf`` and ``cn0``; rows 1 and 2), so c != 1 scales every row kind;

and ``_truncation`` of ``TRUNCATION_TARGETS`` in ``TRUNCATION_OUTERS`` at
each head and grid, as (the SHA-256 of x's canonical spec, bound), or the
error class it raises.  A
change to how a walk sums, scales, roots or rounds must keep every byte.
To record it anew after a deliberate change, run
``PYTHONPATH=src python tests/test_walk_golden.py``.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

from seqchain import families
from seqchain.errors import SeqchainError
from seqchain.generic import _truncation, disjoint_support
from seqchain.intervals import format_rational
from seqchain.serialize import canonical_json
from seqchain.spaces import (
    AINF,
    CN0,
    HD,
    LINF,
    _budget_ladder,
    _Head,
    _walk,
    adjacent_pairs,
    ball_bound,
    cap_lp,
    lp,
)
from seqchain.witness import make_witness

GOLDEN_PATH = Path(__file__).parent / "walk_golden.json"

PAIRS = ((LINF, HD), (AINF, cap_lp(0)), (lp(1), cap_lp(1)), (lp(2), cap_lp(2)))
ROWS = (1, 2, 3, 4)
# one-row outer spaces and cn0, each pair once
ROW_PAIRS = tuple(dict.fromkeys(
    pair for a, b in ((1, 2), (F(1, 3), F(7, 5))) for pair in adjacent_pairs(a, b)
    if pair[1].tag in ("lp", "c0", "linf", "cn0")))
ROW_ROWS = (1, 2)
SCALES = ((F(1), F(0)), (F(1, 8), F(0)), (F(1, 128), F(0)), (F(3, 4), F(1, 5)))
TRUNCATION_TARGETS = {
    "prop28": families.prop28(),
    "nat": families.nat(),
    "gap-lp-cap-1/2": families.gap_lp_cap(F(1, 2)),
}
TRUNCATION_OUTERS = (lp(1), CN0, HD)
TRUNCATION_HEADS = (64, 256)
TRUNCATION_GRIDS = (64, 128)


def _q(x):
    return format_rational(x)


def record_walks(pairs=PAIRS, rows=ROWS, name=lambda inner, outer: str(outer)):
    out = {}
    for inner, outer in pairs:
        for j in rows:
            w = make_witness(inner, outer, disjoint_support(j), 4096, 64)
            head = _Head(w.seq, 64 + 16)
            for c in SCALES:
                walk = _walk(outer, (head, c), _budget_ladder(256), 64, {})
                out[f"{name(inner, outer)}|{j}|{_q(c[0])}+{_q(c[1])}i"] = [
                    [rung, _q(b.lower), _q(b.upper)] for rung, b in walk
                ]
            scale, upper = ball_bound(outer, w.seq, F(1, j), 4096, 64)
            out[f"{name(inner, outer)}|{j}|ball"] = [_q(scale), _q(upper)]
    return out


def record_truncations():
    out = {}
    for name, target in TRUNCATION_TARGETS.items():
        for outer in TRUNCATION_OUTERS:
            for head in TRUNCATION_HEADS:
                for grid in TRUNCATION_GRIDS:
                    try:
                        x, bound = _truncation(target, outer, head, grid, 64)
                        spec = canonical_json(x.spec()).encode()
                        value = [hashlib.sha256(spec).hexdigest(), _q(bound)]
                    except SeqchainError as err:
                        value = type(err).__name__
                    out[f"{name}|{outer}|{head}|{grid}"] = value
    return out


def record():
    return {
        "walks": record_walks(),
        "row_walks": record_walks(ROW_PAIRS, ROW_ROWS, lambda inner, outer: f"{inner}<{outer}"),
        "truncations": record_truncations(),
    }


def test_walks_and_truncations_match_golden():
    assert record() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
