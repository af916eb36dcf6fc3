"""Pinned term enclosures of every catalog family.

``family_terms_golden.json`` holds, for each sequence below, each precision
in ``PRECS`` and each index n <= ``LAST``, the term's box as
``[re_lo, re_hi, im_lo, im_hi]`` followed by one flag per axis: whether
that axis holds one endpoint object (a point).  The sequences are every
family of the registry, with the gap parameters the benchmark's classify
op list uses, so each power kernel path (integer exponents, negative
rational exponents, square roots of exact and inexact values) is pinned
byte for byte.  To record the file anew after a deliberate change of the
term oracles, run ``PYTHONPATH=src python tests/test_family_terms.py``.
"""

import json
from fractions import Fraction as F
from pathlib import Path

from seqchain import families
from seqchain.intervals import format_rational
from seqchain.supports import Arith, DyadicRow, PowersOfTwo

GOLDEN_PATH = Path(__file__).parent / "family_terms_golden.json"

PRECS = [16, 64, 130]
LAST = 64
SUPPORTS = {"arith-1-3": Arith(1, 3), "dyadic-row-2": DyadicRow(2), "powers-of-two": PowersOfTwo()}


def _sequences():
    seqs = {
        "prop28": families.prop28(),
        "nat": families.nat(),
        "nat-power": families.nat_power(),
        "const-one": families.const_one(),
        "gap-cap-c0-1": families.gap_cap_c0(F(1)),
        "gap-cap-c0-2": families.gap_cap_c0(F(2)),
    }
    for a in ("1/2", "1", "2"):
        seqs[f"gap-lp-cap-{a}"] = families.gap_lp_cap(F(a))
    for a, b in (("0", "1"), ("0", "2"), ("1/2", "3/2"), ("1", "2")):
        seqs[f"gap-cap-lp-{a}-{b}"] = families.gap_cap_lp(F(a), F(b))
    for name, support in SUPPORTS.items():
        seqs[f"rem29@{name}"] = families.rem29(support)
        seqs[f"nn-on-support@{name}"] = families.nn_on_support(support)
    return seqs


def _box(z):
    ends = [format_rational(x) for x in (z.re_lo, z.re_hi, z.im_lo, z.im_hi)]
    return ends + [z.re_lo is z.re_hi, z.im_lo is z.im_hi]


def record_all():
    return {
        name: {str(prec): [_box(seq.term(n, prec)) for n in range(LAST + 1)] for prec in PRECS}
        for name, seq in sorted(_sequences().items())
    }


def test_every_family_sequence_is_pinned():
    assert {seq.name for seq in _sequences().values()} == set(families.FAMILY_BUILDERS)


def test_family_terms_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = record_all()
    assert sorted(got) == sorted(golden)
    assert [name for name in got if got[name] != golden[name]] == []


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record_all(), indent=0, sort_keys=True) + "\n")
