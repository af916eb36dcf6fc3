"""Pinned values of every catalog family's divergence and tail oracles.

``family_oracles_golden.json`` holds, for each sequence below and each
exponent in ``EXPONENTS``: ``lp_divergence(p)`` and the ``cap-lp:a`` escape
(None, or the escape exponent q that ``diagnose._escape_exponent`` reads off
the threshold, and ``lp_divergence(q)``'s ``describe()`` and first three
blocks), and ``tail_majorant(N, p, 64)`` at each cutoff in ``CUTOFFS``
(None or its exact value).  It also holds ``sup_tail(N, 64)`` and
``disc_tail(N, 3/4, 64)`` at each cutoff in ``CUTOFFS``, and
``pos_sup_tail(K, 64)`` at each K in ``POSITIONS``.  The same four tails
are pinned again at prec 8 (keys ending ``@8``), below the 16-bit floor the
families work at, and each growth tag is pinned by its kind, label,
``g_inf`` and its (s(m), g(m)) or (s(m), rho(m)) for m in ``TAG_INDICES``.
The sequences are the catalog, two more gap parameters, and rem29 and
nn-on-support on the supports in ``SUPPORTS``.  A refactor of the families must keep every
entry, the Nones included.  To record the file anew after a deliberate
change of the oracles, run ``PYTHONPATH=src python tests/test_family_oracles.py``.
"""

import json
from fractions import Fraction as F
from pathlib import Path

from conftest import catalog
from seqchain import families
from seqchain.diagnose import _escape_exponent
from seqchain.supports import Arith, DyadicRow, PowersOfTwo
from seqchain.tags import SubseqLowerBound

GOLDEN_PATH = Path(__file__).parent / "family_oracles_golden.json"

EXPONENTS = [F(1, 8), F(1, 2), F(1), F(5, 4), F(3, 2), F(2), F(3)]
CUTOFFS = [-1, 0, 37]
POSITIONS = [0, 1, 2, 16, 37]
SUPPORTS = {"arith-1-3": Arith(1, 3), "dyadic-row-2": DyadicRow(2), "powers-of-two": PowersOfTwo()}
RADIUS = F(3, 4)
PREC = 64
LOW_PREC = 8
TAG_INDICES = range(1, 7)


def _sequences():
    seqs = catalog()
    seqs["gap-cap-c0-0"] = families.gap_cap_c0(F(0))
    seqs["gap-cap-lp-1/2-3/2"] = families.gap_cap_lp(F(1, 2), F(3, 2))
    for name, support in SUPPORTS.items():
        seqs[f"rem29@{name}"] = families.rem29(support)
        seqs[f"nn-on-support@{name}"] = families.nn_on_support(support)
    return seqs


def _divergence(q, bd):
    out = {"q": str(q)}
    if bd is not None:
        out["describe"] = bd.describe()
        out["blocks"] = [list(bd.block(j)) for j in range(bd.j_start, bd.j_start + 3)]
    return out


def _value(x):
    return None if x is None else str(F(x))


def _disc_value(pair):
    return None if pair is None else str(F(*pair))


def _tag(tag):
    bound = tag.g if isinstance(tag, SubseqLowerBound) else tag.rho
    return {
        "kind": type(tag).__name__,
        "label": tag.label,
        "g_inf": _value(getattr(tag, "g_inf", None)),
        "points": [[tag.s(m), _value(bound(m))] for m in TAG_INDICES],
    }


def _tails(seq, prec):
    return {
        "tail": {
            f"{N}:{x}": _value(seq.tail_majorant(N, x, prec)) for x in EXPONENTS for N in CUTOFFS
        },
        "sup": {str(N): _value(seq.sup_tail(N, prec)) for N in CUTOFFS},
        "disc": {str(N): _disc_value(seq.disc_tail(N, RADIUS, prec)) for N in CUTOFFS},
        "pos_sup": {str(K): _value(seq.pos_sup_tail(K, prec)) for K in POSITIONS},
    }


def _record(seq):
    lp, cap = {}, {}
    for x in EXPONENTS:
        bd = seq.lp_divergence(x)
        lp[str(x)] = None if bd is None else _divergence(bd.p, bd)
        q = _escape_exponent(seq.threshold, x)
        cap[str(x)] = None if q is None else _divergence(q, seq.lp_divergence(q))
    low = {f"{key}@{LOW_PREC}": value for key, value in _tails(seq, LOW_PREC).items()}
    tags = [_tag(t) for t in seq.growth_tags]
    return {"lp": lp, "cap": cap, **_tails(seq, PREC), **low, "tags": tags}


def record_all():
    return {name: _record(seq) for name, seq in sorted(_sequences().items())}


def test_family_oracles_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = record_all()
    assert sorted(got) == sorted(golden)
    assert [name for name in got if got[name] != golden[name]] == []


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
