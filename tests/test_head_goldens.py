"""Pinned certificates and metric enclosures: the tails and head sums they
rest on.

``in_cert_golden.json`` holds, per sequence and space, the SHA-256 of the
canonical JSON of ``try_in_certificate(...).describe()`` (or None) at every
precision in ``IN_PRECS``.  ``out_cert_golden.json`` holds, per sequence and
chain space, the SHA-256 of the canonical JSON of
``try_out_certificate(...).describe()`` at ``OUT_PREC``, or None.  The
sequences are the catalog as is, spread onto each of the four infinite
support kinds, restricted to the evens, and in a combination with complex
coefficients; the spaces are ``IN_SPACES`` and ``standard_chain()``.
``metric_golden.json`` holds
the ``metric_bound`` enclosure (or the error class it raises) of seven
disjoint catalog pairs in every space with a metric, at each budget in
``METRIC_BUDGETS`` and precision in ``METRIC_PRECS``; a key names its
precision unless it is the first.  The in-certificate rows are the tail
oracles' bounds past N = -1, which the metrics add to their head sums, so
a change to a tail oracle, or to how heads are bounded or summed, must keep
both files byte for byte; a change to how certificates are built, held or
rendered must keep both certificate files.  To record them anew after a
deliberate change, run ``PYTHONPATH=src python tests/test_head_goldens.py``.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

from conftest import catalog
from seqchain import families
from seqchain.diagnose import try_in_certificate, try_out_certificate
from seqchain.errors import SeqchainError
from seqchain.intervals import format_rational
from seqchain.sequences import combine, restrict, spread
from seqchain.spaces import AINF, C0, CN0, HD, LINF, cap_lp, lp, metric_bound, standard_chain
from seqchain.supports import AllNaturals, Arith, DyadicRow, PowersOfTwo

IN_GOLDEN_PATH = Path(__file__).parent / "in_cert_golden.json"
OUT_GOLDEN_PATH = Path(__file__).parent / "out_cert_golden.json"
METRIC_GOLDEN_PATH = Path(__file__).parent / "metric_golden.json"

IN_SPACES = [lp(F(1, 2)), lp(1), lp(2), cap_lp(0), cap_lp(1), cap_lp(2), LINF, HD]
IN_PRECS = [32, 64]
OUT_PREC = 64
SUPPORTS = {
    "all": AllNaturals(),
    "powers-of-two": PowersOfTwo(),
    "dyadic-row-2": DyadicRow(2),
    "arith-1-3": Arith(1, 3),
}
METRIC_SPACES = [lp(F(1, 2)), lp(1), lp(2), cap_lp(0), cap_lp(1), C0, LINF, HD, CN0, AINF]
METRIC_BUDGETS = [16, 256]
METRIC_PRECS = [32, 64]


def _in_sequences():
    """Every catalog member in each of its forms: the head terms are exact
    and inexact, real and complex, points and wide boxes."""
    seqs = {}
    for name, seq in sorted(catalog().items()):
        seqs[name] = seq
        for kind, support in SUPPORTS.items():
            seqs[f"spread({name},{kind})"] = spread(seq, support)
        seqs[f"restrict({name})"] = restrict(seq, Arith(0, 2))
        seqs[f"combine({name})"] = combine([(F(1, 2), F(1, 3)), (2, -1)], [seq, families.prop28()])
    return seqs


def _sha256(cert):
    if cert is None:
        return None
    canonical = json.dumps(cert, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()


def record_in_certs():
    out = {}
    for name, seq in _in_sequences().items():
        for space in IN_SPACES:
            certs = {}
            for prec in IN_PRECS:
                cert = try_in_certificate(seq, space, prec)
                certs[str(prec)] = None if cert is None else cert.describe()
            out[f"{name}|{space}"] = _sha256(certs)
    return out


def record_out_certs():
    out = {}
    for name, seq in _in_sequences().items():
        for space in standard_chain():
            cert = try_out_certificate(seq, space, OUT_PREC)
            out[f"{name}|{space}"] = _sha256(None if cert is None else cert.describe())
    return out


def _metric_pairs():
    """The catalog in name order, taken two at a time: each member in one pair."""
    names = sorted(catalog())
    seqs = catalog()
    for name, other in zip(names[::2], names[1::2]):
        yield f"{name}~{other}", seqs[name], seqs[other]


def record_metrics():
    out = {}
    for label, a, b in _metric_pairs():
        for space in METRIC_SPACES:
            for budget in METRIC_BUDGETS:
                for prec in METRIC_PRECS:
                    try:
                        bound = metric_bound(space, a, b, budget, prec)
                        value = [format_rational(bound.lower), format_rational(bound.upper)]
                    except SeqchainError as err:
                        value = type(err).__name__
                    key = f"{label}|{space}|{budget}"
                    out[key if prec == METRIC_PRECS[0] else f"{key}|{prec}"] = value
    return out


def _mismatches(got, golden):
    assert sorted(got) == sorted(golden)
    return [key for key in got if got[key] != golden[key]]


def test_in_certificates_match_golden():
    assert _mismatches(record_in_certs(), json.loads(IN_GOLDEN_PATH.read_text())) == []


def test_out_certificates_match_golden():
    assert _mismatches(record_out_certs(), json.loads(OUT_GOLDEN_PATH.read_text())) == []


def test_metric_bounds_match_golden():
    assert _mismatches(record_metrics(), json.loads(METRIC_GOLDEN_PATH.read_text())) == []


if __name__ == "__main__":
    IN_GOLDEN_PATH.write_text(json.dumps(record_in_certs(), indent=1, sort_keys=True) + "\n")
    OUT_GOLDEN_PATH.write_text(json.dumps(record_out_certs(), indent=1, sort_keys=True) + "\n")
    METRIC_GOLDEN_PATH.write_text(json.dumps(record_metrics(), indent=1, sort_keys=True) + "\n")
