"""Soundness guards that need no golden file.

Two enclosures of one distance, at any budgets and precisions, must
overlap: each holds the true distance.  An in-certificate row bound, the
tail oracle's bound on the whole row, must be at least every lower bound of
a partial sum of that row: here the lower sum up to index 511 at 256 bits,
read from the terms directly.  A bound or tail that undercuts the truth
fails one of these checks even when a golden file is recorded anew from the
faulty code.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest

from conftest import catalog
from seqchain import families
from seqchain.diagnose import try_in_certificate
from seqchain.errors import SeqchainError
from seqchain.intervals import PowSum
from seqchain.sequences import combine, zero
from seqchain.spaces import C0, CN0, HD, LINF, cap_lp, lp, metric_bound

OVERLAP_SPACES = [lp(1), lp(F(1, 2)), cap_lp(0), C0, HD, CN0]
OVERLAP_SETTINGS = [(16, 16), (64, 32), (4096, 64), (4096, 128)]  # (budget, prec)
IN_SPACES = [lp(F(1, 2)), lp(1), lp(2), cap_lp(0), cap_lp(1), LINF, HD]
REF_PREC = 256


@pytest.mark.parametrize("space", OVERLAP_SPACES, ids=str)
@pytest.mark.parametrize("name", ["nat", "const-one", "prop28"])
def test_metric_enclosures_overlap_across_budgets_and_precisions(name, space):
    seq, origin = catalog()[name], zero()
    bounds, errors = [], set()
    for budget, prec in OVERLAP_SETTINGS:
        try:
            bounds.append(metric_bound(space, seq, origin, budget, prec))
        except SeqchainError as err:
            errors.add(type(err).__name__)
    # a missing tail oracle is missing at every budget and precision
    assert not errors or (not bounds and len(errors) == 1)
    for a, b in combinations(bounds, 2):
        assert a.lower <= b.upper and b.lower <= a.upper, (a, b)


LAST = 511  # every row bound must cover the row's partial sum up to here


def _rows(cert):
    """(row kind, parameter, recorded bound) per row of the certificate."""
    data, _ = cert.fields
    if cert.shape == "lp-tail":
        return [("lp", *data)]
    if cert.shape == "lp-schedule":
        return [("lp", p, tail) for p, tail in data[1]]
    if cert.shape == "disc-schedule":
        return [("disc", r, tail) for r, tail in data]
    assert cert.shape == "sup-bound"
    return [("sup", None, *data)]


def _lower_partial_sum(boxes, kind, param):
    """A lower bound on the row's partial sum (its max, for ``sup``) up to
    index 511 from the terms at 256 bits: each summand's lower bound
    floored onto the 2**-256 grid, so the sum keeps one denominator."""
    if kind == "sup":
        return max((box.abs_bounds(REF_PREC)[0] for _, box in boxes), default=0)
    total = 0
    for n, box in boxes:
        if kind == "lp":
            x = PowSum(param, REF_PREC).extend((box.modulus_bounds()[0],)).value
        else:
            x = box.abs_bounds(REF_PREC)[0] * param ** n
        total += (x.numerator << REF_PREC) // x.denominator
    return F(total, 1 << REF_PREC)


def _in_sequences():
    """The catalog as is, and in a combination with complex coefficients."""
    for name, seq in sorted(catalog().items()):
        yield name, seq
        yield f"combine({name})", combine([(F(1, 2), F(1, 3)), (2, -1)], [seq, families.prop28()])


def test_in_certificate_heads_bound_the_lower_head_sums():
    checked, violations = 0, []
    for name, seq in _in_sequences():
        boxes = [(n, seq.term(n, REF_PREC)) for n in seq.support_hint.elements_upto(LAST)]
        for space in IN_SPACES:
            cert = try_in_certificate(seq, space, 32)
            if cert is not None:
                checked += 1
                violations += [(name, str(space), row) for row in _rows(cert)
                               if row[2] < _lower_partial_sum(boxes, *row[:2])]
    assert checked > 40
    assert violations == []
