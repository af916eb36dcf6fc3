"""Soundness guards that need no golden file.

Two enclosures of one distance, at any budgets and precisions, must
overlap: each holds the true distance.  An in-certificate head must be at
least every lower bound of the head sum it bounds: here the lower sum at
256 bits, read from the terms directly.  A head or tail that undercuts
the truth fails one of these checks even when a golden file is recorded
anew from the faulty code.
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


def _lower_abs(seq, N):
    """(n, lower bound on |a_n|) over the support up to N, at 256 bits."""
    return [(n, seq.term(n, REF_PREC).abs_bounds(REF_PREC)[0]) for n in seq.support_hint.elements_upto(N)]


def _lower_power_sum(seq, p, N):
    total = PowSum(p, REF_PREC)
    for n in seq.support_hint.elements_upto(N):
        total.extend((seq.term(n, REF_PREC).modulus_bounds()[0],))
    return total.value


def _head_violations(seq, cert):
    """The rows of cert whose recorded head falls below the 256-bit lower sum."""
    if cert.shape == "lp-tail":
        rows = [cert.data]
    elif cert.shape in ("lp-schedule", "disc-schedule"):
        rows = list(cert.data)
    else:
        assert cert.shape == "sup-bound"
        N, bound = cert.data
        return [] if bound >= max((a for _, a in _lower_abs(seq, N)), default=0) else [cert.data]
    if cert.shape == "disc-schedule":
        return [(r, N, bound) for r, N, bound in rows
                if bound < sum(a * r ** n for n, a in _lower_abs(seq, N))]
    return [(p, N, head) for p, N, head, _ in rows if head < _lower_power_sum(seq, p, N)]


def _in_sequences():
    """The catalog as is, and in a combination with complex coefficients."""
    for name, seq in sorted(catalog().items()):
        yield name, seq
        yield f"combine({name})", combine([(F(1, 2), F(1, 3)), (2, -1)], [seq, families.prop28()])


def test_in_certificate_heads_bound_the_lower_head_sums():
    checked, violations = 0, []
    for name, seq in _in_sequences():
        for space in IN_SPACES:
            cert = try_in_certificate(seq, space, 64, 32)
            if cert is not None:
                checked += 1
                violations += [(name, str(space), row) for row in _head_violations(seq, cert)]
    assert checked > 40
    assert violations == []
