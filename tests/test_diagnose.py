import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUDGET, PREC, catalog, random_finite
from seqchain.diagnose import (
    Certificate,
    CertifiedIn,
    CertifiedOut,
    ClosedFamily,
    ConsistentUpTo,
    Undecided,
    ViolatedAt,
    _escape_exponent,
    _verify_blocks,
    check_certificate,
    classify,
    closed_family_check,
    decompose_report,
    try_in_certificate,
    try_out_certificate,
    verdict_to_json,
)
from seqchain.errors import UnsupportedSpace
from seqchain.families import const_one, gap_cap_c0, gap_cap_lp, gap_lp_cap, nat, nat_power, prop28
from seqchain.intervals import ComplexInterval, PowSum, pow_bounds, replace, sqrt_bounds
from seqchain.sequences import (
    Combine,
    FiniteRational,
    Restrict,
    Sequence,
    Spread,
    combine,
    restrict,
    spread,
    zero,
)
from seqchain.serialize import canonical_json, sequence_from_spec
from seqchain.spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    _Head,
    cap_lp,
    lp,
    parse_space,
    standard_chain,
)
from seqchain.supports import AllNaturals, Arith, DyadicRow, ExplicitFinite, PowersOfTwo
from seqchain.tags import BlockDivergence, SubseqLowerBound
from test_intervals import _ref_pow_bounds, point_or_wide_boxes, rationals
from test_seqcore import _ref_disc_tail

F = Fraction


# -- classify: catalog behaviour ------------------------------------------------


def test_zero_in_every_space():
    for space in standard_chain():
        assert isinstance(classify(zero(), space, BUDGET, PREC), CertifiedIn)


def test_finite_data_in_every_space():
    a = FiniteRational({0: F(2), 3: (F(1), F(5))})
    for space in standard_chain():
        assert isinstance(classify(a, space, BUDGET, PREC), CertifiedIn)


def test_nat_outside_bounded_inside_disc():
    out = classify(nat(), LINF, BUDGET, PREC)
    assert isinstance(out, CertifiedOut) and out.cert.shape == "unbounded"
    inside = classify(nat(), HD, BUDGET, PREC)
    assert isinstance(inside, CertifiedIn)


def test_nat_power_outside_disc():
    v = classify(nat_power(), HD, BUDGET, PREC)
    assert isinstance(v, CertifiedOut) and v.cert.shape == "root-limsup-exceeds"


def test_prop28_out_certificate_shape():
    v = classify(prop28(), AINF, BUDGET, PREC)
    assert isinstance(v, CertifiedOut)
    assert v.cert.shape == "unbounded-weighted"
    k, tag, _ = v.cert.fields
    assert k == 1
    # the tagged subsequence runs along the powers of two
    assert [tag.s(m) for m in (1, 2, 3)] == [2, 4, 8]


def test_const_one_not_vanishing():
    v = classify(const_one(), C0, BUDGET, PREC)
    assert isinstance(v, CertifiedOut) and v.cert.shape == "not-vanishing"
    assert v.cert.fields[0] == 1


def test_everything_lands_in_cn0():
    for seq in catalog().values():
        assert isinstance(classify(seq, CN0, BUDGET, PREC), CertifiedIn)


def test_verdict_json_shapes():
    assert verdict_to_json(Undecided(7)) == {"verdict": "undecided", "budget": 7}
    v = classify(nat(), LINF, BUDGET, PREC)
    out = verdict_to_json(v)
    assert out["verdict"] == "out" and out["certificate"]["space"] == "linf"


# -- soundness invariants ---------------------------------------------------------


def test_never_both_certificates():
    spaces = standard_chain()
    for name, seq in catalog().items():
        for space in spaces:
            out = try_out_certificate(seq, space, 48)
            if out is not None:
                inc = try_in_certificate(seq, space, 48)
                assert inc is None, (name, str(space))


def test_chain_soundness_in_implies_never_out_above():
    spaces = standard_chain()
    verdicts = {}
    for name, seq in catalog().items():
        verdicts[name] = [classify(seq, space, 512, 48) for space in spaces]
    for name, row in verdicts.items():
        for i, vi in enumerate(row):
            if isinstance(vi, CertifiedIn):
                for vj in row[i + 1 :]:
                    assert not isinstance(vj, CertifiedOut), name


def test_certified_in_closes_upward():
    spaces = standard_chain()
    for name, seq in catalog().items():
        row = [classify(seq, space, 512, 48) for space in spaces]
        first_in = next(
            (i for i, v in enumerate(row) if isinstance(v, CertifiedIn)), None
        )
        if first_in is not None:
            for j in range(first_in, len(row)):
                assert isinstance(row[j], CertifiedIn), (name, str(spaces[j]))


# -- certificate re-verification ---------------------------------------------------


def test_check_certificates_for_catalog():
    cases = [
        (zero(), lp(1)),
        (prop28(), AINF),
        (prop28(), cap_lp(0)),
        (nat(), LINF),
        (nat(), HD),
        (nat_power(), HD),
        (const_one(), C0),
        (const_one(), LINF),
        (gap_cap_c0(F(2)), cap_lp(2)),
        (gap_cap_c0(F(2)), C0),
    ]
    for seq, space in cases:
        v = classify(seq, space, BUDGET, PREC)
        assert not isinstance(v, Undecided), str(space)
        assert check_certificate(seq, v, samples=4, prec=PREC)


_NN_ARITH = {"kind": "family", "name": "nn-on-support",
             "params": {"support": {"kind": "arith", "start": 1, "step": 3}}}


# out-checks read the checked node's own growth tags and blocks, and
# in-checks its tail oracles, which the built node answers from its store
# (Sequence.kept) and a node parsed afresh evaluates again
@pytest.mark.parametrize(
    "spec, space, kind",
    [
        ({"kind": "family", "name": "nat"}, "linf", CertifiedOut),
        ({"kind": "family", "name": "nat"}, "hd", CertifiedIn),
        ({"kind": "spread", "base": _NN_ARITH, "support": {"kind": "powers-of-two"}}, "lp:1",
         CertifiedOut),
        ({"kind": "family", "name": "gap-cap-lp", "params": {"a": "1/2", "b": "3/2"}}, "cap-lp:2",
         CertifiedIn),
        ({"kind": "family", "name": "prop28"}, "c0", CertifiedIn),
        ({"kind": "finite", "entries": [[0, "3/4", "0/1"], [2, "1/2", "-1/3"]]}, "ainf", CertifiedIn),
    ],
    ids=["nat-linf", "nat-hd", "nn-spread-lp-1", "gap-cap-lp-cap-lp-2", "prop28-c0", "finite-ainf"],
)
def test_a_certificate_rechecks_on_a_second_parse_of_its_spec(spec, space, kind):
    built = sequence_from_spec(spec)
    verdict = classify(built, parse_space(space), BUDGET, PREC)
    assert isinstance(verdict, kind)
    assert check_certificate(built, verdict, 3, PREC)
    assert check_certificate(sequence_from_spec(spec), verdict, 3, PREC)


def test_forged_not_vanishing_rejected():
    # claim (n)_n stays away from zero on its zero entries
    tag = SubseqLowerBound(label="forged", s=lambda m: 0, g=lambda m: F(1), g_inf=F(1))
    verdict = CertifiedOut(Certificate(C0, "not-vanishing", (F(1), tag)))
    assert not check_certificate(nat(), verdict, samples=3, prec=PREC)


def test_forged_unbounded_rejected_on_zero_sequence():
    tag = SubseqLowerBound(label="forged", s=lambda m: m, g=lambda m: F(m), g_inf=F(1))
    forged = Certificate(LINF, "unbounded", (tag, ((1, 1, F(1)), (2, 2, F(2)))))
    assert not check_certificate(zero(), CertifiedOut(forged), 3, PREC)


def test_forged_divergence_on_summable_sequence_rejected():
    # claim the square-summable sqrt family has divergent l^1 partial sums
    from seqchain.tags import BlockDivergence

    blocks = BlockDivergence(
        p=F(1),
        block=lambda j: (1 << j, (1 << (j + 1)) - 1),
        comparator="constant",
        c=F(1, 2),
    )
    verdict = CertifiedOut(Certificate(lp(1), "divergent-partial-sums", (F(1), blocks, (1, 2, 3))))
    assert not check_certificate(prop28(), verdict, samples=3, prec=PREC)


def test_forged_root_certificate_with_tame_rho_rejected():
    from seqchain.tags import RootLowerBound

    tag = RootLowerBound(label="f", s=lambda m: m, rho=lambda m: F(1))
    # rho = 1 is not > 1: says nothing about the root test
    tame = Certificate(HD, "root-limsup-exceeds", (F(1), 1, tag))
    assert not check_certificate(nat(), CertifiedOut(tame), 3, PREC)


def test_swapped_space_certificate_rejected():
    v = classify(nat(), LINF, BUDGET, PREC)
    wrong_space = CertifiedOut(replace(v.cert, space=C0))
    assert not check_certificate(nat(), wrong_space, 3, PREC)


# -- closed families ----------------------------------------------------------------


def test_family_ref_grammar_roundtrip():
    # the decompose report keys its rows by these strings
    pinned = {
        ClosedFamily("FMk", (F(3), 2)): "FMk:3/1:2",
        ClosedFamily("psum", (F(1, 2), F(7))): "psum:1/2:7/1",
        ClosedFamily("Fnk", (4, 3)): "Fnk:4:3",
        ClosedFamily("FM", (F(5),)): "FM:5/1",
        ClosedFamily("Fkj", (2, 6)): "Fkj:2:6",
    }
    for ref, text in pinned.items():
        assert str(ref) == text


def test_prop28_violates_first_weighted_family():
    res = closed_family_check(prop28(), ClosedFamily("FMk", (F(1), 1)), BUDGET, PREC)
    assert isinstance(res, ViolatedAt) and res.n == 2
    # weighted value is sqrt(2); the reported interval excludes 1
    assert res.lower > 1
    assert res.lower <= F(1414214, 10**6) <= res.upper * F(1000001, 10**6)


def test_zero_consistent_everywhere():
    for name, params in (("FMk", (F(1), 1)), ("psum", (F(1), F(1))), ("Fnk", (0, 3)), ("FM", (F(1),)),
                         ("Fkj", (1, 1))):
        fam = ClosedFamily(name, params)
        assert closed_family_check(zero(), fam, BUDGET, PREC) == ConsistentUpTo(BUDGET)


def test_nat_root_families_consistent():
    # n**(1/n) <= 2 and even <= 3/2 for every n
    assert isinstance(closed_family_check(nat(), ClosedFamily("Fkj", (1, 1)), 512, PREC), ConsistentUpTo)
    assert isinstance(closed_family_check(nat(), ClosedFamily("Fkj", (1, 2)), 512, PREC), ConsistentUpTo)


def test_nat_violates_bounded_families():
    res = closed_family_check(nat(), ClosedFamily("FM", (F(10),)), BUDGET, PREC)
    assert res == ViolatedAt(11, F(11), F(11))


def test_family_check_budget_monotone():
    # a violation found at a small budget persists verbatim at larger ones
    small = closed_family_check(prop28(), ClosedFamily("FMk", (F(1), 1)), 64, PREC)
    large = closed_family_check(prop28(), ClosedFamily("FMk", (F(1), 1)), BUDGET, PREC)
    assert small == large
    assert closed_family_check(nat(), ClosedFamily("Fkj", (1, 1)), 64, PREC) == ConsistentUpTo(64)
    assert closed_family_check(nat(), ClosedFamily("Fkj", (1, 1)), 512, PREC) == ConsistentUpTo(512)


# -- brute force agreement -----------------------------------------------------------


def _brute_fmk(a, fam):
    assert fam.name == "FMk"
    M, k = fam.params
    hits = [
        n
        for n, (re, im) in sorted(a.entries.items())
        if Fraction(n) ** (2 * k) * (re * re + im * im) > M ** 2
        and not (n == 0 and k > 0)
    ]
    if k == 0:
        hits = [
            n
            for n, (re, im) in sorted(a.entries.items())
            if re * re + im * im > M ** 2
        ]
    return hits[0] if hits else None


def _brute_fm(a, fam):
    assert fam.name == "FM"
    (M,) = fam.params
    hits = [
        n for n, (re, im) in sorted(a.entries.items()) if re * re + im * im > M ** 2
    ]
    return hits[0] if hits else None


def _brute_fnk(a, fam):
    assert fam.name == "Fnk"
    start, k = fam.params
    t = F(1, k)
    hits = [
        n
        for n, (re, im) in sorted(a.entries.items())
        if n >= start and re * re + im * im > t * t
    ]
    return hits[0] if hits else None


def _brute_fkj(a, fam):
    assert fam.name == "Fkj"
    k, j = fam.params
    base = 1 + F(1, j)
    hits = [
        n
        for n, (re, im) in sorted(a.entries.items())
        if n >= max(k, 1) and re * re + im * im > base ** (2 * n)
    ]
    return hits[0] if hits else None


def _brute_psum(a, fam, exact_abs):
    assert fam.name == "psum"
    p, M = fam.params
    total = F(0)
    for n, value in sorted(a.entries.items()):
        total += exact_abs(value) ** p.numerator  # p in {1, 2} here
        if total > M:
            return n
    return None


def _agree(result, expected_n):
    if expected_n is None:
        return isinstance(result, ConsistentUpTo)
    return isinstance(result, ViolatedAt) and result.n == expected_n


@pytest.mark.parametrize("seed", range(5))
def test_bruteforce_agreement_pointwise_families(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        a = random_finite(rng)
        fam1 = ClosedFamily("FMk", (F(rng.randint(1, 6)), rng.randint(0, 3)))
        assert _agree(closed_family_check(a, fam1, 64, PREC), _brute_fmk(a, fam1))
        fam2 = ClosedFamily("FM", (F(rng.randint(1, 4)),))
        assert _agree(closed_family_check(a, fam2, 64, PREC), _brute_fm(a, fam2))
        fam3 = ClosedFamily("Fnk", (rng.randint(0, 6), rng.randint(1, 5)))
        assert _agree(closed_family_check(a, fam3, 64, PREC), _brute_fnk(a, fam3))
        fam4 = ClosedFamily("Fkj", (rng.randint(1, 4), rng.randint(1, 4)))
        assert _agree(closed_family_check(a, fam4, 64, PREC), _brute_fkj(a, fam4))


@pytest.mark.parametrize("seed", range(5))
def test_bruteforce_agreement_partial_sums(seed):
    rng = random.Random(2000 + seed)
    for _ in range(25):
        real = random_finite(rng, real_only=True)
        fam = ClosedFamily("psum", (F(1), F(rng.randint(1, 5))))
        expected = _brute_psum(real, fam, lambda v: abs(v[0]))
        assert _agree(closed_family_check(real, fam, 64, PREC), expected)

        gauss = random_finite(rng)
        fam2 = ClosedFamily("psum", (F(2), F(rng.randint(1, 5))))
        total = F(0)
        expected2 = None
        for n, (re, im) in sorted(gauss.entries.items()):
            total += re * re + im * im
            if total > fam2.params[1]:
                expected2 = n
                break
        assert _agree(closed_family_check(gauss, fam2, 64, PREC), expected2)


# -- decomposition reports --------------------------------------------------------


def test_decompose_prop28_weighted_grid():
    rows = decompose_report(prop28(), AINF, [1], range(1, 11), BUDGET, PREC)
    violations = {fam.params[0]: res.n for fam, res in rows}
    # first power of two whose weighted value exceeds M: 2**k > M**2
    for M in range(1, 11):
        expected = 2 ** next(k for k in range(1, 20) if 2 ** k > M * M)
        assert violations[F(M)] == expected
    assert violations[F(10)] == 128


def test_decompose_zero_linf():
    rows = decompose_report(zero(), LINF, [], [1], BUDGET, PREC)
    assert rows[0][1] == ConsistentUpTo(BUDGET)


def test_decompose_nat_hd_grid():
    rows = decompose_report(nat(), HD, [1, 2], [1], 512, PREC)
    assert all(isinstance(res, ConsistentUpTo) for _, res in rows)


def test_decompose_rejects_cn0():
    with pytest.raises(UnsupportedSpace):
        decompose_report(zero(), CN0, [1], [1], BUDGET, PREC)


def test_decompose_cap_lp_uses_exponent_schedule():
    rows = decompose_report(gap_cap_c0(F(2)), cap_lp(1), [1, 2], [1], 256, PREC)
    fams = [fam for fam, _ in rows]
    assert fams[0].params[0] == F(2) and fams[-1].params[0] == F(3, 2)
    assert all(isinstance(res, ViolatedAt) for _, res in rows)


# -- recorded certificates and tampering -------------------------------------------

# One report per certificate shape, including the block-constant gap-cap-c0
# spread on a dyadic row; the in-certificates were recorded again when they
# came to hold tail bounds alone.  Any change to a tail oracle, a block sum,
# a bound or the row order changes these bytes.
GOLDEN = json.loads((Path(__file__).parent / "diagnose_golden.json").read_text())


@pytest.mark.parametrize(
    "case",
    GOLDEN,
    ids=[
        f"{i}-{c['space']}-{c['result']['certificate']['shape']}"
        for i, c in enumerate(GOLDEN)
    ],
)
def test_certificate_reports_match_recorded_bytes(case):
    seq = sequence_from_spec(case["spec"])
    v = classify(seq, parse_space(case["space"]), BUDGET, PREC)
    assert canonical_json(verdict_to_json(v)) == canonical_json(case["result"])
    assert check_certificate(seq, v, samples=3, prec=PREC)


BUMP = F(1, 2**200)
STEP = F(1, 2 ** (PREC + 1))  # one step of the 2**-(prec+1) grid


def _in_verdict(seq, space, shape):
    """The sequence's in-verdict in the space, of the given shape, checked."""
    v = classify(seq, space, BUDGET, PREC)
    assert isinstance(v, CertifiedIn) and v.cert.shape == shape
    assert check_certificate(seq, v, 3, PREC)
    return v


def _with_data(verdict, data):
    cert = verdict.cert
    return CertifiedIn(Certificate(cert.space, cert.shape, (data, cert.fields[1])))


def _bump_row(verdict, row: int, col: int):
    """The in-certificate with data[row][col] raised by 2**-200."""
    data = list(verdict.cert.fields[0])
    data[row] = tuple(x + BUMP if i == col else x for i, x in enumerate(data[row]))
    return _with_data(verdict, tuple(data))


# An in-certificate is checked by reading each row's oracle again: a bound
# under the oracle's, a parameter other than the schedule's, a dropped row,
# another threshold, or a cutoff or bound of another type is rejected.  A
# bound above the oracle's still bounds its row and is accepted, up to the
# row's target where it has one.


def _replace_row(rows, i, row):
    rows = list(rows)
    rows[i] = row
    return tuple(rows)


def _lp_schedule(mutate_rows):
    return lambda data: (data[0], mutate_rows(data[1]))


def _moved_tail(i):
    """rows, delta -> the rows with the tail of row i moved by delta."""
    return lambda rows, delta: _replace_row(rows, i, (rows[i][0], rows[i][1] + delta))


def _gap():
    """gap-lp-cap(1): in cap-lp:1, at its threshold t = 1."""
    return gap_lp_cap(F(1))


# tail id -> (sequence, space, shape, (data, delta) -> the data with that
# one recorded tail moved by delta)
_TAIL_MOVES = {
    "lp-tail": (prop28, lp(1), "lp-tail", lambda d, x: (d[0], d[1] + x)),
    "lp-schedule-tail": (_gap, cap_lp(1), "lp-schedule", lambda d, x: (d[0], _moved_tail(-1)(d[1], x))),
    "sup-bound": (prop28, LINF, "sup-bound", lambda d, x: (d[0] + x,)),
    "disc-schedule-tail": (nat, HD, "disc-schedule", _moved_tail(0)),
    "disc-schedule-last-tail": (nat, HD, "disc-schedule", _moved_tail(-1)),
}

# mutation id -> (sequence, space, shape, data -> the mutated data)
_IN_MUTATIONS = {
    **{f"{name}-lowered": (make, space, shape, lambda d, move=move: move(d, -STEP))
       for name, (make, space, shape, move) in _TAIL_MOVES.items()},
    "lp-tail-other-exponent": (prop28, lp(1), "lp-tail", lambda d: (d[0] + 1, d[1])),
    "lp-tail-float": (prop28, lp(1), "lp-tail", lambda d: (d[0], float(d[1]))),
    "lp-schedule-next-exponent": (
        _gap, cap_lp(1), "lp-schedule",
        _lp_schedule(lambda rows: _replace_row(rows, 0, (rows[1][0], rows[0][1]))),
    ),
    "lp-schedule-row-dropped": (_gap, cap_lp(1), "lp-schedule", _lp_schedule(lambda rows: rows[:-1])),
    "lp-schedule-t-above-a": (_gap, cap_lp(1), "lp-schedule", lambda d: (d[0] + STEP, d[1])),
    "lp-schedule-t-below-threshold": (_gap, cap_lp(1), "lp-schedule", lambda d: (d[0] - STEP, d[1])),
    "lp-schedule-float-tail": (
        _gap, cap_lp(1), "lp-schedule",
        _lp_schedule(lambda rows: _replace_row(rows, 0, (rows[0][0], float(rows[0][1])))),
    ),
    "sup-bound-float": (prop28, LINF, "sup-bound", lambda d: (float(d[0]),)),
    "disc-schedule-next-radius": (
        nat, HD, "disc-schedule", lambda d: _replace_row(d, 0, (d[1][0], d[0][1])),
    ),
    "disc-schedule-row-dropped": (nat, HD, "disc-schedule", lambda d: d[1:]),
}


@pytest.mark.parametrize("mutation", list(_IN_MUTATIONS))
def test_single_field_in_certificate_mutations_rejected(mutation):
    make, space, shape, mutate = _IN_MUTATIONS[mutation]
    seq = make()
    v = _in_verdict(seq, space, shape)
    forged = _with_data(v, mutate(v.cert.fields[0]))
    assert not check_certificate(seq, forged, 3, PREC)
    # the build's node answers from its oracle memo; one parsed afresh evaluates anew
    assert not check_certificate(sequence_from_spec(seq.spec()), forged, 3, PREC)


@pytest.mark.parametrize("name", list(_TAIL_MOVES))
def test_raised_in_certificate_tails_still_check(name):
    # a tail raised instead of lowered still bounds its row
    make, space, shape, move = _TAIL_MOVES[name]
    seq = make()
    v = _in_verdict(seq, space, shape)
    for delta in (BUMP, STEP, F(1)):
        assert check_certificate(seq, _with_data(v, move(v.cert.fields[0], delta)), 3, PREC)


def test_an_lp_schedule_reads_no_term(monkeypatch):
    # each row is the closed-form tail past N = -1 of the family, of a
    # multiple of it or of its spread: building and checking the schedule
    # evaluate no term
    reads = []
    real = Sequence.term
    monkeypatch.setattr(Sequence, "term", lambda self, n, prec: reads.append(n) or real(self, n, prec))
    g = gap_cap_lp(F(0), F(1))
    for seq in (g, combine([(F(1, 2), F(1, 3))], [g]), spread(g, Arith(1, 3))):
        v = _in_verdict(seq, cap_lp(1), "lp-schedule")
        assert len(v.cert.fields[0][1]) == 8 and v.cert.fields[0][0] == seq.threshold
    assert reads == []


def test_larger_vanishing_schedule_epsilon_rejected():
    seq = prop28()
    v = _in_verdict(seq, C0, "vanishing-schedule")
    for row in (0, len(v.cert.fields[0]) - 1):
        assert not check_certificate(seq, _bump_row(v, row, 0), 3, PREC)


def test_shortened_vanishing_schedule_rejected():
    seq = prop28()
    v = classify(seq, C0, BUDGET, PREC)
    assert not check_certificate(seq, _with_data(v, v.cert.fields[0][:3]), 3, PREC)


def test_raised_poly_schedule_bound_rejected():
    # |a_20| = 1/128 is under eps = 1/64 at k = 0, so row 0 records a
    # nonzero bound at the first cutoff; later rows search past index 20
    seq = FiniteRational({20: F(1, 128)})
    v = _in_verdict(seq, AINF, "poly-schedule")
    assert v.cert.fields[0][0][2:] == (16, F(1, 128)) and v.cert.fields[0][1][2] == 32
    for row in (0, 1):
        k, eps, N, bound = v.cert.fields[0][row]
        # raised up to the target eps, a bound still holds; past it, or
        # under the oracle's, not
        for forged, holds in ((eps, True), (eps + BUMP, False), (bound - STEP, False)):
            data = _replace_row(v.cert.fields[0], row, (k, eps, N, forged))
            assert check_certificate(seq, _with_data(v, data), 3, PREC) == holds, (row, forged)


def test_lp_tail_at_another_cutoff_rejected():
    # the recorded tail is the oracle's past N = -1, a bound on the whole
    # row; the tail past a later cutoff leaves the head out and is rejected
    seq = prop28()
    v = _in_verdict(seq, lp(1), "lp-tail")
    p, tail = v.cert.fields[0]
    for N in (2, 16):
        later = seq.tail_majorant(N, p, PREC)
        assert later < tail
        assert not check_certificate(seq, _with_data(v, (p, later)), 3, PREC)


def test_lp_schedule_rows_on_different_cutoffs_rejected():
    seq = gap_lp_cap(F(1))
    v = _in_verdict(seq, cap_lp(1), "lp-schedule")
    t, rows = v.cert.fields[0]
    p_n, tail = rows[-1]
    later = seq.tail_majorant(0, p_n, PREC)
    assert later < tail
    forged = (t, _replace_row(rows, -1, (p_n, later)))
    assert not check_certificate(seq, _with_data(v, forged), 3, PREC)


def test_shape_of_another_space_rejected():
    seq = zero()
    assert not check_certificate(seq, CertifiedIn(Certificate(lp(1), "total", ((), PREC))), 3, PREC)
    cn0_cert = classify(seq, CN0, BUDGET, PREC).cert
    lp_cert = classify(seq, lp(1), BUDGET, PREC).cert
    forged = Certificate(lp(1), cn0_cert.shape, lp_cert.fields)
    assert not check_certificate(seq, CertifiedIn(forged), 3, PREC)


@pytest.mark.parametrize("space", [lp(1), cap_lp(1), C0, LINF, HD, AINF], ids=str)
def test_empty_in_certificate_data_rejected(space):
    seq = FiniteRational({0: F(3, 4)})
    v = classify(seq, space, BUDGET, PREC)
    assert isinstance(v, CertifiedIn) and check_certificate(seq, v, 3, PREC)
    assert not check_certificate(seq, _with_data(v, ()), 3, PREC)


@pytest.mark.parametrize("cutoff", [F(16), 16.0], ids=["fraction", "float"])
def test_non_integer_recorded_cutoff_rejected(cutoff):
    # only the searched c0 and ainf rows record a cutoff
    seq = prop28()
    v = _in_verdict(seq, C0, "vanishing-schedule")
    eps, K, bound = v.cert.fields[0][0]
    assert K == cutoff
    data = _replace_row(v.cert.fields[0], 0, (eps, cutoff, bound))
    assert not check_certificate(seq, _with_data(v, data), 3, PREC)


def _block_mass_lower(seq, bd, j, prec):
    """Reference loop: the certified lower mass of block j, term by term."""
    k_lo, k_hi = bd.block(j)
    return sum(
        pow_bounds(seq.term(seq.support_hint.nth(k), prec).abs_sq_bounds()[0], bd.p / 2, prec)[0]
        for k in range(k_lo, k_hi + 1)
    )


@pytest.mark.parametrize("space", [lp(1), cap_lp(1)], ids=str)
def test_block_constant_divergence_is_tight(space):
    # gap-cap-c0 is constant on each block, so the check powers each block
    # value once; a comparator constant just above the real mass must fail
    seq = spread(gap_cap_c0(F(2)), DyadicRow(3))
    v = classify(seq, space, BUDGET, PREC)
    q, blocks, js = v.cert.fields
    assert v.cert.shape == "divergent-partial-sums" and blocks.comparator == "constant"
    mass = min(_block_mass_lower(seq, blocks, j, PREC) for j in js)
    assert _verify_blocks(seq, replace(blocks, c=mass), js, PREC)
    assert not _verify_blocks(seq, replace(blocks, c=mass + BUMP), js, PREC)
    # the check also ties the blocks to the sequence's own: any other
    # constant is rejected before a block is summed
    forged = replace(v.cert, fields=(q, replace(blocks, c=mass + BUMP), js))
    assert check_certificate(seq, v, 3, PREC)
    assert not check_certificate(seq, CertifiedOut(forged), 3, PREC)


def test_gap_cap_c0_past_block_search_cap_is_undecided():
    # p = 10**6 starts the search at j = 2 * 10**6, where j**p has ~21 Mbit
    seq = gap_cap_c0(F(1000))
    start = time.perf_counter()
    assert seq.lp_divergence(F(10 ** 6)) is None
    assert isinstance(classify(seq, lp(10 ** 6), BUDGET, PREC), Undecided)
    assert time.perf_counter() - start < 1


# j_start of gap-cap-c0's blocks at p = 1 .. 56, and at rationals, as the
# linear scan from ceil(2p) found them
_GAP_C0_J_STARTS = [2, 4, 10, 16, 23, 30, 37, 44, 52, 59, 67, 75, 83, 92, 100, 109, 117, 126, 135, 144,
                    153, 162, 171, 180, 190, 199, 208, 218, 227, 237, 247, 256, 266, 276, 286, 296, 306,
                    316, 326, 336, 346, 356, 367, 377, 387, 398, 408, 418, 429, 439, 450, 460, 471, 482,
                    492, 503]
_GAP_C0_RATIONAL_J_STARTS = {F(1, 100): 1, F(1, 3): 1, F(1, 2): 1, F(7, 5): 3, F(3, 2): 3, F(5, 2): 8,
                             F(33, 2): 113, F(101, 2): 445, F(111, 2): 498, F(113, 2): 508}


def test_gap_cap_c0_block_starts_are_pinned():
    seq = gap_cap_c0(F(1))
    assert [seq.lp_divergence(F(p)).j_start for p in range(1, 57)] == _GAP_C0_J_STARTS
    assert {p: seq.lp_divergence(p).j_start for p in _GAP_C0_RATIONAL_J_STARTS} == _GAP_C0_RATIONAL_J_STARTS


def test_gap_cap_c0_high_exponent_blocks_start_at_the_least_j_and_recheck():
    # the search doubles and bisects from j = 2p: its start is the least such
    # j with 2**j >= j**p, and the certificate re-checks on a fresh parse
    seq = gap_cap_c0(F(1))
    for p in range(57, 201):
        j = 2 * p
        while 2 ** j < j ** p:
            j += 1
        v = classify(seq, lp(p), BUDGET, PREC)
        assert isinstance(v, CertifiedOut) and v.cert.fields[1].j_start == j, p
        assert check_certificate(sequence_from_spec(seq.spec()), v, 3, PREC), p


@pytest.mark.parametrize("space", ["lp:57", "lp:64", "lp:100", "lp:1000", "cap-lp:100"])
def test_gap_cap_c0_is_out_of_every_high_lp_fast(space):
    seq, y = gap_cap_c0(F(1)), parse_space(space)
    start = time.perf_counter()
    v = classify(seq, y, BUDGET, PREC)
    assert isinstance(v, CertifiedOut) and v.cert.shape == "divergent-partial-sums"
    assert check_certificate(sequence_from_spec(seq.spec()), v, 3, PREC)
    assert time.perf_counter() - start < 0.1


_POW2 = {"kind": "powers-of-two"}
_SPARSE_SPREADS = [
    {"kind": "spread", "base": {"kind": "family", "name": name, "params": params}, "support": _POW2}
    for name, params in (("prop28", {}), ("gap-lp-cap", {"a": "1/2"}), ("rem29", {"support": _POW2}))
]

# Classifies each spec in the space argv[2] under a 512 MiB address-space
# limit, re-checks a certified verdict, and prints one JSON line
# [verdict, shape, rechecked] per spec (rechecked is false when undecided).
_CLASSIFY_UNDER_LIMIT = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from seqchain import diagnose, serialize, spaces
space = spaces.parse_space(sys.argv[2])
for text in json.loads(sys.argv[1]):
    seq = serialize.sequence_from_spec(text)
    v = diagnose.classify(seq, space, 4096, 64)
    report = diagnose.verdict_to_json(v)
    shape = report.get("certificate", {}).get("shape")
    checked = report["verdict"] != "undecided" and diagnose.check_certificate(seq, v, 3, 64)
    print(json.dumps([report["verdict"], shape, checked]))
"""


def _classify_under_limit(specs, space, timeout=300):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _CLASSIFY_UNDER_LIMIT,
         json.dumps([json.dumps(spec) for spec in specs]), space],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_sparse_spreads_classify_in_linf_within_bounded_memory():
    # the linf threshold table weighs g(m) by s(m)**0; it must not build
    # s(m) = 2**2**m for spreads onto powers of two
    lines = _classify_under_limit(_SPARSE_SPREADS, "linf")
    assert lines == [["in", "sup-bound", True]] * len(_SPARSE_SPREADS)


def test_finite_entries_far_out_classify_in_hd_within_bounded_memory():
    # base index 40 spread onto powers of two lands at 2**40: the disc tail
    # must bound r**n there instead of computing it
    far = {"kind": "spread", "base": {"kind": "finite", "entries": [[40, "3", "0"]]},
           "support": _POW2}
    lines = _classify_under_limit([far], "hd")
    assert lines == [["in", "disc-schedule", True]]


def _nested_spread(base):
    inner = {"kind": "spread", "base": base, "support": _POW2}
    return {"kind": "spread", "base": inner, "support": {"kind": "all"}}


_NESTED_SPREADS = [
    _nested_spread({"kind": "family", "name": "gap-cap-c0", "params": {"b": "0"}}),
    _nested_spread({"kind": "family", "name": "nn-on-support",
                    "params": {"support": {"kind": "arith", "start": 0, "step": 2}}}),
]


@pytest.mark.parametrize("space", ["lp:1", "lp:2", "cap-lp:1"])
def test_nested_spreads_classify_within_a_time_limit(space):
    # the inner spread's hint is powers of two: a dyadic block of gap-cap-c0
    # moved through it would span ~2**29 positions (lp:1), which every block
    # check reads; single positions (nn-on-support) still move and certify
    gap, nn = _classify_under_limit(_NESTED_SPREADS, space, timeout=60)
    assert gap[0] in ("out", "undecided") and gap[2] == (gap[0] == "out")
    assert nn == ["out", "divergent-partial-sums", True]


# -- block masses summed by runs of equal terms -----------------------------------


def _reference_block_mass(seq, bd, j, prec):
    """The per-term loop that the run-based check replaced: one power per
    sampled term, no runs and no memo, in Fraction arithmetic through the
    reference kernel."""
    hint = seq.support_hint
    k_lo, k_hi = bd.block(j)
    total = F(0)
    for k in range(k_lo, k_hi + 1):
        sq_lo = seq.term(hint.nth(k), prec).abs_sq_bounds()[0]
        total += _ref_pow_bounds(sq_lo, bd.p / 2, prec)[0]
    return total


def _assert_mass_is_tight(seq, bd, j, prec=PREC):
    """beta(j) equal to the reference mass passes, and 2**-200 more fails."""
    mass = _reference_block_mass(seq, bd, j, prec)
    exact = replace(bd, comparator="constant", c=mass, j_start=j)
    above = replace(exact, c=mass + F(1, 1 << 200))
    assert _verify_blocks(seq, exact, (j,), prec)
    assert not _verify_blocks(seq, above, (j,), prec)


class _Listed(Sequence):
    """a_n = values[n] (an interval box) inside the list, zero past it;
    no support hint, so block position k is index k - 1."""

    kind = "listed"

    def __init__(self, values):
        super().__init__()
        self.values = list(values)

    def _term(self, n, prec):
        return self.values[n] if n < len(self.values) else ComplexInterval.zero()


def _box(re_lo, re_hi, im_lo=0, im_hi=0):
    return ComplexInterval(F(re_lo), F(re_hi), F(im_lo), F(im_hi))


_A = _box(F(1, 3), F(1, 3))
_B = _box(F(3, 4), F(3, 4))
_C = _box(F(1, 5), F(2, 5), F(-1, 7), F(1, 9))  # complex, not exact
_D = _box(F(-2, 3), F(-2, 3), F(5, 11), F(5, 11))  # complex, exact

# block j covers positions [1, 8], indices 0..7
_RUN_PATTERNS = {
    "one-run": [_A] * 8,
    # equal values in distinct objects: runs are found by ==, not identity
    "equal-copies": [_box(F(1, 5), F(2, 5), F(-1, 7), F(1, 9)) for _ in range(8)],
    "breaks-at-first": [_B] + [_A] * 7,
    "breaks-at-last": [_A] * 7 + [_B],
    "alternating": [_A, _B] * 4,
    "complex-runs": [_C, _C, _D, _D, _D, _C, _A, _A],
    "complex-alternating": [_C, _D] * 4,
    "single-distinct": [_A, _B, _C, _D, _box(2, 3), _box(0, 0), _box(-1, 1), _B],
}


@pytest.mark.parametrize("p", [F(1), F(2), F(1, 2), F(3, 2)], ids=str)
@pytest.mark.parametrize("pattern", sorted(_RUN_PATTERNS))
def test_run_sums_equal_the_per_term_sum(pattern, p):
    seq = _Listed(_RUN_PATTERNS[pattern])
    whole = BlockDivergence(p=p, block=lambda j: (1, 8))
    _assert_mass_is_tight(seq, whole, 1)
    # one-position blocks at either end of the list
    _assert_mass_is_tight(seq, BlockDivergence(p=p, block=lambda j: (1, 1)), 1)
    _assert_mass_is_tight(seq, BlockDivergence(p=p, block=lambda j: (8, 8)), 1)


def _catalog_divergences():
    for _, seq in sorted(catalog().items()):
        escapes = [_escape_exponent(seq.threshold, a) for a in (F(0), F(1))]
        for q in [F(1), F(2), *escapes]:
            bd = None if q is None else seq.lp_divergence(q)
            if bd is not None:
                yield seq, bd


_SPREAD_SUPPORTS = {
    "all": AllNaturals(),
    "arith": Arith(1, 3),
    "powers-of-two": PowersOfTwo(),
    "dyadic-row": DyadicRow(3),
}


@pytest.mark.parametrize("support", sorted(_SPREAD_SUPPORTS))
def test_run_sums_on_catalog_divergences_spread_onto_each_support(support):
    cases = list(_catalog_divergences())
    assert len(cases) >= 20
    for base, bd in cases:
        seq = spread(base, _SPREAD_SUPPORTS[support])
        for j in range(bd.j_start, bd.j_start + 4):
            _assert_mass_is_tight(seq, bd, j)


def test_sparse_hint_divergences_certify_on_spreads():
    """Spread position i+1 carries base index i, so a base block of support
    positions moves through the base's hint onto the spread's positions;
    every divergence certified on a sparse-hint base certifies on its
    spread onto each support and re-checks."""
    cases = 0
    for name, base in sorted(catalog().items()):
        if isinstance(base.support_hint, AllNaturals):
            continue
        for space in (lp(1), cap_lp(1)):
            if not isinstance(classify(base, space, BUDGET, PREC), CertifiedOut):
                continue
            for support in sorted(_SPREAD_SUPPORTS):
                seq = spread(base, _SPREAD_SUPPORTS[support])
                v = classify(seq, space, BUDGET, PREC)
                assert isinstance(v, CertifiedOut), (name, str(space), support)
                assert v.cert.shape == "divergent-partial-sums"
                assert all(check_certificate(seq, v, k, PREC) for k in range(1, 9))
                cases += 1
    assert cases >= 8


# -- position runs: a node's structure read instead of its terms -------------------


def _run_nodes():
    """The catalog as is, spread onto each support, restricted and combined."""
    for name, seq in sorted(catalog().items()):
        yield name, seq
        for support in sorted(_SPREAD_SUPPORTS):
            yield f"spread({name}, {support})", spread(seq, _SPREAD_SUPPORTS[support])
        yield f"restrict({name})", restrict(seq, Arith(0, 2))
        yield f"combine({name})", combine([F(1, 2), (F(-2, 3), F(1, 5))], [seq, const_one()])


_RUN_NODES = dict(_run_nodes())


def _position_ranges(rng, size):
    """One position, ranges from k_lo = 1, and ranges across several dyadic
    levels, all within the first ``size`` positions."""
    k = rng.randint(1, size)
    yield k, k
    yield 1, 1
    yield 1, rng.randint(1, size)
    for _ in range(3):
        k_lo = rng.randint(1, max(1, size // 4))
        yield k_lo, rng.randint(k_lo, size)


@pytest.mark.parametrize("name", list(_RUN_NODES))
def test_position_runs_expand_to_the_terms(name):
    seq = _RUN_NODES[name]
    hint = seq.support_hint
    # 60 positions span five dyadic levels, and stay below 2**64 on the
    # sparsest hints (powers of two and selections from them)
    size = hint.rank_upto(1 << 64) if hint.finite_flag else 60
    if size == 0:
        return
    rng = random.Random(sum(map(ord, name)))
    for k_lo, k_hi in _position_ranges(rng, size):
        runs = list(seq.position_runs(k_lo, k_hi, PREC))
        assert all(count >= 1 for _, count in runs)
        assert sum(count for _, count in runs) == k_hi - k_lo + 1
        expanded = [box for box, count in runs for _ in range(count)]
        assert expanded == [seq.term(hint.nth(k), PREC) for k in range(k_lo, k_hi + 1)], (k_lo, k_hi)


@pytest.mark.parametrize("support", ["all", "arith", "dyadic-row"])
def test_level_runs_of_gap_cap_c0_span_far_ranges(support):
    # one run per dyadic level, equal to the terms at both of its ends, on
    # ranges of up to 2**42 positions that no term loop could read
    seq = spread(gap_cap_c0(F(2)), _SPREAD_SUPPORTS[support])
    rng = random.Random(5)
    for _ in range(20):
        k_lo = rng.randint(1, 1 << 40)
        k_hi = k_lo + rng.randint(0, 1 << 42)
        runs, k = list(seq.position_runs(k_lo, k_hi, PREC)), k_lo
        for box, count in runs:
            assert count >= 1
            assert box == seq.term(seq.support_hint.nth(k), PREC)
            assert box == seq.term(seq.support_hint.nth(k + count - 1), PREC)
            k += count
        assert k == k_hi + 1
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


def _parent_block_mass(seq, bd, j, prec):
    """Reference copy of the block loop that position runs replaced: every
    position read, runs of equal terms grouped, each run's least |a|**2
    powered at p/2.  None for a block the check turns away."""
    hint = seq.support_hint
    k_lo, k_hi = bd.block(j)
    if k_lo < 1 or k_hi < k_lo:
        return None
    terms = (seq.term(hint.nth(k), prec) for k in range(k_lo, k_hi + 1))
    total = PowSum(bd.p / 2, prec)
    for iv, run in groupby(terms):
        total.extend(((iv.abs_sq_bounds()[0], False),), sum(1 for _ in run))
    return total.value


def _every_catalog_divergence():
    """Each catalog divergence on its own node and on every spread of it,
    moved through the base's hint where that hint is sparse."""
    for _, base in sorted(catalog().items()):
        nodes = [base] + [spread(base, s) for _, s in sorted(_SPREAD_SUPPORTS.items())]
        escapes = {_escape_exponent(base.threshold, a) for a in (F(0), F(1))}
        for q in sorted({F(1), F(2), F(3)} | escapes - {None}):
            for seq in nodes:
                bd = seq.lp_divergence(q)
                if bd is not None:
                    yield seq, bd


def test_block_checks_equal_the_parent_loop_on_every_catalog_divergence():
    cases = list(_every_catalog_divergence())
    assert len(cases) >= 100
    bases = [seq.base for seq, _ in cases if isinstance(seq, Spread)]
    assert any(not isinstance(b.support_hint, AllNaturals) for b in bases)
    for seq, bd in cases:
        for j in range(bd.j_start, bd.j_start + 3):
            mass = _parent_block_mass(seq, bd, j, PREC)
            expected = mass is not None and mass >= bd.beta(j)
            assert _verify_blocks(seq, bd, (j,), PREC) == expected, (seq.spec(), bd.p, j)
            if mass is not None:
                exact = replace(bd, comparator="constant", c=mass, j_start=j)
                assert _verify_blocks(seq, exact, (j,), PREC)
                assert not _verify_blocks(seq, replace(exact, c=mass + BUMP), (j,), PREC)


@pytest.mark.parametrize("b", [F(1), F(2)], ids=str)
def test_gap_cap_c0_leaves_every_lp_fast_without_reading_a_term(b):
    # j_start grows with p (16 at p = 4, 109 at p = 16) and block j holds
    # 2**j positions; each block is one level run, so certifying and
    # re-checking take well under a millisecond here, and no term is read
    cases = [(gap_cap_c0(b), p) for p in range(4, 17)]
    cases.append((spread(gap_cap_c0(b), DyadicRow(3)), 6))
    for seq, p in cases:
        start = time.perf_counter()
        v = classify(seq, lp(p), BUDGET, PREC)
        assert isinstance(v, CertifiedOut) and check_certificate(seq, v, 3, PREC)
        assert time.perf_counter() - start < 0.1, (p, seq.spec())
        assert not seq._term_cache and not getattr(seq, "base", seq)._term_cache


# -- metric heads: grid sums against Fraction sums ---------------------------------

# The metrics read the two-end sums of one ``spaces._Head``; these check its
# power sums, its |a_n| bounds and its greatest |a_n| against the Fraction
# sums and roots they replaced.


def _ref_lp_head(moduli, p, prec):
    """The head sum as it was added in Fraction arithmetic, one lower and
    one upper endpoint per term, from the squared moduli."""
    lo = hi = F(0)
    for _, (sq_lo, sq_hi) in moduli:
        lo += _ref_pow_bounds(sq_lo, p / 2, prec)[0]
        hi += _ref_pow_bounds(sq_hi, p / 2, prec)[1]
    return lo, hi


def _squared_moduli(seq, N, prec):
    """The head as it was: (n, bounds on |a_n|**2) straight from the boxes."""
    return [(n, seq.term(n, prec).abs_sq_bounds()) for n in seq.support_hint.elements_upto(N)]


# lp exponents (p = 2 and p = 4 make every summand exact) and cap-lp rows a + 1/n
_HEAD_EXPONENTS = [F(1, 2), F(1), F(3, 2), F(2), F(4)] + [
    a + F(1, n) for a in (F(0), F(1), F(2)) for n in (1, 2, 3, 8)
]


@pytest.mark.parametrize("name", sorted(catalog()))
def test_lp_head_uppers_equal_fraction_sums(name):
    seq = catalog()[name]
    # n**n (nat-power, nn-evens) makes the reference's q**a slow past N = 40
    for N in (-1, 0, 9, 40) if name in ("nat-power", "nn-evens") else (-1, 0, 9, 64, 300):
        head = _Head(seq, PREC)
        squared = _squared_moduli(seq, N, PREC)
        for p in _HEAD_EXPONENTS:
            assert head.power_sum(p, N) == _ref_lp_head(squared, p, PREC), (N, p)


@pytest.mark.parametrize("prec", [16, 64])
def test_lp_head_uppers_of_finite_rationals_equal_fraction_sums(prec):
    # rational entries: many summands are exact, the rest land on the grid
    rng = random.Random(7)
    for _ in range(40):
        seq = random_finite(rng, max_index=30)
        head = _Head(seq, prec)
        squared = _squared_moduli(seq, 30, prec)
        for p in _HEAD_EXPONENTS:
            assert head.power_sum(p, 30) == _ref_lp_head(squared, p, prec)


def _ref_partial_sum_check(seq, fam, budget, prec):
    """The psum scan as it was: cumulative Fraction sums of both endpoints."""
    p, M = fam.params
    hp = prec + 32
    cum_lo = cum_hi = F(0)
    for n in sorted(seq.support_hint.elements_upto(budget)):
        sq_lo, sq_hi = seq.term(n, hp).abs_sq_bounds()
        cum_lo += _ref_pow_bounds(sq_lo, p / 2, hp)[0]
        cum_hi += _ref_pow_bounds(sq_hi, p / 2, hp)[1]
        if cum_lo > M:
            return ViolatedAt(n, cum_lo, cum_hi)
    return ConsistentUpTo(budget)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_partial_sum_scans_equal_fraction_sums(name):
    seq = catalog()[name]
    for p in (F(1, 2), F(1), F(3, 2), F(2), F(4, 3)):
        for M in (F(1, 3), F(2), F(9)):
            fam = ClosedFamily("psum", (p, M))
            assert closed_family_check(seq, fam, 200, PREC) == _ref_partial_sum_check(seq, fam, 200, PREC)


def test_lp_head_uppers_with_runs_of_equal_moduli_equal_term_by_term_sums():
    # runs of equal moduli, exact and on the grid, zeros among them: of real
    # boxes of either sign or across 0, and of complex ones
    rng = random.Random(11)
    values = [F(0), F(1), F(1, 4), F(2), F(1, 3), F(5, 7), F(9, 4)]
    boxes = [ComplexInterval.exact(v) for v in values] + [
        ComplexInterval.exact(-F(9, 4)),
        ComplexInterval.from_real_bounds(F(-1, 3), F(1, 2)),
        ComplexInterval.exact(F(3, 4), F(-1, 3)),
        _box(F(1, 5), F(2, 5), F(-1, 7), F(1, 9)),
    ]
    for _ in range(60):
        listed, squared, n = [], [], 0
        for _ in range(rng.randint(0, 8)):
            box = rng.choice(boxes)
            for _ in range(rng.randint(1, 6)):
                listed.append(box)
                squared.append((n, box.abs_sq_bounds()))
                n += 1
        for prec in (16, PREC):
            head = _Head(_Listed(listed), prec)
            for p in _HEAD_EXPONENTS:
                assert head.power_sum(p, n - 1) == _ref_lp_head(squared, p, prec)


# -- disc-schedule rows: the disc tails past N = -1 -----------------------------------


def _disc_nodes():
    """Every catalog member as is, spread, restricted and combined, plus a
    combination whose head moduli are all exact zeros."""
    for name, seq in sorted(catalog().items()):
        yield name, seq
        yield f"spread({name})", spread(seq, Arith(1, 3))
        yield f"restrict({name})", restrict(seq, Arith(0, 2))
        yield f"combine({name})", combine([F(1, 2), (F(-2, 3), F(1, 5))], [seq, const_one()])
    yield "nat-nat", combine([1, -1], [nat(), nat()])


_DISC_NODES = dict(_disc_nodes())


@pytest.mark.parametrize("name", list(_DISC_NODES))
def test_disc_schedule_rows_equal_fraction_sums(name):
    # row k is (r_k, the disc tail past N = -1), the tail oracle's bound on
    # the whole disc sum, as the Fraction formula of the tails gives it
    seq = _DISC_NODES[name]
    ref = [(F(k, k + 1), _ref_disc_tail(seq, -1, F(k, k + 1), PREC)) for k in range(1, 9)]
    cert = try_in_certificate(seq, HD, PREC)
    if cert is None:
        assert ref[0][1] is None, name
        return
    assert cert.fields == (tuple(ref), PREC), name


def test_disc_schedule_rows_are_built_for_most_nodes():
    built = [name for name, seq in _DISC_NODES.items() if try_in_certificate(seq, HD, PREC)]
    assert len(built) == 49 and "nat-nat" in built


@pytest.mark.parametrize("prec", [16, PREC])
def test_root_head_moduli_equal_roots_of_squared_moduli(prec):
    # the sup and disc metric heads: real, complex and exact-zero terms, the
    # catalog and its spread, restricted and combined nodes
    rng = random.Random(13)
    mixed = FiniteRational({0: (F(-3, 4), 0), 2: (0, F(1, 2)), 5: (F(1, 3), F(1, 4)), 9: (F(7), F(-2, 5))})
    seqs = [random_finite(rng, real_only=i % 2 == 0, max_index=30) for i in range(40)]
    seqs += [mixed, combine([1, -1], [mixed, mixed]), *_DISC_NODES.values()]
    for seq in seqs:
        for N in (-1, 0, 9, 64):
            ref = []
            for n in seq.support_hint.elements_upto(N):
                sq_lo, sq_hi = seq.term(n, prec).abs_sq_bounds()
                # the head keeps nonzero terms only: a zero adds to no sum
                if not seq.term(n, prec).is_exact_zero:
                    ref.append((n, (sqrt_bounds(sq_lo, prec)[0], sqrt_bounds(sq_hi, prec)[1])))
            assert _Head(seq, prec).nonzero(-1, N, True) == ref, (seq.spec(), N)


_positive = st.fractions(min_value=F(1, 50), max_value=20, max_denominator=50)


@settings(max_examples=200)
@given(
    st.one_of(
        point_or_wide_boxes(),
        st.builds(ComplexInterval.exact, rationals),
        st.builds(lambda a, b: ComplexInterval.from_real_bounds(-a, b), _positive, _positive),
        st.builds(lambda a, b: ComplexInterval.from_real_bounds(min(a, b), max(a, b)), rationals, rationals),
    ),
    st.sampled_from([4, 16, PREC, 200]),
)
def test_root_head_modulus_is_the_upper_abs_bound(box, prec):
    # points, wide real boxes, boxes straddling 0 and complex boxes: a real
    # box's modulus is its greatest |re| with no root, a complex box's the
    # upper root of its greatest |z|**2; the lower end is the least |z|
    assert _Head(_Listed([box]), prec).max_abs(0) == box.abs_bounds(prec)


# -- cap-lp in-certificates rest on the threshold ------------------------------


_NEAR_GAP = gap_cap_lp(F(1), F(21, 20))  # threshold 41/40: in l^q only for q > 41/40


def _near_gap_inputs():
    g = _NEAR_GAP
    return {
        "2g": combine([2], [g]),
        "restrict-evens": restrict(g, Arith(0, 2)),
        "g+spread": combine([1, 1], [g, spread(g, Arith(1, 2))]),
    }


@pytest.mark.parametrize("name", sorted(_near_gap_inputs()))
def test_a_threshold_just_above_a_is_not_certified_into_cap_lp(name):
    # the exponent schedule a + 1/n, n <= 8, only reaches l^(9/8); the
    # threshold 41/40 > 1 keeps these non-members out of cap-lp:1
    seq = _near_gap_inputs()[name]
    assert seq.threshold == F(41, 40)
    assert not isinstance(classify(seq, cap_lp(1), 64, PREC), CertifiedIn)
    assert try_in_certificate(seq, cap_lp(1), PREC) is None


def test_a_schedule_built_past_the_threshold_fails_its_check():
    assert try_in_certificate(_NEAR_GAP, cap_lp(1), PREC) is None
    # the same rows, built from a copy that claims threshold 1
    posing = gap_cap_lp(F(1), F(21, 20))
    posing.threshold = F(1)
    forged = try_in_certificate(posing, cap_lp(1), PREC)
    assert forged is not None and forged.shape == "lp-schedule"
    assert check_certificate(posing, CertifiedIn(forged), 8, PREC)
    assert not check_certificate(_NEAR_GAP, CertifiedIn(forged), 8, PREC)


def _consistency_inputs():
    seqs = catalog()
    for k in (2, 8, 9, 64):
        seqs[f"gap-cap-lp-1-1+1/{k}"] = gap_cap_lp(F(1), 1 + F(1, k))
    for name, s in sorted(seqs.items()):
        yield name, s
        yield f"2*{name}", combine([2], [s])
        yield f"i*{name}", combine([(0, 1)], [s])
        yield f"spread({name})", spread(s, Arith(1, 3))
        yield f"restrict({name})", restrict(s, Arith(0, 2))
        yield f"{name}+spread", combine([1, 1], [s, spread(s, Arith(1, 2))])


def test_no_sequence_is_certified_both_in_and_out_of_a_cap_lp_space():
    conflicts, ins, outs = [], 0, 0
    for name, seq in _consistency_inputs():
        for space in (cap_lp(0), cap_lp(1), cap_lp(2)):
            inc = try_in_certificate(seq, space, PREC) is not None
            out = try_out_certificate(seq, space, PREC) is not None
            ins, outs = ins + inc, outs + out
            if inc and out:
                conflicts.append((name, str(space)))
    assert conflicts == []
    assert (ins, outs) == (150, 58)


# -- in-schedule rules: each rule `_in_schedule` rests on, tested on its oracle --------


def _finitely_supported(seq):
    """Read from the node's structure, not from its hint or oracles: finite
    data, its spreads and restrictions, a restriction onto a finite mask, or
    a combination of such parts."""
    if isinstance(seq, FiniteRational):
        return True
    if isinstance(seq, Restrict):
        return isinstance(seq.support, ExplicitFinite) or _finitely_supported(seq.base)
    if isinstance(seq, Spread):
        return _finitely_supported(seq.base)
    if isinstance(seq, Combine):
        return all(_finitely_supported(b) for b in seq.bases)
    return False


def _schedule_nodes():
    """The disc-schedule nodes, plus each catalog member combined with
    finite data and restricted onto a finite mask."""
    yield from _DISC_NODES.items()
    partner = FiniteRational({1: F(2), 4: (F(-1, 3), F(1, 2))})
    for name, seq in sorted(catalog().items()):
        yield f"{name}+finite", combine([F(3, 2), (F(1), F(-1))], [seq, partner])
        yield f"restrict-finite({name})", restrict(seq, ExplicitFinite([0, 1, 5, 6]))


_SCHEDULE_NODES = dict(_schedule_nodes())
_OUTSIDE_HD = ("nat-power", "nn-evens")  # the catalog's members growing like n**n


def test_a_poly_sup_tail_comes_only_from_finitely_supported_data():
    answered = []
    for name, seq in _SCHEDULE_NODES.items():
        for N in (-1, 0, 16, 4096):
            for k in range(9):  # the ainf schedule's exponents
                if seq.poly_sup_tail(N, k, PREC) is not None:
                    assert _finitely_supported(seq), (name, N, k)
                    answered.append(name)
    assert {"zero", "finite", "spread(finite)", "restrict(finite)", "finite+finite",
            "zero+finite", "restrict-finite(finite)"} <= set(answered)


def test_a_disc_tail_comes_only_from_members_of_hd():
    radii = [F(k, k + 1) for k in range(1, 9)]  # the disc schedule's radii
    answered = set()
    for name, seq in _SCHEDULE_NODES.items():
        in_hd = _finitely_supported(seq) or not any(bad in name for bad in _OUTSIDE_HD)
        for N in (-1, 16, 256):
            for r in radii:
                if seq.disc_tail(N, r, PREC) is not None:
                    assert in_hd, (name, N, r)
                    answered.add(name)
    for bad in _OUTSIDE_HD:
        assert bad in _SCHEDULE_NODES and f"spread({bad})" in _SCHEDULE_NODES
        assert not {bad, f"spread({bad})", f"restrict({bad})", f"combine({bad})"} & answered
    assert {"nat", "const-one", "prop28", "spread(nat)", "combine(gap-cap-c0)"} <= answered


def test_every_position_tail_falls_below_one_half_or_stays_at_least_one():
    cutoffs = (0, 1, 16, 256, 1 << 12)
    vanishing, constant = [], []
    for name, seq in _SCHEDULE_NODES.items():
        tails = [t for t in (seq.pos_sup_tail(K, PREC) for K in cutoffs) if t is not None]
        if not tails:
            continue
        late = seq.pos_sup_tail(1 << 12, PREC)
        if late is not None and late < F(1, 2):
            vanishing.append(name)
        else:  # the c0 schedule's eps = 1/2 row then fails, as it must
            assert min(tails) >= 1 and "const-one" in name, (name, tails)
            constant.append(name)
    assert sorted(constant) == ["const-one", "spread(const-one)"]
    assert {"finite", "prop28", "gap-cap-c0", "spread(prop28)"} <= set(vanishing)
