import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import BUDGET, PREC, catalog, random_finite
from seqchain.diagnose import (
    FM,
    CertifiedIn,
    CertifiedOut,
    ConsistentUpTo,
    DivergentPartialSums,
    FMk,
    Fkj,
    Fnk,
    InCert,
    NotVanishing,
    OutCert,
    PartialSum,
    RootLimsupExceeds,
    Unbounded,
    UnboundedWeighted,
    Undecided,
    ViolatedAt,
    _head_moduli,
    _in_cert,
    _lp_head_upper,
    _verify_blocks,
    check_certificate,
    classify,
    closed_family_check,
    decompose_report,
    format_family,
    parse_family,
    try_in_certificate,
    try_out_certificate,
    verdict_to_json,
)
from seqchain.errors import UnsupportedSpace
from seqchain.families import const_one, gap_cap_c0, gap_lp_cap, nat, nat_power, prop28
from seqchain.intervals import ComplexInterval, pow_bounds
from seqchain.sequences import (
    FiniteRational,
    Sequence,
    combine,
    restrict,
    spread,
    support_indices_upto,
    zero,
)
from seqchain.serialize import canonical_json, sequence_from_spec
from seqchain.spaces import AINF, C0, CN0, HD, LINF, cap_lp, lp, parse_space, standard_chain
from seqchain.supports import AllNaturals, Arith, DyadicRow, PowersOfTwo
from seqchain.tags import BlockDivergence, SubseqLowerBound
from test_intervals import _ref_pow_bounds

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
    assert isinstance(out, CertifiedOut) and isinstance(out.cert.shape, Unbounded)
    inside = classify(nat(), HD, BUDGET, PREC)
    assert isinstance(inside, CertifiedIn)


def test_nat_power_outside_disc():
    v = classify(nat_power(), HD, BUDGET, PREC)
    assert isinstance(v, CertifiedOut) and isinstance(v.cert.shape, RootLimsupExceeds)


def test_prop28_out_certificate_shape():
    v = classify(prop28(), AINF, BUDGET, PREC)
    assert isinstance(v, CertifiedOut)
    shape = v.cert.shape
    assert isinstance(shape, UnboundedWeighted) and shape.k == 1
    # the tagged subsequence runs along the powers of two
    assert [shape.tag.s(m) for m in (1, 2, 3)] == [2, 4, 8]


def test_const_one_not_vanishing():
    v = classify(const_one(), C0, BUDGET, PREC)
    assert isinstance(v, CertifiedOut) and isinstance(v.cert.shape, NotVanishing)
    assert v.cert.shape.delta == 1


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
            out = try_out_certificate(seq, space, 512, 48)
            if out is not None:
                inc = try_in_certificate(seq, space, 512, 48)
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


def test_forged_not_vanishing_rejected():
    # claim (n)_n stays away from zero on its zero entries
    forged = NotVanishing(
        delta=F(1),
        tag=SubseqLowerBound(label="forged", s=lambda m: 0, g=lambda m: F(1), g_inf=F(1)),
    )
    from seqchain.diagnose import OutCert

    verdict = CertifiedOut(OutCert(C0, forged))
    assert not check_certificate(nat(), verdict, samples=3, prec=PREC)


def test_forged_unbounded_rejected_on_zero_sequence():
    tag = SubseqLowerBound(label="forged", s=lambda m: m, g=lambda m: F(m), g_inf=F(1))
    from seqchain.diagnose import OutCert

    forged = Unbounded(tag=tag, table=((1, 1, F(1)), (2, 2, F(2))))
    assert not check_certificate(zero(), CertifiedOut(OutCert(LINF, forged)), 3, PREC)


def test_forged_divergence_on_summable_sequence_rejected():
    # claim the square-summable sqrt family has divergent l^1 partial sums
    from seqchain.diagnose import DivergentPartialSums, OutCert
    from seqchain.tags import BlockDivergence

    forged = DivergentPartialSums(
        exponent=F(1),
        blocks=BlockDivergence(
            p=F(1),
            block=lambda j: (1 << j, (1 << (j + 1)) - 1),
            comparator="constant",
            c=F(1, 2),
        ),
        checked_blocks=(1, 2, 3),
    )
    verdict = CertifiedOut(OutCert(lp(1), forged))
    assert not check_certificate(prop28(), verdict, samples=3, prec=PREC)


def test_forged_root_certificate_with_tame_rho_rejected():
    from seqchain.diagnose import OutCert
    from seqchain.tags import RootLowerBound

    tame = RootLimsupExceeds(
        rho=F(1),  # not > 1: says nothing about the root test
        m_start=1,
        tag=RootLowerBound(label="f", s=lambda m: m, rho=lambda m: F(1)),
    )
    assert not check_certificate(nat(), CertifiedOut(OutCert(HD, tame)), 3, PREC)


def test_swapped_space_certificate_rejected():
    v = classify(nat(), LINF, BUDGET, PREC)
    from seqchain.diagnose import OutCert

    wrong_space = CertifiedOut(OutCert(C0, v.cert.shape))
    assert not check_certificate(nat(), wrong_space, 3, PREC)


# -- closed families ----------------------------------------------------------------


def test_family_ref_grammar_roundtrip():
    refs = [
        FMk(M=F(3), k=2),
        PartialSum(p=F(1, 2), M=F(7)),
        Fnk(n=4, k=3),
        FM(M=F(5)),
        Fkj(k=2, j=6),
    ]
    for ref in refs:
        assert parse_family(format_family(ref)) == ref


def test_prop28_violates_first_weighted_family():
    res = closed_family_check(prop28(), FMk(M=F(1), k=1), BUDGET, PREC)
    assert isinstance(res, ViolatedAt) and res.n == 2
    # weighted value is sqrt(2); the reported interval excludes 1
    assert res.lower > 1
    assert res.lower <= F(1414214, 10**6) <= res.upper * F(1000001, 10**6)


def test_zero_consistent_everywhere():
    for fam in (FMk(M=F(1), k=1), PartialSum(p=F(1), M=F(1)), Fnk(n=0, k=3), FM(M=F(1)), Fkj(k=1, j=1)):
        assert closed_family_check(zero(), fam, BUDGET, PREC) == ConsistentUpTo(BUDGET)


def test_nat_root_families_consistent():
    # n**(1/n) <= 2 and even <= 3/2 for every n
    assert isinstance(closed_family_check(nat(), Fkj(k=1, j=1), 512, PREC), ConsistentUpTo)
    assert isinstance(closed_family_check(nat(), Fkj(k=1, j=2), 512, PREC), ConsistentUpTo)


def test_nat_violates_bounded_families():
    res = closed_family_check(nat(), FM(M=F(10)), BUDGET, PREC)
    assert res == ViolatedAt(11, F(11), F(11))


def test_family_check_budget_monotone():
    # a violation found at a small budget persists verbatim at larger ones
    small = closed_family_check(prop28(), FMk(M=F(1), k=1), 64, PREC)
    large = closed_family_check(prop28(), FMk(M=F(1), k=1), BUDGET, PREC)
    assert small == large
    assert closed_family_check(nat(), Fkj(k=1, j=1), 64, PREC) == ConsistentUpTo(64)
    assert closed_family_check(nat(), Fkj(k=1, j=1), 512, PREC) == ConsistentUpTo(512)


# -- brute force agreement -----------------------------------------------------------


def _brute_fmk(a, fam):
    hits = [
        n
        for n, (re, im) in sorted(a.entries.items())
        if Fraction(n) ** (2 * fam.k) * (re * re + im * im) > fam.M ** 2
        and not (n == 0 and fam.k > 0)
    ]
    if fam.k == 0:
        hits = [
            n
            for n, (re, im) in sorted(a.entries.items())
            if re * re + im * im > fam.M ** 2
        ]
    return hits[0] if hits else None


def _brute_fm(a, fam):
    hits = [
        n for n, (re, im) in sorted(a.entries.items()) if re * re + im * im > fam.M ** 2
    ]
    return hits[0] if hits else None


def _brute_fnk(a, fam):
    t = F(1, fam.k)
    hits = [
        n
        for n, (re, im) in sorted(a.entries.items())
        if n >= fam.n and re * re + im * im > t * t
    ]
    return hits[0] if hits else None


def _brute_fkj(a, fam):
    base = 1 + F(1, fam.j)
    hits = [
        n
        for n, (re, im) in sorted(a.entries.items())
        if n >= max(fam.k, 1) and re * re + im * im > base ** (2 * n)
    ]
    return hits[0] if hits else None


def _brute_psum(a, fam, exact_abs):
    total = F(0)
    for n, value in sorted(a.entries.items()):
        total += exact_abs(value) ** fam.p.numerator  # p in {1, 2} here
        if total > fam.M:
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
        fam1 = FMk(M=F(rng.randint(1, 6)), k=rng.randint(0, 3))
        assert _agree(closed_family_check(a, fam1, 64, PREC), _brute_fmk(a, fam1))
        fam2 = FM(M=F(rng.randint(1, 4)))
        assert _agree(closed_family_check(a, fam2, 64, PREC), _brute_fm(a, fam2))
        fam3 = Fnk(n=rng.randint(0, 6), k=rng.randint(1, 5))
        assert _agree(closed_family_check(a, fam3, 64, PREC), _brute_fnk(a, fam3))
        fam4 = Fkj(k=rng.randint(1, 4), j=rng.randint(1, 4))
        assert _agree(closed_family_check(a, fam4, 64, PREC), _brute_fkj(a, fam4))


@pytest.mark.parametrize("seed", range(5))
def test_bruteforce_agreement_partial_sums(seed):
    rng = random.Random(2000 + seed)
    for _ in range(25):
        real = random_finite(rng, real_only=True)
        fam = PartialSum(p=F(1), M=F(rng.randint(1, 5)))
        expected = _brute_psum(real, fam, lambda v: abs(v[0]))
        assert _agree(closed_family_check(real, fam, 64, PREC), expected)

        gauss = random_finite(rng)
        fam2 = PartialSum(p=F(2), M=F(rng.randint(1, 5)))
        total = F(0)
        expected2 = None
        for n, (re, im) in sorted(gauss.entries.items()):
            total += re * re + im * im
            if total > fam2.M:
                expected2 = n
                break
        assert _agree(closed_family_check(gauss, fam2, 64, PREC), expected2)


# -- decomposition reports --------------------------------------------------------


def test_decompose_prop28_weighted_grid():
    rows = decompose_report(prop28(), AINF, [1], range(1, 11), BUDGET, PREC)
    violations = {fam.M: res.n for fam, res in rows}
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
    assert fams[0].p == F(2) and fams[-1].p == F(3, 2)
    assert all(isinstance(res, ViolatedAt) for _, res in rows)


# -- recorded certificates and tampering -------------------------------------------

# Reports recorded before the certificate heads were shared across schedule
# rows: one spec per certificate shape, including the block-constant
# gap-cap-c0 spread on a dyadic row.  Any change to a head sum, a bound or
# the row order changes these bytes.
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


def _bump_row(verdict, row: int, col: int):
    """The in-certificate with data[row][col] raised by 2**-200."""
    cert = verdict.cert
    data = list(cert.data)
    data[row] = tuple(x + BUMP if i == col else x for i, x in enumerate(data[row]))
    return CertifiedIn(InCert(cert.space, cert.shape, tuple(data), cert.prec))


def test_raised_lp_schedule_head_rejected():
    seq = gap_lp_cap(F(1))
    v = classify(seq, cap_lp(1), BUDGET, PREC)
    assert v.cert.shape == "lp-schedule"
    assert check_certificate(seq, v, 3, PREC)
    for row in (0, len(v.cert.data) - 1):
        assert not check_certificate(seq, _bump_row(v, row, 2), 3, PREC)


def test_raised_disc_schedule_bound_rejected():
    seq = nat()
    v = classify(seq, HD, BUDGET, PREC)
    assert v.cert.shape == "disc-schedule"
    assert check_certificate(seq, v, 3, PREC)
    for row in (0, len(v.cert.data) - 1):
        assert not check_certificate(seq, _bump_row(v, row, 2), 3, PREC)


# An in-certificate is checked by rebuilding it at its recorded cutoffs, so
# any recorded number, row or cutoff that the rebuild does not reproduce is
# rejected, even where the forged value would still bound the sequence.


def _with_data(verdict, data):
    cert = verdict.cert
    return CertifiedIn(InCert(cert.space, cert.shape, data, cert.prec))


def test_raised_sup_bound_rejected():
    seq = prop28()
    v = classify(seq, LINF, BUDGET, PREC)
    assert v.cert.shape == "sup-bound"
    assert check_certificate(seq, v, 3, PREC)
    N, bound = v.cert.data
    assert not check_certificate(seq, _with_data(v, (N, bound + BUMP)), 3, PREC)


def test_larger_vanishing_schedule_epsilon_rejected():
    seq = prop28()
    v = classify(seq, C0, BUDGET, PREC)
    assert v.cert.shape == "vanishing-schedule"
    assert check_certificate(seq, v, 3, PREC)
    for row in (0, len(v.cert.data) - 1):
        assert not check_certificate(seq, _bump_row(v, row, 0), 3, PREC)


def test_shortened_vanishing_schedule_rejected():
    seq = prop28()
    v = classify(seq, C0, BUDGET, PREC)
    assert not check_certificate(seq, _with_data(v, v.cert.data[:3]), 3, PREC)


def test_raised_poly_schedule_bound_rejected():
    # |a_20| = 1/128 is under eps = 1/64 at k = 0, so row 0 records a
    # nonzero bound at the first cutoff; later rows search past index 20
    seq = FiniteRational({20: F(1, 128)})
    v = classify(seq, AINF, BUDGET, PREC)
    assert v.cert.shape == "poly-schedule"
    assert v.cert.data[0][2:] == (16, F(1, 128)) and v.cert.data[1][2] == 32
    assert check_certificate(seq, v, 3, PREC)
    for row in (0, 1):
        assert not check_certificate(seq, _bump_row(v, row, 3), 3, PREC)


def test_lp_tail_at_another_cutoff_rejected():
    seq = prop28()
    v = classify(seq, lp(1), BUDGET, PREC)
    assert v.cert.shape == "lp-tail"
    p, N, head, tail = v.cert.data
    for other in (N // 2, 2 * N):
        assert not check_certificate(seq, _with_data(v, (p, other, head, tail)), 3, PREC)


def test_lp_schedule_rows_on_different_cutoffs_rejected():
    seq = gap_lp_cap(F(1))
    v = classify(seq, cap_lp(1), BUDGET, PREC)
    rows = list(v.cert.data)
    p_n, N, head, tail = rows[-1]
    rows[-1] = (p_n, N // 2, head, tail)
    assert not check_certificate(seq, _with_data(v, tuple(rows)), 3, PREC)


def test_shape_of_another_space_rejected():
    seq = zero()
    assert not check_certificate(seq, CertifiedIn(InCert(lp(1), "total", (), PREC)), 3, PREC)
    cn0_cert = classify(seq, CN0, BUDGET, PREC).cert
    lp_cert = classify(seq, lp(1), BUDGET, PREC).cert
    forged = InCert(lp(1), cn0_cert.shape, lp_cert.data, PREC)
    assert not check_certificate(seq, CertifiedIn(forged), 3, PREC)


@pytest.mark.parametrize("space", [lp(1), cap_lp(1), C0, LINF, HD, AINF], ids=str)
def test_empty_in_certificate_data_rejected(space):
    seq = FiniteRational({0: F(3, 4)})
    v = classify(seq, space, BUDGET, PREC)
    assert isinstance(v, CertifiedIn) and check_certificate(seq, v, 3, PREC)
    assert not check_certificate(seq, _with_data(v, ()), 3, PREC)


@pytest.mark.parametrize("cutoff", [F(256), 256.0], ids=["fraction", "float"])
def test_non_integer_recorded_cutoff_rejected(cutoff):
    seq = prop28()
    v = classify(seq, LINF, BUDGET, PREC)
    N, bound = v.cert.data
    assert N == cutoff
    assert not check_certificate(seq, _with_data(v, (cutoff, bound)), 3, PREC)


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
    shape = v.cert.shape
    assert isinstance(shape, DivergentPartialSums) and shape.blocks.comparator == "constant"
    mass = min(_block_mass_lower(seq, shape.blocks, j, PREC) for j in shape.checked_blocks)

    def with_c(c):
        blocks = replace(shape.blocks, c=c)
        return CertifiedOut(OutCert(space, replace(shape, blocks=blocks)))

    assert check_certificate(seq, with_c(mass), 3, PREC)
    assert not check_certificate(seq, with_c(mass + BUMP), 3, PREC)


def test_gap_cap_c0_past_block_search_cap_is_undecided():
    seq = gap_cap_c0(F(1000))
    assert seq.lp_divergence(F(1000)) is None
    assert isinstance(classify(seq, lp(1000), BUDGET, PREC), Undecided)


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
    hint = seq.support_hint or AllNaturals()
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
        for bd in [
            seq.lp_divergence(F(1)),
            seq.lp_divergence(F(2)),
            (seq.cap_divergence(F(0)) or (None, None))[1],
            (seq.cap_divergence(F(1)) or (None, None))[1],
        ]:
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
        if base.support_hint is None or isinstance(base.support_hint, AllNaturals):
            continue
        for space in (lp(1), cap_lp(1)):
            if not isinstance(classify(base, space, BUDGET, PREC), CertifiedOut):
                continue
            for support in sorted(_SPREAD_SUPPORTS):
                seq = spread(base, _SPREAD_SUPPORTS[support])
                v = classify(seq, space, BUDGET, PREC)
                assert isinstance(v, CertifiedOut), (name, str(space), support)
                assert isinstance(v.cert.shape, DivergentPartialSums)
                assert all(check_certificate(seq, v, k, PREC) for k in range(1, 9))
                cases += 1
    assert cases >= 8


# -- in-certificate heads: grid sums against Fraction sums --------------------------


def _ref_lp_head_upper(moduli, p, prec):
    """The head sum as it was added in Fraction arithmetic, one upper
    endpoint per term."""
    total = F(0)
    for _, sq_hi in moduli:
        total += _ref_pow_bounds(sq_hi, p / 2, prec)[1]
    return total


# lp exponents (p = 2 and p = 4 make every summand exact) and cap-lp rows a + 1/n
_HEAD_EXPONENTS = [F(1, 2), F(1), F(3, 2), F(2), F(4)] + [
    a + F(1, n) for a in (F(0), F(1), F(2)) for n in (1, 2, 3, 8)
]


@pytest.mark.parametrize("name", sorted(catalog()))
def test_lp_head_uppers_equal_fraction_sums(name):
    seq = catalog()[name]
    # n**n (nat-power, nn-evens) makes the reference's q**a slow past N = 40
    for N in (-1, 0, 9, 40) if name in ("nat-power", "nn-evens") else (-1, 0, 9, 64, 300):
        moduli = _head_moduli(seq, N, PREC)
        for p in _HEAD_EXPONENTS:
            assert _lp_head_upper(moduli, p, PREC) == _ref_lp_head_upper(moduli, p, PREC), (N, p)


@pytest.mark.parametrize("prec", [16, 64])
def test_lp_head_uppers_of_finite_rationals_equal_fraction_sums(prec):
    # rational entries: many summands are exact, the rest land on the grid
    rng = random.Random(7)
    for _ in range(40):
        seq = random_finite(rng, max_index=30)
        moduli = _head_moduli(seq, 30, prec)
        for p in _HEAD_EXPONENTS:
            assert _lp_head_upper(moduli, p, prec) == _ref_lp_head_upper(moduli, p, prec)


def _ref_partial_sum_check(seq, fam, budget, prec):
    """The PartialSum scan as it was: cumulative Fraction sums of both endpoints."""
    hp = prec + 32
    cum_lo = cum_hi = F(0)
    for n in sorted(support_indices_upto(seq, budget)):
        sq_lo, sq_hi = seq.term(n, hp).abs_sq_bounds()
        cum_lo += _ref_pow_bounds(sq_lo, fam.p / 2, hp)[0]
        cum_hi += _ref_pow_bounds(sq_hi, fam.p / 2, hp)[1]
        if cum_lo > fam.M:
            return ViolatedAt(n, cum_lo, cum_hi)
    return ConsistentUpTo(budget)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_partial_sum_scans_equal_fraction_sums(name):
    seq = catalog()[name]
    for p in (F(1, 2), F(1), F(3, 2), F(2), F(4, 3)):
        for M in (F(1, 3), F(2), F(9)):
            fam = PartialSum(p=p, M=M)
            assert closed_family_check(seq, fam, 200, PREC) == _ref_partial_sum_check(seq, fam, 200, PREC)


def test_lp_head_uppers_with_runs_of_equal_moduli_equal_term_by_term_sums():
    # runs of equal moduli, exact and on the grid, zeros among them
    rng = random.Random(11)
    values = [F(0), F(1), F(1, 4), F(2), F(1, 3), F(5, 7), F(9, 4)]
    for _ in range(60):
        moduli, n = [], 0
        for _ in range(rng.randint(0, 8)):
            q = rng.choice(values)
            for _ in range(rng.randint(1, 6)):
                moduli.append((n, q))
                n += 1
        for p in _HEAD_EXPONENTS:
            for prec in (16, PREC):
                assert _lp_head_upper(moduli, p, prec) == _ref_lp_head_upper(moduli, p, prec)


# -- disc-schedule rows: the disc-sum kernel against Fraction sums ---------------------


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
    seq = _DISC_NODES[name]
    for cut in (0, 5, 64):
        cert = _in_cert(seq, HD, cut, PREC)
        if cert is None:
            assert seq.disc_tail(cut, F(1, 2), PREC) is None, name
            continue
        moduli = _head_moduli(seq, cut, PREC, root=True)
        if name == "nat-nat":
            assert moduli and all(a == 0 for _, a in moduli)
        assert len(cert.data) == 8
        for k, (r, N, bound) in enumerate(cert.data, start=1):
            ref = F(0)
            for n, a in moduli:
                ref += a * r ** n
            assert (r, N) == (F(k, k + 1), cut)
            assert bound == ref + seq.disc_tail(cut, r, PREC), (name, cut, k)


def test_disc_schedule_rows_are_built_for_most_nodes():
    built = [name for name, seq in _DISC_NODES.items() if _in_cert(seq, HD, 5, PREC) is not None]
    assert len(built) == 49 and "nat-nat" in built
