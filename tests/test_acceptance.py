"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Budgets and tolerances are pinned here, not configurable.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import catalog, random_finite
from test_diagnose import _brute_fkj, _brute_fm, _brute_fmk, _brute_fnk, _agree

from seqchain.cli import main
from seqchain.diagnose import (
    CertifiedIn,
    CertifiedOut,
    ClosedFamily,
    closed_family_check,
    classify,
    try_in_certificate,
    try_out_certificate,
)
from seqchain.errors import AllCoefficientsPossiblyZero
from seqchain.families import nat, nat_power, prop28
from seqchain.generic import (
    approximate_with_avoider,
    check_outside_certificate,
    dense_family_element,
    enumerate_rational_c00,
)
from seqchain.sequences import combine, spread, zero
from seqchain.spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    adjacent_pairs,
    lp,
    metric_bound,
    standard_chain,
)
from seqchain.spaceable import (
    build_basis,
    certify_combination_outside,
    recover_coefficient,
)
from seqchain.supports import Arith

F = Fraction
BUDGET = 4096
PREC = 64


def test_criterion_1_chain_verification(tmp_path):
    """All nine adjacent-pair witnesses build and verify in under 10 s."""
    out = tmp_path / "chain.json"
    started = time.monotonic()
    code = main(["--budget", "4096", "chain", "--verify", "--out", str(out)])
    elapsed = time.monotonic() - started
    report = json.loads(out.read_text())
    assert code == 0
    assert report["verified"] is True
    assert len(report["witnesses"]) == 9
    assert all(w["verified"] for w in report["witnesses"])
    assert elapsed < 10.0, f"chain verification took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 chain verification: PASS (9/9 witnesses, {elapsed:.2f}s)")


def test_criterion_2_sqrt_witness_reproduction():
    """Exact term 1/2 at n=4; first weighted family violated at n=2 with
    value sqrt(2); l2 mass over the support equals 1 within 2**-40."""
    y = prop28()

    iv = y.term(4, 20)
    assert iv.is_exact and iv.re_lo == F(1, 2) and iv.im_lo == 0

    res = closed_family_check(y, ClosedFamily("FMk", (F(1), 1)), BUDGET, PREC)
    assert res.n == 2
    assert res.lower > 1, "interval must exclude the bound 1"
    assert res.lower ** 2 <= 2 <= res.upper ** 2, "value is sqrt(2)"

    head_lo = F(0)
    head_hi = F(0)
    for k in range(1, 50):
        sq_lo, sq_hi = y.term(1 << k, 80).abs_sq_bounds()
        head_lo += sq_lo
        head_hi += sq_hi
    tail = y.tail_majorant(1 << 49, F(2), 80)
    mass_lo, mass_hi = head_lo, head_hi + tail
    assert mass_lo <= 1 <= mass_hi
    assert mass_hi - mass_lo < F(1, 1 << 40)
    print("\nACCEPTANCE 2 sqrt-witness reproduction: PASS")


def test_criterion_3_growth_classifications():
    """(n) is outside the bounded space but inside the disc space; the
    super-exponential sequence is outside the disc space."""
    assert isinstance(classify(nat(), LINF, BUDGET, PREC), CertifiedOut)
    assert isinstance(classify(nat(), HD, BUDGET, PREC), CertifiedIn)
    assert isinstance(classify(nat_power(), HD, BUDGET, PREC), CertifiedOut)
    print("\nACCEPTANCE 3 growth classifications: PASS")


def test_criterion_4_decomposition_bruteforce_suite():
    """Five closed-family types agree exactly with brute force on 100
    random finitely supported sequences each."""
    rng = random.Random(20260809)
    checked = 0
    for _ in range(100):
        a = random_finite(rng)
        real = random_finite(rng, real_only=True)

        fam = ClosedFamily("FMk", (F(rng.randint(1, 6)), rng.randint(0, 3)))
        assert _agree(closed_family_check(a, fam, 64, PREC), _brute_fmk(a, fam))

        fam = ClosedFamily("FM", (F(rng.randint(1, 4)),))
        assert _agree(closed_family_check(a, fam, 64, PREC), _brute_fm(a, fam))

        fam = ClosedFamily("Fnk", (rng.randint(0, 6), rng.randint(1, 5)))
        assert _agree(closed_family_check(a, fam, 64, PREC), _brute_fnk(a, fam))

        fam = ClosedFamily("Fkj", (rng.randint(1, 4), rng.randint(1, 4)))
        assert _agree(closed_family_check(a, fam, 64, PREC), _brute_fkj(a, fam))

        fam = ClosedFamily("psum", (F(rng.choice((1, 2))), F(rng.randint(1, 5))))
        p, M = fam.params
        source = real if p == 1 else a
        total = F(0)
        expected = None
        for n, (re, im) in sorted(source.entries.items()):
            total += abs(re) if p == 1 else re * re + im * im
            if total > M:
                expected = n
                break
        assert _agree(closed_family_check(source, fam, 64, PREC), expected)
        checked += 5
    print(f"\nACCEPTANCE 4 decomposition brute-force suite: PASS ({checked} checks)")


DENSE_FAMILY_PAIRS = [(lp(1), C0), (AINF, lp(1)), (HD, CN0), (C0, CN0)]


def test_criterion_5_dense_family_suite():
    """20 deterministic rational targets per pair approximated within
    2**-10 with passing escape certificates; element distances stay below
    1/j for j <= 8; all within 30 s."""
    eps = F(1, 1 << 10)
    started = time.monotonic()
    for inner, outer in DENSE_FAMILY_PAIRS:
        for idx in range(2, 22):  # 20 deterministic c00 targets
            target = enumerate_rational_c00(idx)
            res = approximate_with_avoider(target, eps, outer, inner, BUDGET, PREC)
            assert res.distance_upper < eps
            assert check_outside_certificate(res.f, res.certificate, 2, PREC)
        for j in range(1, 9):
            el = dense_family_element(j, outer, inner, BUDGET, PREC)
            mb = metric_bound(outer, el.f, el.x, 256, PREC)
            assert mb.upper < F(1, j)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"dense-family suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 5 dense-family suite: PASS ({elapsed:.2f}s)")


def test_criterion_6_basis_recovery_suite():
    """Exact zero-width coefficient recovery and passing escape
    certificates for 50 random combinations per adjacent pair; the zero
    vector is rejected."""
    rng = random.Random(577)
    for inner, outer in adjacent_pairs():
        basis = build_basis(inner, outer, 5, BUDGET, PREC)
        seqs = [basis.elements[j].seq for j in range(1, 6)]
        for _ in range(50):
            t = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5))) for _ in range(5)]
            if all(re == 0 and im == 0 for re, im in t):
                t[rng.randrange(5)] = (F(1), F(1))
            f = combine(t, seqs)
            for j in range(1, 6):
                iv = recover_coefficient(f, basis, j, PREC)
                assert iv.is_exact
                assert (iv.re_lo, iv.im_lo) == t[j - 1]
            cert = certify_combination_outside(f, basis, list(range(1, 6)), BUDGET, PREC)
            assert check_outside_certificate(f, cert, samples=2, prec=PREC)
        with pytest.raises(AllCoefficientsPossiblyZero):
            certify_combination_outside(zero(), basis, list(range(1, 6)), BUDGET, PREC)
    print("\nACCEPTANCE 6 basis recovery suite: PASS (9 pairs x 50 vectors)")


def test_criterion_7_soundness_invariants():
    """No sequence is certified both in and out; certified membership is
    upward closed along the chain; spreading preserves l1/l2 sums exactly
    on 200 random finite sequences."""
    spaces = standard_chain()
    for name, seq in catalog().items():
        row = []
        for space in spaces:
            out = try_out_certificate(seq, space, 48)
            inc = try_in_certificate(seq, space, 48)
            assert not (out is not None and inc is not None), (name, str(space))
            row.append("in" if inc else ("out" if out else "und"))
        if "in" in row:
            first = row.index("in")
            assert all(r == "in" for r in row[first:]), (name, row)

    rng = random.Random(31415)
    for _ in range(200):
        real = random_finite(rng, real_only=True)
        sp1 = spread(real, Arith(1, 3))
        assert sum(abs(re) for re, _ in real.entries.values()) == sum(
            abs(re) for re, _ in sp1.entries.values()
        )
        gauss = random_finite(rng)
        sp2 = spread(gauss, Arith(0, 7))
        assert sum(re * re + im * im for re, im in gauss.entries.values()) == sum(
            re * re + im * im for re, im in sp2.entries.values()
        )
    print("\nACCEPTANCE 7 soundness invariants: PASS")


CLI_COMMANDS = [
    ["chain", "--verify"],
    ["classify", '{"kind":"family","name":"nat"}', "linf"],
    ["classify", '{"kind":"finite","entries":[]}', "ainf"],
    ["decompose", '{"kind":"family","name":"prop28"}', "ainf",
     "--outer-range", "1:1", "--inner-range", "1:10"],
    ["witness", "--inner", "ainf", "--outer", "cap-lp:0",
     "--support", '{"kind":"powers-of-two"}'],
    ["approx", "--target", '{"kind":"finite","entries":[]}',
     "--outer", "c0", "--avoid", "lp:1", "--epsilon", "1/1024"],
    ["basis", "--inner", "linf", "--outer", "hd", "--count", "2"],
    ["recover", "--f", '{"kind":"finite","entries":[]}',
     "--inner", "lp:1", "--outer", "c0", "--j", "1"],
]


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI command produces byte-identical reports across runs with
    identical seed and config."""
    for idx, argv in enumerate(CLI_COMMANDS):
        paths = [tmp_path / f"{idx}-{run}.json" for run in (0, 1)]
        for path in paths:
            code = main(argv + ["--seed", "3", "--out", str(path)])
            assert code == 0, argv
        assert paths[0].read_bytes() == paths[1].read_bytes(), argv
    print(f"\nACCEPTANCE 8 CLI determinism: PASS ({len(CLI_COMMANDS)} commands)")
