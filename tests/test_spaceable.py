import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import BUDGET, PREC, point_check_failure, row_points
from seqchain import spaceable, witness
from seqchain.diagnose import CertifiedOut, classify
from seqchain.errors import (
    AllCoefficientsPossiblyZero,
    NoNonzeroSupportPoint,
    NotStrictPair,
    SeqchainError,
)
from seqchain.families import const_one
from seqchain.generic import check_outside_certificate, disjoint_support, escape_certificate
from seqchain.intervals import ComplexInterval, replace
from seqchain.sequences import Combine, FiniteRational, Sequence, combine, spread, zero
from seqchain.serialize import canonical_json, sequence_from_spec
from seqchain.spaces import AINF, C0, LINF, adjacent_pairs, cap_lp, lp, parse_space
from seqchain.spaceable import (
    _first_nonzero_point,
    basis_element,
    build_basis,
    certify_combination_outside,
    recover_coefficient,
)
from seqchain.supports import Arith
from seqchain.witness import verify_witness

F = Fraction


def test_basis_element_is_verified_witness_on_its_row():
    w = basis_element(lp(1), C0, 1, BUDGET, PREC)
    assert w.support.spec() == disjoint_support(1).spec()
    assert verify_witness(w, BUDGET, 3, PREC)


def test_basis_element_doubling_selection_row2():
    w = basis_element(AINF, cap_lp(0), 2, BUDGET, PREC)
    nonzero = [n for n in range(40) if not w.seq.term(n, 20).is_exact_zero]
    assert nonzero == [5, 9, 13, 17, 33]
    # each selected point clears the next power of two
    for rank, n in enumerate(nonzero, start=1):
        assert n >= 2 ** rank


def test_basis_element_deterministic():
    a = basis_element(lp(1), C0, 3, BUDGET, PREC)
    b = basis_element(lp(1), C0, 3, BUDGET, PREC)
    assert a.seq.spec() == b.seq.spec()


def test_basis_rejects_non_strict_pair():
    with pytest.raises(NotStrictPair):
        basis_element(C0, lp(1), 1, BUDGET, PREC)


def test_cross_support_orthogonality():
    basis = build_basis(lp(1), C0, 4, BUDGET, PREC)
    for j, w in basis.elements.items():
        for j2, w2 in basis.elements.items():
            if j == j2:
                continue
            for k in range(1, 30):
                n = w2.support.nth(k)
                assert w.seq.term(n, 10).is_exact_zero


def test_block_structure_of_first_five_rows():
    basis = build_basis(lp(1), C0, 5, BUDGET, PREC)
    for j, w in basis.elements.items():
        own = [w.support.nth(k) for k in range(1, 6)]
        assert any(not w.seq.term(n, 16).is_exact_zero for n in own[:5]) or any(
            not w.seq.term(w.support.nth(k), 16).is_exact_zero for k in range(1, 12)
        )
        for j2, w2 in basis.elements.items():
            if j2 != j:
                assert all(w.seq.term(n, 10).is_exact_zero for n in
                           [w2.support.nth(k) for k in range(1, 6)])


def test_recover_single_coefficient():
    basis = build_basis(lp(1), C0, 2, BUDGET, PREC)
    f = combine([3], [basis.elements[1].seq])
    iv = recover_coefficient(f, basis, 1, PREC)
    assert iv.is_exact and iv.re_lo == 3 and iv.im_lo == 0


def test_recover_uses_disjointness():
    basis = build_basis(lp(1), C0, 2, BUDGET, PREC)
    f = combine([3, 2], [basis.elements[1].seq, basis.elements[2].seq])
    iv = recover_coefficient(f, basis, 2, PREC)
    assert iv.is_exact and iv.re_lo == 2


def test_recover_sums_the_coefficients_of_a_repeated_element():
    basis = build_basis(lp(1), C0, 2, BUDGET, PREC)
    w1, w2 = basis.elements[1].seq, basis.elements[2].seq
    f = combine([(3, 1), (1, 2), (F(-1, 2), -1)], [w1, w2, w1])
    iv = recover_coefficient(f, basis, 1, PREC)
    assert iv.is_exact and (iv.re_lo, iv.im_lo) == (F(5, 2), 0)
    assert recover_coefficient(combine([1, -1], [w1, w1]), basis, 1, PREC).is_exact_zero


def test_recover_reads_nested_combinations_through_their_normal_form():
    # a nested scalar is multiplied through, not read as an inexact quotient,
    # and a nested w - w cancels to an exact zero
    basis = build_basis(AINF, cap_lp(0), 1, BUDGET, PREC)
    w = basis.elements[1].seq
    two_w = combine([2], [w])
    iv = recover_coefficient(combine([1], [two_w]), basis, 1, PREC)
    assert iv == ComplexInterval.exact(2)
    for f in (combine([1, -1], [two_w, two_w]), combine([1, -2], [two_w, w]),
              combine([1, 1], [combine([2, -2], [w, w]), combine([3], [zero()])])):
        assert recover_coefficient(f, basis, 1, PREC) == ComplexInterval.exact(0)


def test_recover_adds_a_part_that_is_nonzero_at_the_evaluation_point():
    # row 1 of the (c0, linf) basis starts at 0, where its witness is 1:
    # a part other than the witness adds its value there, divided by 1,
    # and a part off row 1 adds nothing
    basis = build_basis(C0, LINF, 1, BUDGET, PREC)
    w1 = basis.elements[1]
    assert w1.support.nth(1) == 0 and w1.seq.term(0, PREC) == ComplexInterval.exact(1)
    for x, coefficient in (({0: 2}, 5), ({1: 2}, 3)):
        f = combine([3, 1], [w1.seq, FiniteRational(x)])
        assert recover_coefficient(f, basis, 1, PREC) == ComplexInterval.exact(coefficient)


def test_recover_zero_sequence():
    basis = build_basis(lp(1), C0, 1, BUDGET, PREC)
    iv = recover_coefficient(zero(), basis, 1, PREC)
    assert iv.is_exact and iv.re_lo == 0 and iv.im_lo == 0


def test_recover_escalates_precision_at_the_evaluation_point():
    # the first row-7 point of the ainf witness, 63, is not zero-free at
    # precision 1, so recovery doubles the precision there; the point kept
    # by a recovery at PREC first is kept per precision and not read
    basis = build_basis(AINF, cap_lp(0), 7, BUDGET, PREC)
    w7 = basis.elements[7]
    assert w7.support.nth(1) == 63 and not w7.seq.term(63, 1).excludes_zero()
    recover_coefficient(w7.seq, basis, 7, PREC, BUDGET)
    assert w7.seq._kept["first-nonzero", w7.support, BUDGET, PREC] == (63, PREC)
    # a part other than the witness is divided by its value at precision 2
    iv = recover_coefficient(FiniteRational({63: 1}), basis, 7, 1, BUDGET)
    assert iv == ComplexInterval.exact(1).div(w7.seq.term(63, 2)) and not iv.is_exact
    assert w7.seq._kept["first-nonzero", w7.support, BUDGET, 1] == (63, 2)
    assert recover_coefficient(w7.seq, basis, 7, 1, BUDGET) == ComplexInterval.exact(1)
    exact = recover_coefficient(combine([(2, 1)], [w7.seq]), basis, 7, 1, BUDGET)
    assert exact.is_exact and (exact.re_lo, exact.im_lo) == (2, 1)


def test_a_bare_witness_recovers_exactly_one():
    # a witness given alone, or parsed again from its spec, is its own one
    # part: its coefficient is read by spec key, not as a quotient of terms
    basis = build_basis(lp(2), cap_lp(2), 2, BUDGET, PREC)
    w = basis.elements[2].seq
    for f in (w, sequence_from_spec(w.spec()), combine([1], [w])):
        assert recover_coefficient(f, basis, 2, PREC, BUDGET) == ComplexInterval.exact(1)


def test_recover_missing_element_rejected():
    basis = build_basis(lp(1), C0, 1, BUDGET, PREC)
    with pytest.raises(KeyError):
        recover_coefficient(zero(), basis, 5, PREC)


PAIRS = adjacent_pairs()


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}<{p[1]}")
def test_exact_recovery_over_every_adjacent_pair(pair):
    inner, outer = pair
    basis = build_basis(inner, outer, 3, BUDGET, PREC)
    rng = random.Random(f"{inner}|{outer}")
    seqs = [basis.elements[j].seq for j in (1, 2, 3)]
    for _ in range(10):
        t = [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(3)]
        f = combine(t, seqs)
        for j in (1, 2, 3):
            iv = recover_coefficient(f, basis, j, PREC)
            assert iv.is_exact
            assert (iv.re_lo, iv.im_lo) == t[j - 1]


def test_certify_combination_smallest_nonzero_row():
    basis = build_basis(lp(1), C0, 3, BUDGET, PREC)
    seqs = [basis.elements[j].seq for j in (1, 2, 3)]
    f = combine([(F(1), F(1)), (F(-2), F(0)), 0], seqs)
    cert = certify_combination_outside(f, basis, [1, 2, 3], BUDGET, PREC)
    assert cert.j0 == 1
    assert cert.scale.is_exact and (cert.scale.re_lo, cert.scale.im_lo) == (1, 1)
    assert check_outside_certificate(f, cert, samples=3, prec=PREC)


def test_a_finite_copy_of_a_basis_multiple_is_not_a_combination_over_the_basis():
    # 3 * w_1 on row 1's first 50 points: the coefficient recovers as 3 and
    # the point check passes there, yet the sequence is finitely supported
    basis = build_basis(lp(1), C0, 2, BUDGET, PREC)
    w1 = basis.elements[1]
    fake = FiniteRational({n: 3 * w1.seq.term(n, 4 * PREC).re_lo
                           for n in (w1.support.nth(k) for k in range(1, 51))})
    with pytest.raises(SeqchainError, match="row identity not proved"):
        certify_combination_outside(fake, basis, [1], BUDGET, PREC)
    cert = certify_combination_outside(combine([3], [w1.seq]), basis, [1], BUDGET, PREC)
    assert (cert.scale.re_lo, cert.scale.re_hi) == (3, 3)
    assert point_check_failure(fake, cert, row_points(cert), PREC) is None
    assert not check_outside_certificate(fake, cert, samples=50, prec=PREC)


def test_the_out_certificate_check_is_remembered_per_witness():
    w = basis_element(lp(1), C0, 1, BUDGET, PREC)
    assert verify_witness(w, BUDGET, 3, PREC) and w.out_cert_holds(3, PREC)
    assert w.seq._kept["out-check", w.out_cert, 3, PREC]
    # an equal certificate made afresh hashes alike and finds the same entry
    assert w.seq._kept["out-check", replace(w.out_cert), 3, PREC]
    # a replaced certificate is its own key on the same sequence: the witness
    # vanishes, so the not-vanishing certificate of the constant 1 fails on it
    moved = replace(w, out_cert=classify(const_one(), C0, BUDGET, PREC).cert)
    assert not moved.out_cert_holds(3, PREC)
    assert not w.seq._kept["out-check", moved.out_cert, 3, PREC]
    assert w.out_cert_holds(3, PREC)


def test_the_kept_out_check_equals_the_check_on_a_node_parsed_afresh(monkeypatch):
    w = basis_element(lp(1), C0, 2, BUDGET, PREC)
    w = replace(w, seq=sequence_from_spec(w.seq.spec()))  # nothing kept yet
    vanishing = classify(const_one(), C0, BUDGET, PREC).cert
    real, calls = witness.check_certificate, []
    monkeypatch.setattr(witness, "check_certificate", lambda *a: calls.append(a) or real(*a))
    for cert, holds in ((w.out_cert, True), (vanishing, False)):
        fresh = sequence_from_spec(w.seq.spec())
        assert bool(real(fresh, CertifiedOut(cert), 2, PREC)) is holds
        one = replace(w, out_cert=cert)
        assert one.out_cert_holds(2, PREC) == holds and one.out_cert_holds(2, PREC) == holds
    # one check per certificate: a failure is kept as a success is
    assert len(calls) == 2


ESCAPE_GOLDEN_DIR = Path(__file__).parent / "escape_golden"


# Escape certificates recorded byte for byte before the two escape
# constructions shared one builder: two construct-workload bases, with the
# first coefficient zero in one case so the certificate sits on row 2.
ESCAPE_CASES = [
    ("lp-1-cap-lp-1", "lp:1", "cap-lp:1", [(0, 0), (2, -1), (0, 3), (-5, 0), (1, 1)]),
    ("cap-lp-2-c0", "cap-lp:2", "c0", [(3, -2), (0, 0), (1, 0), (0, -4), (5, 5)]),
    # recorded before recovery stopped at the escaping row: rows 1-2 are
    # zero, so the certificate sits on row 3
    ("hd-cn0", "hd", "cn0", [(0, 0), (0, 0), (-3, 2), (4, 0), (0, -1)]),
]


@pytest.mark.parametrize("name, inner, outer, coeffs", ESCAPE_CASES, ids=[c[0] for c in ESCAPE_CASES])
def test_combination_escape_certificates_match_recorded_bytes(name, inner, outer, coeffs):
    basis = build_basis(parse_space(inner), parse_space(outer), 5, BUDGET, PREC)
    t = [(F(re), F(im)) for re, im in coeffs]
    f = combine(t, [basis.elements[j].seq for j in range(1, 6)])
    cert = certify_combination_outside(f, basis, [1, 2, 3, 4, 5], BUDGET, PREC)
    recorded = (ESCAPE_GOLDEN_DIR / f"{name}.json").read_text()
    assert canonical_json(cert.describe()) == recorded
    assert check_outside_certificate(f, cert, samples=3, prec=PREC)


def test_certify_zero_combination_raises():
    basis = build_basis(lp(1), C0, 2, BUDGET, PREC)
    with pytest.raises(AllCoefficientsPossiblyZero):
        certify_combination_outside(zero(), basis, [1, 2], BUDGET, PREC)


def test_first_nonzero_point_budget():
    # the point a larger budget found and kept is not read at budget 1, and
    # a search that raises keeps nothing, so it raises again
    basis = build_basis(AINF, cap_lp(0), 1, BUDGET, PREC)
    assert recover_coefficient(zero(), basis, 1, PREC, BUDGET).is_exact_zero
    for _ in range(2):
        with pytest.raises(NoNonzeroSupportPoint):
            recover_coefficient(zero(), basis, 1, PREC, budget=1)


# -- reference: recovery of every active row, then the first that escapes --------


def _ref_recover_coefficient(f, basis, j, prec, budget):
    w = basis.elements[j]
    i0, prec = _first_nonzero_point(w, budget, prec)
    y_iv = w.seq.term(i0, prec)
    if isinstance(f, Combine):
        y_key = w.seq.spec_key()
        exact_re, exact_im = F(0), F(0)
        residual = None
        for (re, im), base in zip(f.coeffs, f.bases):
            if base.spec_key() == y_key:
                exact_re += re
                exact_im += im
                continue
            v = base.term(i0, prec)
            if v.is_exact_zero:
                continue
            part = v.scale(re, im)
            residual = part if residual is None else residual + part
        out = ComplexInterval.exact(exact_re, exact_im)
        if residual is not None:
            out = out + residual.div(y_iv)
        return out
    return f.term(i0, prec).div(y_iv)


def _ref_certify_combination_outside(f, basis, active, budget, prec):
    recovered = {j: _ref_recover_coefficient(f, basis, j, prec, budget) for j in sorted(active)}
    j0 = next((j for j, iv in recovered.items() if iv.abs_sq_bounds()[0] > 0), None)
    if j0 is None:
        raise AllCoefficientsPossiblyZero("no recovered coefficient interval excludes zero")
    return escape_certificate(f, j0, basis.elements[j0], recovered[j0], 0)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}<{p[1]}")
def test_certificates_stop_at_the_escaping_row_as_the_eager_reference(pair, monkeypatch):
    inner, outer = pair
    basis = build_basis(inner, outer, 4, BUDGET, PREC)
    rng = random.Random(f"stop|{inner}|{outer}")
    seqs = [basis.elements[j].seq for j in (1, 2, 3, 4)]
    recovered = []
    real_recover = spaceable.recover_coefficient

    def recover(f, basis, j, prec, budget=256):
        recovered.append(j)
        return real_recover(f, basis, j, prec, budget)

    monkeypatch.setattr(spaceable, "recover_coefficient", recover)
    for zeros in range(5):  # the leading `zeros` coefficients vanish
        for _ in range(3):
            t = [(F(0), F(0))] * zeros + [
                (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4)))
                for _ in range(4 - zeros)
            ]
            if zeros < 4 and t[zeros] == (0, 0):
                t[zeros] = (F(1), F(-1))
            f = combine(t, seqs)
            for j in (1, 2, 3, 4):
                assert real_recover(f, basis, j, PREC, BUDGET) == _ref_recover_coefficient(
                    f, basis, j, PREC, BUDGET
                )
            recovered.clear()
            if zeros == 4:
                with pytest.raises(AllCoefficientsPossiblyZero):
                    _ref_certify_combination_outside(f, basis, [1, 2, 3, 4], BUDGET, PREC)
                with pytest.raises(AllCoefficientsPossiblyZero):
                    certify_combination_outside(f, basis, [1, 2, 3, 4], BUDGET, PREC)
                assert recovered == [1, 2, 3, 4]
                continue
            cert = certify_combination_outside(f, basis, [4, 2, 3, 1], BUDGET, PREC)
            ref = _ref_certify_combination_outside(f, basis, [1, 2, 3, 4], BUDGET, PREC)
            assert cert.j0 == ref.j0 == zeros + 1
            assert cert.scale == ref.scale
            assert canonical_json(cert.describe()) == canonical_json(ref.describe())
            assert recovered == list(range(1, zeros + 2))


def test_a_missing_active_index_raises_before_any_recovery():
    # row 1 of this basis has no provably nonzero point at budget 1, so any
    # recovery would raise NoNonzeroSupportPoint first
    basis = build_basis(AINF, cap_lp(0), 1, BUDGET, PREC)
    with pytest.raises(NoNonzeroSupportPoint):
        certify_combination_outside(zero(), basis, [1], 1, PREC)
    with pytest.raises(KeyError):
        certify_combination_outside(zero(), basis, [1, 5], 1, PREC)
    with pytest.raises(KeyError):
        certify_combination_outside(combine([1], [basis.elements[1].seq]), basis, [5, 1], BUDGET, PREC)


# -- recovery reads its own row: the kept point and the hinted residual ------------


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}<{p[1]}")
def test_recovering_a_row_evaluates_no_other_rows_witness(pair, monkeypatch):
    inner, outer = pair
    basis = build_basis(inner, outer, 5, BUDGET, PREC)
    seqs = {j: w.seq for j, w in basis.elements.items()}
    f = combine([(F(j), F(-j)) for j in seqs], list(seqs.values()))
    real_term, calls = Sequence.term, {}

    def term(self, n, prec):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return real_term(self, n, prec)

    monkeypatch.setattr(Sequence, "term", term)
    for j in seqs:
        calls.clear()
        assert recover_coefficient(f, basis, j, PREC, BUDGET) == ComplexInterval.exact(j, -j)
        assert calls.get(id(seqs[j]))
        assert not [k for k, s in seqs.items() if k != j and calls.get(id(s))], j


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}<{p[1]}")
def test_a_stray_part_meeting_the_recovery_point_recovers_as_the_eager_reference(pair):
    # the odd naturals hold every point of rows 2 and up, and miss row 1
    inner, outer = pair
    basis = build_basis(inner, outer, 5, BUDGET, PREC)
    stray = spread(const_one(), Arith(1, 2))
    i0 = _first_nonzero_point(basis.elements[2], BUDGET, PREC)[0]
    assert stray.support_hint.member(i0) and not stray.term(i0, PREC).is_exact_zero
    rng = random.Random(f"stray|{inner}|{outer}")
    for _ in range(3):
        t = [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(5)]
        f = combine(t + [(F(1, 2), F(-1, 3))],
                    [basis.elements[j].seq for j in range(1, 6)] + [stray])
        for j in range(1, 6):
            got = recover_coefficient(f, basis, j, PREC, BUDGET)
            assert got == _ref_recover_coefficient(f, basis, j, PREC, BUDGET), j
            assert (got == ComplexInterval.exact(*t[j - 1])) is (j == 1)  # the stray adds


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}<{p[1]}")
def test_the_kept_point_is_the_search_on_a_rebuilt_witness(pair):
    inner, outer = pair
    basis = build_basis(inner, outer, 3, BUDGET, PREC)
    f = combine([1, 2, 3], [basis.elements[j].seq for j in (1, 2, 3)])
    for j, w in basis.elements.items():
        recover_coefficient(f, basis, j, PREC, BUDGET)
        kept = w.seq._kept["first-nonzero", w.support, BUDGET, PREC]
        rebuilt = basis_element(inner, outer, j, BUDGET, PREC)
        assert rebuilt.seq is not w.seq
        assert kept == _first_nonzero_point(rebuilt, BUDGET, PREC)
