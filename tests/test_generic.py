import random
from fractions import Fraction

import pytest

from conftest import BUDGET, PREC, point_check_failure, row_points
from seqchain.diagnose import CertifiedIn, CertifiedOut, check_certificate, classify
from seqchain.errors import (
    AllZeroCoefficients,
    LengthMismatch,
    NotStrictPair,
    SeqchainError,
    UnsupportedOuter,
)
from seqchain.families import gap_cap_lp, gap_lp_cap, nat, prop28, rem29
from seqchain.generic import (
    approximate_with_avoider,
    certify_outside,
    check_outside_certificate,
    dense_family_element,
    disjoint_support,
    enumerate_rational_c00,
    escape_certificate,
    row_parts,
)
from seqchain.intervals import ComplexInterval, format_rational, replace
from seqchain.sequences import Combine, FiniteRational, combine, restrict, spread, term_at, zero
from seqchain.spaceable import build_basis, certify_combination_outside
from seqchain.spaces import C0, CN0, HD, LINF, AINF, adjacent_pairs, cap_lp, lp, metric_bound
from seqchain.supports import AllNaturals, Arith, DyadicRow, ExplicitFinite, PowersOfTwo
from seqchain.witness import make_witness

F = Fraction


# -- pairwise disjoint supports ----------------------------------------------


def test_disjoint_support_first_rows():
    assert [disjoint_support(1).nth(k) for k in range(1, 5)] == [0, 2, 4, 6]
    assert [disjoint_support(2).nth(k) for k in range(1, 5)] == [1, 5, 9, 13]


def test_disjoint_rows_cover_and_never_overlap():
    owner = {}
    for j in range(1, 4):
        row = disjoint_support(j)
        for n in range(1001):
            if row.member(n):
                assert n not in owner
                owner[n] = j
    missing = set(range(1001)) - set(owner)
    # whatever rows 1..3 miss belongs to deeper rows
    assert all(disjoint_support(4).member(n) or (n + 1) % 8 == 0 for n in missing)


# -- enumeration ----------------------------------------------------------------


def _cw_index(q: Fraction) -> int:
    num, den = q.numerator, q.denominator
    bits = []
    while (num, den) != (1, 1):
        if num > den:
            bits.append("1")
            num -= den
        else:
            bits.append("0")
            den -= num
    return int("1" + "".join(reversed(bits)), 2)


def _encode_rational(q: Fraction) -> int:
    if q == 0:
        return 0
    if q > 0:
        return 2 * _cw_index(q) - 1
    return 2 * _cw_index(-q)


def _pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def _encode_value(re: Fraction, im: Fraction) -> int:
    return _pair(_encode_rational(re), _encode_rational(im))


def _encode_list(items: list[int]) -> int:
    code = 0
    for head in reversed(items):
        code = _pair(head, code) + 1
    return code


def encode_rational_c00(seq: FiniteRational) -> int:
    """Inverse of enumerate_rational_c00: the Calkin-Wilf index of each
    rational, Cantor pairs for values and lists."""
    if not seq.entries:
        return 1
    top = seq.max_index
    dense = [seq.entries.get(n, (F(0), F(0))) for n in range(top + 1)]
    last = _encode_value(*dense[-1])
    prefix = _encode_list([_encode_value(re, im) for re, im in dense[:-1]])
    return _pair(prefix, last - 1) + 2


def test_enumeration_starts_with_zero_sequence():
    assert enumerate_rational_c00(1).entries == {}


def test_enumeration_roundtrip_10k():
    for j in range(1, 10_001):
        assert encode_rational_c00(enumerate_rational_c00(j)) == j


def test_enumeration_structural_properties():
    rng = random.Random(99)
    for _ in range(1000):
        j = rng.randint(1, 10**9)
        x = enumerate_rational_c00(j)
        assert isinstance(x, FiniteRational)
        for n, (re, im) in x.entries.items():
            assert n >= 0 and isinstance(re, Fraction) and isinstance(im, Fraction)


def test_enumeration_hits_chosen_points():
    targets = [
        FiniteRational({}),
        FiniteRational({0: F(1)}),
        FiniteRational({0: (F(-2, 3), F(1, 7)), 4: F(5)}),
        FiniteRational({11: (F(0), F(-9, 2))}),
    ]
    for t in targets:
        j = encode_rational_c00(t)
        assert enumerate_rational_c00(j).entries == t.entries


# -- dense family elements --------------------------------------------------------


def test_first_element_is_scaled_witness():
    el = dense_family_element(1, C0, lp(1), BUDGET, PREC)
    assert el.x.entries == {}
    mb = metric_bound(C0, el.f, el.x, BUDGET, PREC)
    assert mb.upper < 1


@pytest.mark.parametrize("pair", [(lp(1), C0), (AINF, lp(1)), (HD, CN0), (C0, CN0)],
                         ids=lambda p: f"{p[0]}<{p[1]}")
def test_elements_stay_close_to_their_rational_anchor(pair):
    inner, outer = pair
    for j in range(1, 9):
        el = dense_family_element(j, outer, inner, BUDGET, PREC)
        mb = metric_bound(outer, el.f, el.x, BUDGET, PREC)
        assert mb.upper < F(1, j), (str(outer), j, mb)


def test_element_with_empty_tail_head():
    # the row-6 witness has no support point <= the smallest cutoffs, so its
    # l^2 tail is asked for the whole sequence (base cutoff N = -1)
    el = dense_family_element(6, lp(2), cap_lp(1), BUDGET, PREC)
    mb = metric_bound(lp(2), el.f, el.x, BUDGET, PREC)
    assert mb.upper is not None and mb.upper < F(1, 6)


def test_gap_cap_lp_tail_total_on_empty_head():
    seq = gap_cap_lp(F(1), F(2))
    for q in (F(2), F(13, 8)):
        # N = -1 asks for the whole sequence: the n = 0 term (value 1) plus
        # the N = 0 tail
        assert seq.tail_majorant(-1, q, PREC) >= 1 + seq.tail_majorant(0, q, PREC)
    # row 3 starts at index 3, so a spread cut at N = 2 needs the base's N = -1
    row = spread(seq, DyadicRow(3))
    assert row.tail_majorant(2, F(2), PREC) == seq.tail_majorant(-1, F(2), PREC)


def test_element_witness_lives_on_its_row():
    el = dense_family_element(3, CN0, HD, BUDGET, PREC)
    row = disjoint_support(3)
    for n in range(100):
        if not row.member(n):
            assert el.witness.seq.term(n, 8).is_exact_zero


def test_linf_outer_excluded():
    with pytest.raises(UnsupportedOuter):
        dense_family_element(1, LINF, C0, BUDGET, PREC)
    with pytest.raises(UnsupportedOuter):
        approximate_with_avoider(zero(), F(1), LINF, C0, BUDGET, PREC)


def test_non_strict_pair_rejected():
    with pytest.raises(NotStrictPair):
        dense_family_element(1, lp(1), C0, BUDGET, PREC)


# -- escape certificates -----------------------------------------------------------


def _elements(pair, count):
    inner, outer = pair
    return [dense_family_element(j, outer, inner, BUDGET, PREC) for j in range(1, count + 1)]


def test_single_element_certificate():
    els = _elements((lp(1), C0), 1)
    cert = certify_outside([1], els)
    assert cert.j0 == 1 and cert.scale.is_exact
    f = combine([1], [els[0].f])
    assert check_outside_certificate(f, cert, samples=3, prec=PREC)


def test_certificate_skips_zero_coefficients():
    els = _elements((lp(1), C0), 2)
    t = [0, (F(2), F(1))]
    cert = certify_outside(t, els)
    assert cert.j0 == 2
    assert cert.scale.re_lo == 2 * els[1].scale and cert.scale.im_lo == els[1].scale
    g = combine(t, [e.f for e in els])
    assert check_outside_certificate(g, cert, samples=3, prec=PREC)


def test_all_zero_coefficients_rejected():
    els = _elements((lp(1), C0), 2)
    with pytest.raises(AllZeroCoefficients):
        certify_outside([0, 0], els)


def test_coefficient_arity_checked():
    els = _elements((lp(1), C0), 2)
    with pytest.raises(LengthMismatch):
        certify_outside([1], els)


def test_float_coefficients_rejected_as_combine_rejects_them():
    els = _elements((lp(1), C0), 2)
    for coeffs in ([0.1, 0], [(F(1), 0.5), 0]):
        with pytest.raises(TypeError, match="exact rationals, not floats"):
            certify_outside(coeffs, els)
        with pytest.raises(TypeError, match="exact rationals, not floats"):
            combine(coeffs, [e.f for e in els])
    # every exact spelling of one coefficient list gives one certificate
    want = certify_outside([(F(1, 3), F(0)), (F(0), F(0))], els).describe()
    assert want["scale"]["re"] == [format_rational(els[0].scale / 3)] * 2
    for coeffs in ([F(1, 3), 0], [(F(1, 3), 0), 0], ["1/3", F(0)]):
        assert certify_outside(coeffs, els).describe() == want


def test_cutoff_clears_every_anchor():
    els = _elements((lp(1), C0), 3)
    cert = certify_outside([1, 1, 1], els)
    assert cert.cutoff == 1 + max(e.x.max_index for e in els)


# each forgery leaves the row identity and the out-certificate true, so
# only the check of the forged field can reject it: the witness of lp:1 in
# c0 is certifiably outside lp:1/2 too
FORGERIES = {
    "scale-holds-zero": lambda c: replace(
        c, scale=ComplexInterval.from_real_bounds(-c.scale.re_hi, c.scale.re_hi)
    ),
    "out-cert-of-another-space": lambda c: replace(
        c,
        witness=replace(
            c.witness, out_cert=classify(c.witness.seq, lp(F(1, 2)), BUDGET, PREC).cert
        ),
    ),
}


@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES.keys())
def test_check_rejects_forged_escape_certificate(forge):
    els = _elements((lp(1), C0), 3)
    cert = certify_outside([1, 0, 0], els)
    g = combine([1, 0, 0], [e.f for e in els])
    assert check_outside_certificate(g, cert, samples=3, prec=PREC)
    assert not check_outside_certificate(g, forge(cert), samples=3, prec=PREC)


@pytest.mark.parametrize("pair", [(cap_lp(1), lp(2)), (lp(2), cap_lp(2)), (AINF, cap_lp(0))],
                         ids=lambda p: f"{p[0]}<{p[1]}")
def test_a_moved_scale_is_rejected_at_every_sample_count(pair):
    # a scale moved by a relative 2**-(3 prec / 2) misses the exact witness
    # coefficient, so the row identity fails whatever the sample count; a
    # point check at prec alone once accepted it on these irrational terms
    inner, outer = pair
    res = approximate_with_avoider(FiniteRational({0: F(1)}), F(1), outer, inner, BUDGET, PREC)
    cert = res.certificate
    moved = cert.scale.re_lo * (1 + F(1, 1 << (3 * PREC // 2)))
    forged = replace(cert, scale=ComplexInterval.exact(moved))
    with pytest.raises(SeqchainError, match="lies outside the scale"):
        escape_certificate(res.f, forged.j0, forged.witness, forged.scale, forged.cutoff)
    for samples in range(1, 51):
        assert not check_outside_certificate(res.f, forged, samples, PREC), samples
    assert check_outside_certificate(res.f, cert, 50, PREC)


def test_random_rational_combinations_certify():
    rng = random.Random(42)
    els = _elements((lp(1), C0), 5)
    for _ in range(50):
        t = [
            (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            for _ in range(5)
        ]
        if all(re == 0 and im == 0 for re, im in t):
            t[rng.randrange(5)] = (F(1), F(0))
        cert = certify_outside(t, els)
        g = combine(t, [e.f for e in els])
        assert check_outside_certificate(g, cert, samples=2, prec=PREC)


def test_check_rejects_mismatched_combination():
    els = _elements((lp(1), C0), 2)
    cert = certify_outside([1, 0], els)
    other = combine([0, 1], [e.f for e in els])  # lives on row 2, cert checks row 1
    assert not check_outside_certificate(other, cert, samples=3, prec=PREC)


# -- the row identity proved from support hints -------------------------------------


def _build_and_check_reject(f, cert):
    with pytest.raises(SeqchainError, match="row identity not proved"):
        escape_certificate(f, cert.j0, cert.witness, cert.scale, cert.cutoff)
    assert not check_outside_certificate(f, cert, samples=50, prec=PREC)
    # the former point check passes it at all 50 points
    assert point_check_failure(f, cert, row_points(cert), PREC) is None


def test_a_finite_copy_of_the_witness_at_the_checked_points_is_rejected():
    # the copy agrees with scale * witness at the first 50 row points past
    # the cutoff, so a point check there passes it, yet it is finitely
    # supported: in lp:1
    els = _elements((lp(1), C0), 2)
    cert = certify_outside([1, 0], els)
    c, w = cert.scale.re_lo, cert.witness.seq
    fake = FiniteRational({n: c * w.term(n, 4 * PREC).re_lo for n in row_points(cert)})
    assert isinstance(classify(fake, lp(1), BUDGET, PREC), CertifiedIn)
    _build_and_check_reject(fake, cert)


def test_a_part_whose_hint_meets_the_row_past_the_cutoff_is_rejected():
    # the spread is zero on the row below 1000, past the first 50 row points
    els = _elements((lp(1), C0), 2)
    cert = certify_outside([1, 0], els)
    stray = spread(restrict(nat(), Arith(1000, 2)), Arith(0, 1))
    g = combine([1, 0, 1], [e.f for e in els] + [stray])
    assert max(row_points(cert)) < 1000 and not g.term(1000, PREC).is_exact_zero
    _build_and_check_reject(g, cert)
    # the same part with a cancelling copy, or a zero coefficient, is placed
    for t in ([1, 0, 1, -1], [1, 0, 0, 0]):
        g = combine(t, [e.f for e in els] + [stray, stray])
        assert check_outside_certificate(g, cert, samples=3, prec=PREC)


def test_a_part_on_a_disjoint_progression_is_placed_off_the_row():
    # the odd numbers miss row 1, the evens: their starts differ mod gcd(2, 2)
    w = make_witness(lp(1), C0, DyadicRow(1), BUDGET, PREC)
    f = combine([2, 1], [w.seq, spread(nat(), Arith(1, 2))])
    cert = escape_certificate(f, 1, w, ComplexInterval.exact(2), 0)
    assert check_outside_certificate(f, cert, samples=3, prec=PREC)


@pytest.mark.parametrize("pair", adjacent_pairs(), ids=lambda p: f"{p[0]}<{p[1]}")
def test_a_proved_row_identity_passes_the_point_check_at_every_recorded_point(pair):
    inner, outer = pair
    basis = build_basis(inner, outer, 3, BUDGET, PREC)
    seqs = [basis.elements[j].seq for j in (1, 2, 3)]
    certs = []
    for t in ([(F(1), F(1)), (F(-2), F(0)), 0], [0, (F(3), F(-1)), (F(1, 2), F(0))]):
        f = combine(t, seqs)
        certs.append((f, certify_combination_outside(f, basis, [1, 2, 3], BUDGET, PREC)))
    if outer != LINF:
        target = FiniteRational({0: F(1), 3: (F(0), F(-1, 2))})
        res = approximate_with_avoider(target, F(1), outer, inner, BUDGET, PREC)
        certs.append((res.f, res.certificate))
    # the proof implies the former point check at the 50 row points it read
    for f, cert in certs:
        assert point_check_failure(f, cert, row_points(cert), PREC) is None


def test_row_parts_flattens_and_keeps_only_what_may_meet_the_row():
    # the anchors are x_1 = 0, x_2 = e_0 and x_3 = e_1, below the cutoff 2
    els = _elements((lp(1), C0), 3)
    g = combine([(F(2), F(1)), 3, 5], [e.f for e in els])
    (w1, c1), (w2, c2) = [(e.witness.seq.spec_key(), e.scale) for e in els[:2]]
    assert row_parts(g, DyadicRow(1), 2) == {w1: (2 * c1, c1)}
    assert row_parts(g, DyadicRow(2), 2) == {w2: (3 * c2, F(0))}
    # from index 0 on, x_2 meets row 1 and x_3 meets row 2
    assert row_parts(g, DyadicRow(1), 0) == {w1: (2 * c1, c1), els[1].x.spec_key(): (F(3), F(0))}
    assert row_parts(g, DyadicRow(2), 0) == {w2: (3 * c2, F(0)), els[2].x.spec_key(): (F(5), F(0))}
    assert row_parts(combine([1, -1], [g, g]), DyadicRow(1), 0) == {}


def _ref_row_parts(f, row, cutoff):
    """row_parts by the product formula: every nested coefficient is the
    product of the coefficients on its path, the unit ones included."""

    def expand(re, im, part):
        if isinstance(part, Combine):
            for (c_re, c_im), base in zip(part.coeffs, part.bases):
                yield from expand(re * c_re - im * c_im, re * c_im + im * c_re, base)
        else:
            yield re, im, part

    parts = {}
    for re, im, part in expand(F(1), F(0), f):
        hint = part.support_hint
        if (re or im) and not (hint is not None and hint.misses(row, cutoff)):
            s_re, s_im = parts.get(part.spec_key(), (F(0), F(0)))
            parts[part.spec_key()] = (s_re + re, s_im + im)
    return {key: c for key, c in parts.items() if c != (0, 0)}


def test_row_parts_of_nested_and_unit_coefficients_equal_the_product_formula():
    leaves = [
        spread(nat(), DyadicRow(1)),
        spread(nat(), DyadicRow(2)),
        spread(prop28(), DyadicRow(1)),
        FiniteRational({0: 1, 3: F(1, 2)}),
        nat(),  # no support hint: meets every row
    ]
    units = [1, (1, 0), (F(1), F(0))]
    others = [0, -1, (0, 1), (2, -3), (F(1, 2), 1), (F(-1), F(0))]
    rng = random.Random("row-parts")

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        width = rng.randint(1, 3)
        coeffs = [rng.choice(units if rng.random() < 0.5 else others) for _ in range(width)]
        return combine(coeffs, [tree(depth - 1) for _ in range(width)])

    unit_nested = 0
    for _ in range(60):
        f = tree(3)
        if isinstance(f, Combine) and any(isinstance(b, Combine) for b in f.bases):
            unit_nested += 1
        for j in (1, 2, 3):
            for cutoff in (0, 2, 9):
                assert row_parts(f, DyadicRow(j), cutoff) == _ref_row_parts(f, DyadicRow(j), cutoff)
    assert unit_nested >= 10
    # a unit combination of unit combinations keeps each coefficient as given
    a, b = leaves[0], leaves[2]
    inner = combine([(F(2), F(-1)), F(1, 3)], [a, b])
    f = combine([1], [combine([(1, 0)], [inner])])
    assert row_parts(f, DyadicRow(1), 0) == {a.spec_key(): (2, -1), b.spec_key(): (F(1, 3), 0)}
    assert row_parts(combine([1, -1], [f, inner]), DyadicRow(1), 0) == {}


def test_every_miss_rule_is_sound_and_fires():
    hints = [
        ExplicitFinite([0, 1, 5, 6, 40]),
        DyadicRow(2),
        restrict(nat(), DyadicRow(1)).support_hint,  # the mask misses
        restrict(spread(nat(), DyadicRow(2)), Arith(0, 1)).support_hint,  # the base misses
        combine([1, 1], [spread(nat(), DyadicRow(2)), FiniteRational({3: 1})]).support_hint,
        rem29(DyadicRow(3)).support_hint,
        Arith(1, 2),  # the odd numbers: their start differs from row 1's mod gcd 2
        Arith(0, 3),  # meets every row: the gcd of its step and a row's is 1
    ]
    missed = set()
    for i, hint in enumerate(hints):
        for row in (DyadicRow(1), DyadicRow(2), DyadicRow(3)):
            for cutoff in (0, 2, 6, 41):
                if hint.misses(row, cutoff):
                    missed.add(i)
                    assert not any(hint.member(n) for n in range(cutoff, 600) if row.member(n))
    assert missed == set(range(len(hints) - 1))


def test_every_within_rule_is_sound_and_fires():
    hints = [
        ExplicitFinite([0, 2, 6, 40]),
        DyadicRow(2),  # no rule of its own: within a set of its spec
        restrict(nat(), DyadicRow(1)).support_hint,  # the mask is within
        restrict(spread(nat(), DyadicRow(2)), Arith(0, 1)).support_hint,  # the base is within
        combine([1, 1], [spread(nat(), DyadicRow(2)), FiniteRational({5: 1})]).support_hint,
        rem29(DyadicRow(3)).support_hint,
        PowersOfTwo(),  # within none of the sets below
    ]
    sets = [DyadicRow(1), DyadicRow(2), DyadicRow(3), Arith(0, 2), AllNaturals()]
    within = set()
    for hint in hints:
        for other in sets:
            if hint.within(other):
                within.add(type(hint).__name__)
                assert all(other.member(n) for n in range(600) if hint.member(n))
    assert within == {type(h).__name__ for h in hints[:-1]}
    # a union is within only when every member is, a filter when either side is
    stray = combine([1, 1], [spread(nat(), DyadicRow(2)), FiniteRational({3: 1})])
    assert not stray.support_hint.within(DyadicRow(2))
    assert not restrict(nat(), Arith(0, 1)).support_hint.within(DyadicRow(1))


# -- forged witnesses: the witness is what its certificate says it is ---------------


def test_a_witness_swapped_for_a_sequence_inside_the_inner_space_is_rejected():
    els = _elements((lp(1), C0), 1)
    cert = certify_outside([1], els)
    w = cert.witness
    forged = replace(cert, witness=replace(w, seq=prop28()))
    f = prop28()
    assert isinstance(classify(f, lp(1), BUDGET, PREC), CertifiedIn)
    for samples in (1, 3, 8, 50):
        assert not check_outside_certificate(f, forged, samples, PREC)
        assert not check_certificate(f, CertifiedOut(w.out_cert), samples, PREC)


def test_a_witness_whose_hint_leaves_its_row_is_rejected():
    # the spread over all naturals has the row witness's base, hence its
    # divergence blocks, so its out-certificate holds and its spec key is
    # the certificate's own: only the hint being within the row tells
    els = _elements((lp(1), C0), 1)
    cert = certify_outside([1], els)
    w = cert.witness
    wide = replace(w, seq=spread(w.seq.base, Arith(0, 1)))
    assert wide.seq.lp_divergence(F(1)) == w.seq.lp_divergence(F(1))
    assert wide.out_cert_holds(3, PREC)
    forged = replace(cert, witness=wide)
    f = combine([1, cert.scale.re_lo], [els[0].x, wide.seq])
    assert row_parts(f, w.support, cert.cutoff) == {wide.seq.spec_key(): (cert.scale.re_lo, F(0))}
    for samples in (1, 3, 50):
        assert not check_outside_certificate(f, forged, samples, PREC)
    with pytest.raises(SeqchainError, match="the witness may meet indices off row 1"):
        escape_certificate(f, 1, wide, cert.scale, cert.cutoff)


# -- approximation -----------------------------------------------------------------


def test_approximate_zero_target():
    res = approximate_with_avoider(zero(), F(1), C0, lp(1), BUDGET, PREC)
    assert res.distance_upper < 1
    assert check_outside_certificate(res.f, res.certificate, 3, PREC)


def test_approximate_exact_rational_target():
    target = FiniteRational({0: F(1)})
    res = approximate_with_avoider(target, F(1, 4), C0, lp(1), BUDGET, PREC)
    assert res.distance_upper < F(1, 4)
    # the anchor is the target itself; f differs only by the scaled witness,
    # so the distance is realized by the witness part alone
    iv = term_at(res.f, 0, 30)
    assert iv.re_lo >= 1 and iv.re_hi <= 1 + F(1, 4)


def test_approximate_harmonic_type_target_via_truncation():
    target = gap_lp_cap(F(1))  # ~ 1/(n log n) decay: vanishing, not summable
    res = approximate_with_avoider(target, F(1, 32), C0, lp(1), BUDGET, PREC)
    assert res.distance_upper < F(1, 32)
    assert check_outside_certificate(res.f, res.certificate, 3, PREC)


def test_approximate_requires_positive_epsilon():
    with pytest.raises(ValueError):
        approximate_with_avoider(zero(), F(0), C0, lp(1), BUDGET, PREC)
