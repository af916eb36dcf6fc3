import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUDGET, PREC, catalog, random_finite, subset_of
from seqchain import families, intervals
from seqchain.errors import FiniteSupportSet, LengthMismatch
from seqchain.families import nat, prop28
from seqchain.generic import dense_family_element
from seqchain.diagnose import CertifiedIn, classify
from seqchain.intervals import Q1, ComplexInterval, DiscSum, PowSum, pow_bounds, sqrt_bounds
from seqchain.sequences import (
    _EXACT_POWER_BITS,
    Combine,
    FamilySeq,
    FiniteRational,
    Restrict,
    Sequence,
    Spread,
    combine,
    restrict,
    spread,
    term_at,
    unit,
    _radius_power_upper,
    zero,
)
from seqchain.serialize import sequence_from_spec
from seqchain.spaceable import build_basis
from seqchain.spaces import HD, adjacent_pairs, cap_lp, lp
from seqchain.supports import (
    AllNaturals,
    Arith,
    DyadicRow,
    ExplicitFinite,
    PowersOfTwo,
)
from test_intervals import _ref_pow_bounds

F = Fraction


# -- term oracle ----------------------------------------------------------------


def test_zero_term_exact():
    assert term_at(zero(), 5, 10).is_exact_zero


def test_prop28_term_exact_at_square_power():
    iv = term_at(prop28(), 4, 20)
    assert iv.is_exact and iv.re_lo == F(1, 2) and iv.im_lo == 0


def test_nat_term_exact_at_prec_zero():
    iv = term_at(nat(), 7, 0)
    assert iv.is_exact and iv.re_lo == 7


CATALOG = list(catalog().items())

# a combination over a basis with irrational witness terms, and a dense-family
# element x + c y: the escape check relies on their terms nesting too
_BASIS = build_basis(lp(2), cap_lp(2), 3, BUDGET, PREC)
NESTING = CATALOG + [
    (
        "basis-combination",
        combine(
            [(F(1), F(1)), (F(-2), F(0)), (F(1, 3), F(2, 5))],
            [_BASIS.elements[j].seq for j in (1, 2, 3)],
        ),
    ),
    ("dense-family-f", dense_family_element(3, lp(2), cap_lp(1), BUDGET, PREC).f),
]


@pytest.mark.parametrize("name,seq", NESTING, ids=[n for n, _ in NESTING])
def test_term_determinism_and_nesting(name, seq):
    rng = random.Random(name)
    for _ in range(20):
        n = rng.randint(0, 100)
        prec = rng.randint(4, 60)
        first = seq.term(n, prec)
        again = seq.term(n, prec)
        assert first == again
        finer = seq.term(n, prec + 1)
        assert subset_of(finer, first)
        assert first.width <= F(1, 1 << prec)


@pytest.mark.parametrize("name,seq", CATALOG, ids=[n for n, _ in CATALOG])
def test_term_width_contract(name, seq):
    for n in (0, 1, 2, 5, 17, 64):
        for prec in (8, 33, 80):
            assert seq.term(n, prec).width <= F(1, 1 << prec)


# -- restrict ---------------------------------------------------------------------


def test_restrict_zero_is_zero():
    masked = restrict(zero(), Arith(0, 2))
    assert all(term_at(masked, n, 10).is_exact_zero for n in range(10))


def test_restrict_pointwise_mask():
    masked = restrict(nat(), Arith(0, 2))
    assert term_at(masked, 3, 10).is_exact_zero
    assert term_at(masked, 4, 10).re_lo == 4


def test_restrict_idempotent():
    rng = random.Random(7)
    evens = Arith(0, 2)
    for _ in range(20):
        a = random_finite(rng)
        once = restrict(a, evens)
        twice = restrict(once, evens)
        for n in range(30):
            assert term_at(once, n, 20) == term_at(twice, n, 20)


def test_restrict_tails_dominated():
    rng = random.Random(13)
    evens = Arith(0, 2)
    for _ in range(20):
        a = random_finite(rng)
        masked = restrict(a, evens)
        for N in (0, 3, 9):
            assert masked.tail_majorant(N, F(1), 40) <= a.tail_majorant(N, F(1), 40)
            assert masked.sup_tail(N, 40) <= a.sup_tail(N, 40)
    gap = prop28()
    window = restrict(gap, Arith(0, 2))
    assert window.tail_majorant(4, F(2), 40) == gap.tail_majorant(4, F(2), 40)


def test_restrict_complement_recomposes():
    rng = random.Random(11)
    evens, odds = Arith(0, 2), Arith(1, 2)
    for _ in range(20):
        a = random_finite(rng)
        left = restrict(a, evens)
        right = restrict(a, odds)
        back = combine([1, 1], [left, right])
        for n in range(30):
            assert term_at(back, n, 20) == term_at(a, n, 20)


# -- spread -----------------------------------------------------------------------


def test_spread_identity_enumeration_is_pointwise_equal():
    sp = spread(nat(), AllNaturals())
    for n in range(40):
        assert term_at(sp, n, 20) == term_at(nat(), n, 20)


def test_spread_places_kth_term_on_kth_point():
    base = FiniteRational({0: F(1), 1: F(1)})
    target = spread(base, Arith(2, 3))  # support 2, 5, 8, ...
    assert term_at(target, 2, 10).re_lo == 1
    assert term_at(target, 5, 10).re_lo == 1
    assert all(term_at(target, n, 10).is_exact_zero for n in (0, 1, 3, 4, 6, 7, 8))


def test_spread_requires_infinite_support():
    with pytest.raises(FiniteSupportSet):
        spread(nat(), ExplicitFinite([2, 5]))


def test_spread_preserves_l1_sum_exactly():
    rng = random.Random(23)
    for _ in range(30):
        a = random_finite(rng, real_only=True)
        sp = spread(a, Arith(1, 3))
        before = sum(abs(re) for re, _ in a.entries.values())
        after = sum(abs(re) for re, _ in sp.entries.values())
        assert before == after


def test_spread_preserves_l2_sum_exactly():
    rng = random.Random(29)
    for _ in range(30):
        a = random_finite(rng)
        sp = spread(a, Arith(0, 5))
        before = sum(re * re + im * im for re, im in a.entries.values())
        after = sum(re * re + im * im for re, im in sp.entries.values())
        assert before == after


def test_spread_tail_transport_on_family():
    y = prop28()
    sp = spread(y, Arith(0, 2))
    # mass is preserved, so any certified tail at the transplanted cut is
    # still a bound on the full remaining mass
    full = y.tail_majorant(0, F(2), 60)
    assert sp.tail_majorant(0, F(2), 60) <= full + F(1, 1 << 40)


def test_combine_tail_sound_on_family_inputs():
    # exact remaining mass of the doubled sqrt family is computable in
    # closed form at exponent 2, lower-boundable by partial sums at 3
    y = prop28()
    doubled = combine([2], [y])
    k0 = 5
    N = (1 << k0) - 1  # indices > N start at the power 2**k0
    exact_l2 = 4 * sum(F(1, 1 << k) for k in range(k0, 200))  # within 2**-190 of the tail
    assert doubled.tail_majorant(N, F(2), 60) >= exact_l2

    partial_l3 = F(0)
    for k in range(k0, 60):
        sq = y.term(1 << k, 80).abs_sq_bounds()[0]
        partial_l3 += 8 * pow_bounds(sq, F(3, 2), 80)[0]
    assert doubled.tail_majorant(N, F(3), 60) >= partial_l3


def test_combine_tail_two_summands_triangle():
    a, b = prop28(), nat()
    mixed = combine([1, (F(0), F(2))], [a, a])
    brute = F(0)
    for k in range(3, 60):
        sq = a.term(1 << k, 80).abs_sq_bounds()[0]
        # per-term moduli are sqrt(5)|y_n| >= |y_n|, so this undercounts
        brute += pow_bounds(sq, F(1, 2), 80)[0]
    assert mixed.tail_majorant(7, F(1), 60) >= brute
    assert b.tail_majorant(7, F(1), 60) is None
    assert combine([1, 1], [a, b]).tail_majorant(7, F(1), 60) is None


# -- disc tails of the families and of combinations ------------------------------

# families whose terms are <= 1 in modulus: past N the disc tail is the
# geometric r**n0 / (1 - r) from the first index n0 > N that can be nonzero
_GEOMETRIC_DISC = {
    "prop28": prop28(),
    "rem29-evens": families.rem29(Arith(0, 2)),
    "rem29-pow2": families.rem29(PowersOfTwo()),
    "const-one": families.const_one(),
    "gap-lp-cap": families.gap_lp_cap(F(1)),
    "gap-cap-lp": families.gap_cap_lp(F(0), F(1)),
    "gap-cap-c0": families.gap_cap_c0(F(2)),
}


@pytest.mark.parametrize("name", sorted(_GEOMETRIC_DISC))
def test_family_disc_tails_are_the_geometric_tail_past_the_first_nonzero(name):
    seq = _GEOMETRIC_DISC[name]
    for N in (-1, 0, 5, 4095):
        n0 = next(n for n in count(N + 1) if not seq.term(n, 8).is_exact_zero)
        for k in range(1, 73):
            r = F(k, k + 1)
            assert F(*seq.disc_tail(N, r, PREC)) == r ** n0 / (1 - r), (N, k)


@pytest.mark.parametrize("name", sorted(_GEOMETRIC_DISC) + ["nat"])
def test_family_disc_tails_take_any_exact_radius_in_the_open_unit_interval(name):
    seq = _GEOMETRIC_DISC.get(name) or nat()
    # each radius form on its own freshly parsed node, so that no read is
    # answered from a memo entry the other form made
    by_float, by_fraction = (sequence_from_spec(seq.spec()) for _ in range(2))
    for N in (-1, 0, 9):
        for r in (0.5, 0.875, Decimal("0.3")):
            assert F(*by_float.disc_tail(N, r, PREC)) == F(*by_fraction.disc_tail(N, F(r), PREC)), (N, r)
        for r in (F(0), F(1), F(-1, 2), F(3, 2), 0.0, 1.5):
            with pytest.raises(ValueError):
                seq.disc_tail(N, r, PREC)


def _abs_upper(re, im, prec):
    """Upper bound on |re + i im|: exact on an axis, else the square root's."""
    if im == 0:
        return abs(re)
    if re == 0:
        return abs(im)
    return sqrt_bounds(re * re + im * im, prec)[1]


def _ref_weighted(combo, tails, prec):
    total = F(0)
    for (re, im), t in zip(combo.coeffs, tails):
        total += _abs_upper(re, im, prec) * t
    return total


def test_combine_tails_are_weighted_sums_at_each_precision():
    # |1 + i| and |1/3 - 2i/7| are irrational, so their bounds move with the
    # precision; 1 and (3 + 4i)/5 have modulus exactly 1
    coeffs = [(F(1), F(1)), 1, (F(3, 5), F(4, 5)), (F(1, 3), F(-2, 7))]
    bases = [
        families.const_one(),
        FiniteRational({3: F(2), 40: (F(1, 2), F(1, 3))}),
        families.gap_cap_c0(F(2)),
        FiniteRational({0: F(-5, 4), 9: (F(0), F(7))}),
    ]
    combo = combine(coeffs, bases)
    finite = Combine(coeffs[1::2], bases[1::2])  # both bases have poly tails
    for prec in (8, 64, 8):
        for N in (0, 5, 30, 45):  # past 40 both finite tails are exact zeros
            r = F(5, 6)
            assert F(*combo.disc_tail(N, r, prec)) == _ref_weighted(
                combo, [F(*b.disc_tail(N, r, prec)) for b in bases], prec
            ), (prec, N)
            assert combo.sup_tail(N, prec) == _ref_weighted(
                combo, [b.sup_tail(N, prec) for b in bases], prec
            ), (prec, N)
            for k in (0, 2):
                assert finite.poly_sup_tail(N, k, prec) == _ref_weighted(
                    finite, [b.poly_sup_tail(N, k, prec) for b in finite.bases], prec
                ), (prec, N, k)
            p = F(3)
            root_sum = F(0)
            for (re, im), b in zip(finite.coeffs, finite.bases):
                t = b.tail_majorant(N, p, prec)
                root_sum += _abs_upper(re, im, prec) * pow_bounds(t, 1 / p, prec)[1]
            assert finite.tail_majorant(N, p, prec) == pow_bounds(root_sum, p, prec)[1]
    assert combo.poly_sup_tail(0, 1, 8) is None



def _counting_iroot(monkeypatch):
    calls = []
    real = intervals.iroot
    monkeypatch.setattr(intervals, "iroot", lambda n, k: calls.append(k) or real(n, k))
    return calls


def test_real_finite_entries_are_their_own_moduli(monkeypatch):
    # |re| is exact: no square is rooted back for a real entry
    entries = {n: F((-1) ** n * (2 * n + 1), 2 * n + 3) for n in range(10)}
    seq = FiniteRational(entries)
    calls = _counting_iroot(monkeypatch)
    got = (seq.sup_tail(-1, 64), seq.pos_sup_tail(0, 64),
           F(*seq.disc_tail(-1, F(1, 2), 64)), seq.poly_sup_tail(-1, 2, 64))
    assert calls == []
    moduli = [(n, abs(re)) for n, re in entries.items()]
    assert got == (
        max(m for _, m in moduli),
        max(m for _, m in moduli),
        _ref_disc_tail(seq, -1, F(1, 2), 64),
        max(F(n) ** 2 * m for n, m in moduli),
    )


@pytest.mark.parametrize("prec", [8, 64, 130])
def test_finite_moduli_of_mixed_entries_equal_the_rooted_squares(prec):
    entries = {0: F(-5, 4), 2: (F(1, 2), F(-1, 3)), 5: (F(0), F(7, 3)), 7: F(2, 9), 9: (F(3), F(4))}
    seq = FiniteRational(entries)
    for N in (-1, 0, 4, 8):
        ref = [(n, _ref_pow_bounds(re * re + im * im, F(1, 2), prec)[1])
               for n, (re, im) in seq.entries.items() if n > N]
        assert seq.sup_tail(N, prec) == max((m for _, m in ref), default=F(0))
        assert seq.poly_sup_tail(N, 3, prec) == max((F(n) ** 3 * m for n, m in ref), default=F(0))
    for K in range(6):
        rest = list(seq.entries.values())[K:]
        assert seq.pos_sup_tail(K, prec) == max(
            (_ref_pow_bounds(re * re + im * im, F(1, 2), prec)[1] for re, im in rest), default=F(0)
        )


@pytest.mark.parametrize("p", [F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(5, 7)])
def test_combine_weights_equal_the_rooted_squares(p):
    coeffs = [F(1), F(-1), (F(3, 5), F(4, 5)), (F(0), F(-1)), F(2, 3), F(-7, 5), F(4),
              (F(1, 3), F(-2, 7)), F(9, 4), F(-1, 8)]
    combo = Combine(coeffs, [families.const_one()] * len(coeffs))
    sqs = [re * re + im * im for re, im in combo.coeffs]
    for prec in (8, 64, 130):
        weights = combo._weights(prec, p)
        assert weights == [_ref_pow_bounds(q, p / 2, prec)[1] for q in sqs]
        assert [w is Q1 for w in weights] == [q == 1 for q in sqs]


# -- disc tails are integer pairs -------------------------------------------------

# the families whose disc tail is r**(N+1) / (1 - r): every term is <= 1
_UNIT_DISC_FAMILIES = ("const-one", "gap-lp-cap", "gap-cap-lp", "gap-cap-c0")


def _ref_disc_tail(seq, N, r, prec):
    """Reference copy of the reduced-``Fraction`` disc-tail formulas that the
    integer pairs replaced, node by node."""
    if isinstance(seq, FiniteRational):
        if N >= seq.max_index:
            return F(0)
        moduli = [(n, pow_bounds(re * re + im * im, F(1, 2), prec)[1])
                  for n, (re, im) in seq.entries.items() if n > N]
        return sum((m * _radius_power_upper(r, n, prec) for n, m in moduli), F(0))
    if isinstance(seq, FamilySeq):
        if seq.name == "nat":
            return r ** (N + 1) * ((N + 1) - N * r) / (1 - r) ** 2
        if seq.name == "prop28":
            n0 = 1 << max(1, N.bit_length())
        elif seq.name == "rem29":
            selection = seq.support_hint
            n0 = selection.nth(selection.rank_upto(N) + 1)
        elif seq.name in _UNIT_DISC_FAMILIES:
            n0 = N + 1
        else:
            return None
        return r ** n0 / (1 - r)
    if isinstance(seq, Spread):
        return _ref_disc_tail(seq.base, seq.support.rank_upto(N) - 1, r, prec)
    if isinstance(seq, Restrict):
        return _ref_disc_tail(seq.base, N, r, prec)
    assert isinstance(seq, Combine)
    total = F(0)
    for (re, im), base in zip(seq.coeffs, seq.bases):
        t = _ref_disc_tail(base, N, r, prec)
        if t is None:
            return None
        total += pow_bounds(re * re + im * im, F(1, 2), prec)[1] * t
    return total


def _disc_grid():
    """The catalog as is, spread onto three supports, restricted, combined
    with unit, complex and zero coefficients, and that combination nested."""
    for name, seq in sorted(catalog().items()):
        yield name, seq
        for label, support in (("arith", Arith(1, 3)), ("pow2", PowersOfTwo()), ("row", DyadicRow(2))):
            yield f"spread-{label}({name})", spread(seq, support)
        yield f"restrict({name})", restrict(seq, Arith(0, 2))
        combo = combine([1, -1, (F(1, 3), F(-2, 7)), 0], [seq, families.const_one(), seq, prop28()])
        yield f"combine({name})", combo
        yield f"nested({name})", combine(
            [(F(3, 5), F(4, 5)), F(1, 2)], [combo, spread(seq, DyadicRow(1))]
        )


_DISC_GRID = dict(_disc_grid())


@pytest.mark.parametrize("name", list(_DISC_GRID))
def test_disc_tail_pairs_equal_the_fraction_formulas(name):
    seq = _DISC_GRID[name]
    for N in (-1, 0, 5, 37, 200, 4095):
        for k in (1, 2, 7, 72):
            r = F(k, k + 1)
            pair, ref = seq.disc_tail(N, r, PREC), _ref_disc_tail(seq, N, r, PREC)
            if ref is None:
                assert pair is None, (N, k)
                continue
            num, den = pair
            assert den > 0 and F(num, den) == ref, (N, k)


@pytest.mark.parametrize("name", list(_DISC_GRID))
def test_disc_tail_pairs_bound_the_next_512_terms(name):
    # a tail is at least any finite stretch of the sum it bounds, here the
    # lower moduli of the 512 terms past N
    seq = _DISC_GRID[name]
    if seq.disc_tail(0, F(1, 2), PREC) is None:
        return
    lower = [(n, seq.term(n, 16).abs_bounds(16)[0]) for n in range(200 + 513)]
    for N in (-1, 0, 5, 37, 200):
        for r in (F(1, 2), F(7, 8), F(72, 73)):
            pair = seq.disc_tail(N, r, PREC)
            s_num, s_den = DiscSum(r).extend(lower[N + 1:N + 513]).pair
            t_num, t_den = pair
            assert t_num * s_den >= s_num * t_den, (N, r)


def _floor_grid(x):
    return (x.numerator << 128) // x.denominator


# lp exponents below, at and above 1, and a cap-lp row a + 1/k
_TAIL_EXPONENTS = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(25, 8)]


@pytest.mark.parametrize("name", list(_DISC_GRID))
def test_tail_majorants_bound_the_next_512_terms(name):
    # an lp tail is at least the 128-bit lower power sum of the 512 terms
    # past N; at N = -1 it is the whole bound an in-certificate records
    seq = _DISC_GRID[name]
    cases = [(N, p, seq.tail_majorant(N, p, PREC)) for p in _TAIL_EXPONENTS for N in (-1, 0, 5, 37, 200)]
    cases = [case for case in cases if case[2] is not None]
    if not cases:
        return
    ends = [seq.term(n, 128).modulus_bounds()[0] for n in range(200 + 513)]
    for p in {p for _, p, _ in cases}:
        # each term's 128-bit lower power floored onto the 2**-128 grid: the
        # sum of a slice stays a lower bound, over one denominator
        grid = [_floor_grid(PowSum(p, 128).extend((end,)).value) for end in ends]
        for N, q, tail in cases:
            if q == p:
                assert tail >= F(sum(grid[N + 1:N + 513]), 1 << 128), (N, p)


@pytest.mark.parametrize("name", list(_DISC_GRID))
def test_sup_and_position_tails_bound_the_next_terms(name):
    # the sup tail past N is at least the lower modulus of each of the 512
    # terms past N, and the position tail past K at least that of the terms
    # at the next 64 hint positions (fewer at the end of a finite hint)
    seq = _DISC_GRID[name]
    if seq.sup_tail(0, PREC) is not None:
        lower = [seq.term(n, 16).abs_bounds(16)[0] for n in range(200 + 513)]
        for N in (-1, 0, 5, 37, 200):
            assert seq.sup_tail(N, PREC) >= max(lower[N + 1:N + 513]), N
    if seq.pos_sup_tail(0, PREC) is not None:
        hint = seq.support_hint
        for K in (0, 1, 2, 16, 37):
            tail = seq.pos_sup_tail(K, PREC)
            for k in range(K + 1, K + 65):
                try:
                    n = hint.nth(k)
                except FiniteSupportSet:
                    break
                assert tail >= seq.term(n, 16).abs_bounds(16)[0], (K, k)


def test_many_spread_parts_on_one_row_keep_the_pairs_small():
    # 64 parts on dyadic row 3, each tail a pair over its own denominator:
    # the sum of the pairs must not grow past what one Fraction sum costs
    bases = [prop28(), families.rem29(Arith(1, 3)), families.const_one(), nat(),
             families.gap_lp_cap(F(1)), families.gap_cap_lp(F(0), F(1)), families.gap_cap_c0(F(2))]
    parts = [spread(bases[i % len(bases)], DyadicRow(3)) for i in range(64)]
    coeffs = [(F(1, i + 2), F(-1, i + 3)) if i % 3 else F(i + 1, 5) for i in range(64)]
    f = combine(coeffs, parts)
    start = time.process_time()
    verdict = classify(f, HD, BUDGET, PREC)
    assert time.process_time() - start < 1
    assert isinstance(verdict, CertifiedIn) and verdict.cert.shape == "disc-schedule"
    ref = tuple((F(k, k + 1), _ref_disc_tail(f, -1, F(k, k + 1), PREC)) for k in range(1, 9))
    assert verdict.cert.fields == (ref, PREC)


# -- combine ---------------------------------------------------------------------


def test_combine_empty_is_zero():
    c = combine([], [])
    assert all(term_at(c, n, 10).is_exact_zero for n in range(5))


def test_combine_scales_terms():
    c = combine([2], [nat()])
    assert term_at(c, 3, 20).re_lo == 6


def test_combine_duplicate_unit():
    c = combine([1, 1], [unit(0), unit(0)])
    assert term_at(c, 0, 20).re_lo == 2


def test_combine_length_mismatch():
    with pytest.raises(LengthMismatch):
        combine([1, 2], [zero()])


def test_combine_folds_finite_exactly():
    a = FiniteRational({0: (F(1), F(1))})
    b = FiniteRational({0: (F(0), F(1))})
    c = combine([(F(0), F(1)), 2], [a, b])  # i*(1+i) + 2*i = -1 + 3i
    assert isinstance(c, FiniteRational)
    assert c.entries[0] == (F(-1), F(3))


def test_combine_gaussian_rejects_floats():
    with pytest.raises(TypeError):
        combine([0.5], [zero()])


# -- tail oracle soundness on finite sequences ------------------------------------


@given(st.integers(min_value=0, max_value=2**32))
def test_tail_oracles_sound_on_finite(seed):
    rng = random.Random(seed)
    a = random_finite(rng)
    N = rng.randint(0, 14)
    prec = 40
    # brute force with outward-rounded per-term moduli
    brute_sq = [
        (n, re * re + im * im) for n, (re, im) in a.entries.items() if n > N
    ]
    for p in (F(1), F(2), F(1, 2)):
        bound = a.tail_majorant(N, p, prec)
        true_lower = sum((pow_bounds(sq, p / 2, prec)[0] for _, sq in brute_sq), F(0))
        assert bound >= true_lower >= 0
    sup_bound = a.sup_tail(N, prec)
    for _, sq in brute_sq:
        assert sup_bound >= sqrt_bounds(sq, prec)[0]
    if not brute_sq:
        assert a.tail_majorant(N, F(1), prec) == 0
        assert a.sup_tail(N, prec) == 0
        assert F(*a.disc_tail(N, F(1, 2), prec)) == 0
        assert a.poly_sup_tail(N, 3, prec) == 0


# entries over coprime odd denominators, perfect squares among them, so the
# exact part of the tail sum widens its lcm at almost every entry
_ODD_DEN_VALUES = st.one_of(
    st.builds(F, st.integers(-40, 40), st.sampled_from([1, 3, 5, 7, 9, 11, 13, 25, 27, 49])),
    st.builds(lambda r, s, sign: F(sign * r * r, s * s), st.integers(1, 12),
              st.sampled_from([1, 3, 5, 7, 11]), st.sampled_from([1, -1])),
)


@given(
    st.dictionaries(
        st.integers(0, 30),
        st.tuples(_ODD_DEN_VALUES, st.one_of(st.just(F(0)), _ODD_DEN_VALUES)),
        max_size=10,
    ),
    st.integers(-1, 31),
    st.sampled_from([F(1), F(2), F(3), F(3, 2), F(7, 3), F(1, 2), F(1, 3)]),
    st.integers(8, 96),
)
def test_finite_tail_majorant_equals_the_sum_of_reference_uppers(entries, N, p, prec):
    # one PowSum over real |re| ends and complex |z|**2 ends equals the
    # Fraction sum of the reference kernel's upper ends of |a_n|**2 at p/2
    a = FiniteRational(entries)
    ref = sum(
        (_ref_pow_bounds(re * re + im * im, p / 2, prec)[1]
         for n, (re, im) in a.entries.items() if n > N),
        F(0),
    )
    assert a.tail_majorant(N, p, prec) == ref


def test_support_indices_cover_nonzero_terms():
    for name, seq in CATALOG:
        idx = set(seq.support_hint.elements_upto(60))
        for n in range(61):
            if not seq.term(n, 12).is_exact_zero:
                assert n in idx, (name, n)


def test_spec_roundtrip_key_stable():
    # the key is the canonical JSON of the spec, made once per node
    checked = 0
    for name, seq in _hinted_nodes(catalog()):
        if "unhinted" in name:  # a test node without a spec
            continue
        key = seq.spec_key()
        assert key == json.dumps(seq.spec(), sort_keys=True, separators=(",", ":")), name
        assert seq.spec_key() is key, name
        checked += 1
    assert checked > 100


# -- support hints: a part whose hint misses n is an exact zero --------------------


class _Unhinted(Sequence):
    """a_n = 1/(n+1) - i/(n+2) at every n, with no support hint."""

    kind = "unhinted"

    def _term(self, n, prec):
        return ComplexInterval.exact(F(1, n + 1), F(-1, n + 2))


_HINT_SUPPORTS = {
    "all": AllNaturals(),
    "arith": Arith(1, 3),
    "powers-of-two": PowersOfTwo(),
    "dyadic-row": DyadicRow(2),
    "explicit": ExplicitFinite([0, 3, 7, 64, 300]),
}


def _hinted_nodes(cat=None):
    """Every catalog member, and its spread and restrict onto each support
    kind, and combinations of them; ``cat`` is a catalog of fresh nodes, or
    the shared ``CATALOG`` when None."""
    cat = dict(CATALOG) if cat is None else cat
    for name, seq in cat.items():
        yield name, seq
        for sname, support in _HINT_SUPPORTS.items():
            if not support.finite_flag:
                yield f"spread({name},{sname})", spread(seq, support)
            yield f"restrict({name},{sname})", restrict(seq, support)
    yield "restrict(unhinted,arith)", restrict(_Unhinted(), Arith(1, 3))
    yield from _combinations(cat).items()


def _combinations(cat):
    rows = [spread(seq, DyadicRow(j)) for j, seq in enumerate(
        [prop28(), nat(), families.gap_cap_lp(F(2), F(3)), families.const_one()], start=1
    )]
    return {
        # a spaceable basis: disjoint rows, so one part is live per index
        "basis-rows": Combine([F(3), (F(-1, 2), F(2)), F(1, 7), (F(0), F(-5))], rows),
        # parts that overlap on every row
        "overlapping": Combine(
            [F(1), F(-1, 3), (F(2), F(1))],
            [rows[0], restrict(cat["gap-cap-c0"], DyadicRow(1)), cat["finite"]],
        ),
        # a part with no hint is read at every index
        "with-unhinted": Combine([F(2), (F(1), F(1))], [rows[1], _Unhinted()]),
        "nested": Combine(
            [F(1), F(-2)],
            [Combine([F(1, 2), F(1)], rows[2:]), spread(cat["rem29-pow2"], Arith(0, 5))],
        ),
        # a zero coefficient on parts with irrational (wide) terms
        "zero-coefficient": Combine(
            [F(0), (F(1, 3), F(-2)), F(0)],
            [cat["gap-lp-cap-2"], rows[0], restrict(cat["prop28"], Arith(0, 2))],
        ),
    }


_COMBINATIONS = _combinations(dict(CATALOG))


# -- the l^p threshold of every node --------------------------------------------


_FAMILY_THRESHOLDS = {
    "prop28": F(0), "rem29-evens": F(0), "rem29-pow2": F(0), "nat": None,
    "nat-power": None, "nn-evens": None, "const-one": None, "gap-lp-cap-1": F(1),
    "gap-lp-cap-2": F(2), "gap-cap-lp-01": F(1, 2), "gap-cap-lp-12": F(3, 2),
    "gap-cap-c0": None,
}


def _ref_threshold(seq):
    if isinstance(seq, FiniteRational):
        return F(0)
    if seq.kind in ("spread", "restrict"):
        return _ref_threshold(seq.base)
    if seq.kind == "combine":
        ts = [_ref_threshold(b) for b in seq.bases]
        return None if any(t is None for t in ts) else max(ts)
    return seq.threshold if seq.kind == "family" else None


def test_threshold_node_rules():
    cat = dict(CATALOG)
    for name, t in _FAMILY_THRESHOLDS.items():
        assert cat[name].threshold == t, name
    assert zero().threshold == cat["finite"].threshold == 0
    assert _Unhinted().threshold is None
    g, h = cat["gap-cap-lp-01"], cat["gap-lp-cap-2"]
    assert Combine([F(1), (F(0), F(1))], [g, h]).threshold == 2
    assert Combine([F(1), F(-1)], [g, cat["finite"]]).threshold == F(1, 2)
    assert Combine([F(1), F(1)], [g, nat()]).threshold is None
    assert Combine([F(2), F(1)], [g, _Unhinted()]).threshold is None
    checked = 0
    for name, seq in _hinted_nodes():
        assert seq.threshold == _ref_threshold(seq), name
        checked += seq.kind != "family"
    assert checked > 100


def test_terms_outside_the_support_hint_are_exact_zeros():
    # Combine skips such parts unread; every node kind must honour this
    checked = 0
    for name, seq in _hinted_nodes():
        hint = seq.support_hint
        for n in range(301):
            if not hint.member(n):
                assert seq.term(n, PREC).is_exact_zero, (name, n)
                checked += 1
    assert checked > 10_000
    # a witness is zero off its support because its hint lies within it:
    # every basis witness on rows 1-5 of every adjacent pair, up to 4096
    for inner, outer in adjacent_pairs():
        for j, w in build_basis(inner, outer, 5, BUDGET, PREC).elements.items():
            hint, where = w.seq.support_hint, (str(inner), j)
            assert hint.within(w.support), where
            for n in range(4097):
                if not w.support.member(n):
                    assert not hint.member(n) and w.seq.term(n, PREC).is_exact_zero, (where, n)


def _all_parts_term(combo, n, prec):
    """Combine's term with every part read and added, zeros included."""
    child = prec + combo._bump
    acc = ComplexInterval.zero()
    for (re, im), base in zip(combo.coeffs, combo.bases):
        acc = acc + base.term(n, child).scale(re, im)
    return acc


@pytest.mark.parametrize("name", sorted(_COMBINATIONS))
def test_combine_term_equals_the_all_parts_sum(name):
    combo = _COMBINATIONS[name]
    for prec in (PREC, 200):
        for n in range(301):
            assert combo.term(n, prec) == _all_parts_term(combo, n, prec), (name, n)


# -- disc tails past the exact-power size bound -----------------------------------


def _bounds_power(bound, u, v, n):
    """bound >= (u/v)**n, compared on integers without building the power."""
    return bound.numerator * v ** n >= u ** n * bound.denominator


@st.composite
def _radius_and_far_index(draw):
    v = draw(st.one_of(st.integers(2, 64), st.integers(2, 1 << 40)))
    r = F(draw(st.one_of(st.integers(0, v - 1), st.just(v - 1))), v)
    start = _EXACT_POWER_BITS // r.denominator.bit_length() + 1  # just past the bound
    return r.numerator, r.denominator, draw(st.integers(start, start + (1 << 12)))


# each example powers two integers to about a million bits
@settings(max_examples=20)
@given(_radius_and_far_index(), st.integers(1, 300))
def test_capped_radius_power_is_at_least_the_exact_power(case, prec):
    u, v, n = case
    bound = _radius_power_upper(F(u, v), n, prec)
    assert bound in (F(1, 1 << (prec + 16)), 1)
    assert _bounds_power(bound, u, v, n)


@given(st.integers(1, 64), st.integers(0, 2000), st.integers(1, 200))
def test_radius_power_is_exact_below_the_size_bound(k, n, prec):
    r = F(k, k + 1)
    assert _radius_power_upper(r, n, prec) == r ** n


def test_disc_tail_of_a_far_entry_is_bounded_not_computed():
    a = FiniteRational({1 << 40: F(3), 5: (F(1, 2), F(-1, 3))})
    r = F(7, 8)
    tail = F(*a.disc_tail(0, r, PREC))
    head = sqrt_bounds(F(1, 4) + F(1, 9), PREC)[1] * r ** 5
    assert tail == head + 3 * F(1, 1 << (PREC + 16))


# -- what the term cache keeps ----------------------------------------------------


def test_repeated_terms_are_one_object_and_the_cache_holds_no_shared_zero():
    zero_box = ComplexInterval.zero()
    zeros = nonzeros = 0
    for name, seq in _hinted_nodes():
        for prec in (8, PREC):
            for n in range(0, 130, 3):
                first = seq.term(n, prec)
                again = seq.term(n, prec)
                # a zero comes back as the shared box, anything else from the cache
                assert again is first and again == first, (name, n, prec)
                if first is zero_box:
                    zeros += 1
                else:
                    nonzeros += 1
        assert not any(v is zero_box for v in seq._term_cache.values()), name
    assert zeros > 1000 and nonzeros > 1000


def test_gap_cap_c0_shares_one_box_per_dyadic_level():
    seq = families.gap_cap_c0(F(2))
    first_at_level = {}
    for n in range(1 << 13):
        level = (n + 2).bit_length() - 1
        for prec in (8, PREC):
            box = seq.term(n, prec)
            assert box == ComplexInterval.exact(F(1, level)), n
            assert box is first_at_level.setdefault(level, box), n
    assert sorted(first_at_level) == list(range(1, 14))


def test_const_one_terms_are_one_box():
    one, other = families.const_one(), families.const_one()
    assert one.term(0, 8) == ComplexInterval.exact(1)
    assert all(one.term(n, PREC) is other.term(0, 8) for n in range(50))


def test_exactness_at_an_index_does_not_depend_on_the_precision():
    # the term cache keeps a zero-width box under n alone, which is sound only
    # if no node is exact at n at one precision and wide at another; each
    # precision reads a fresh set of nodes, so no cache carries over
    boxes = {}
    for prec in (8, 16, 64, 128, 256):
        for name, seq in _hinted_nodes(catalog()):
            for n in range(0, 130, 3):
                boxes.setdefault((name, n), []).append(seq.term(n, prec))
    exact = wide = 0
    for (name, n), seen in boxes.items():
        assert len({box.is_exact for box in seen}) == 1, (name, n)
        if seen[0].is_exact:
            assert all(box == seen[0] for box in seen), (name, n)
            exact += 1
        else:
            wide += 1
    assert exact > 1000 and wide > 200


class _Counting(Sequence):
    """a_n = 1/(n+1), exact at even n and widened by 2**-prec at odd n, and
    the shared zero at multiples of 5; records every ``_term`` call."""

    kind = "counting"

    def __init__(self):
        super().__init__()
        self.calls = []

    def _term(self, n, prec):
        self.calls.append((n, prec))
        if n % 5 == 0:
            return ComplexInterval.zero()
        if n % 2 == 0:
            return ComplexInterval.exact(F(1, n + 1))
        return ComplexInterval.from_real_bounds(F(1, n + 1), F(1, n + 1) + F(1, 1 << prec))


def test_an_exact_term_answers_every_precision_and_a_wide_one_only_its_own():
    seq = _Counting()
    exact = seq.term(2, 64)
    assert exact.is_exact
    assert seq.term(2, 128) is exact and seq.term(2, 8) is exact
    assert seq.calls == [(2, 64)]

    wide = seq.term(3, 64)
    finer = seq.term(3, 128)
    assert not wide.is_exact and finer != wide and subset_of(finer, wide)
    assert seq.term(3, 64) is wide and seq.term(3, 128) is finer
    assert seq.calls == [(2, 64), (3, 64), (3, 128)]

    zero_box = ComplexInterval.zero()
    assert seq.term(5, 64) is zero_box and seq.term(5, 128) is zero_box
    assert seq.calls[3:] == [(5, 64), (5, 128)]
    assert set(seq._term_cache) == {2, (3, 64), (3, 128)}
