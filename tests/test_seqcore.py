import random
from decimal import Decimal
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PREC, catalog, random_finite
from seqchain import families
from seqchain.errors import FiniteSupportSet, LengthMismatch
from seqchain.families import nat, prop28
from seqchain.intervals import ComplexInterval, pow_bounds, sqrt_bounds
from seqchain.sequences import (
    _EXACT_POWER_BITS,
    _abs_upper,
    Combine,
    FiniteRational,
    Sequence,
    combine,
    restrict,
    spread,
    support_indices_upto,
    term_at,
    unit,
    _radius_power_upper,
    zero,
)
from seqchain.supports import (
    AllNaturals,
    Arith,
    DyadicRow,
    ExplicitFinite,
    PowersOfTwo,
)

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


@pytest.mark.parametrize("name,seq", CATALOG, ids=[n for n, _ in CATALOG])
def test_term_determinism_and_nesting(name, seq):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(20):
        n = rng.randint(0, 100)
        prec = rng.randint(4, 60)
        first = seq.term(n, prec)
        again = seq.term(n, prec)
        assert first == again
        finer = seq.term(n, prec + 1)
        assert finer.subset_of(first)
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
            assert seq.disc_tail(N, r, PREC) == r ** n0 / (1 - r), (N, k)


@pytest.mark.parametrize("name", sorted(_GEOMETRIC_DISC) + ["nat"])
def test_family_disc_tails_take_any_exact_radius_in_the_open_unit_interval(name):
    seq = _GEOMETRIC_DISC.get(name) or nat()
    for N in (-1, 0, 9):
        for r in (0.5, 0.875, Decimal("0.3")):
            assert seq.disc_tail(N, r, PREC) == seq.disc_tail(N, F(r), PREC), (N, r)
        for r in (F(0), F(1), F(-1, 2), F(3, 2), 0.0, 1.5):
            with pytest.raises(ValueError):
                seq.disc_tail(N, r, PREC)


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
        for N in (0, 5, 30):
            r = F(5, 6)
            assert combo.disc_tail(N, r, prec) == _ref_weighted(
                combo, [b.disc_tail(N, r, prec) for b in bases], prec
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
        assert a.disc_tail(N, F(1, 2), prec) == 0
        assert a.poly_sup_tail(N, 3, prec) == 0


def test_support_indices_cover_nonzero_terms():
    for name, seq in CATALOG:
        idx = set(support_indices_upto(seq, 60))
        for n in range(61):
            if not seq.term(n, 12).is_exact_zero:
                assert n in idx, (name, n)


def test_spec_roundtrip_key_stable():
    for name, seq in CATALOG:
        assert seq.spec_key() == seq.spec_key()


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


def _hinted_nodes():
    """Every catalog member, and its spread and restrict onto each support
    kind, and combinations of them."""
    for name, seq in CATALOG:
        yield name, seq
        for sname, support in _HINT_SUPPORTS.items():
            if not support.finite_flag:
                yield f"spread({name},{sname})", spread(seq, support)
            yield f"restrict({name},{sname})", restrict(seq, support)
    yield "restrict(unhinted,arith)", restrict(_Unhinted(), Arith(1, 3))
    for name, combo in _COMBINATIONS.items():
        yield name, combo


def _combinations():
    rows = [spread(seq, DyadicRow(j)) for j, seq in enumerate(
        [prop28(), nat(), families.gap_cap_lp(F(2), F(3)), families.const_one()], start=1
    )]
    cat = dict(CATALOG)
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
    }


_COMBINATIONS = _combinations()


def test_terms_outside_the_support_hint_are_exact_zeros():
    # Combine skips such parts unread; every node kind must honour this
    checked = 0
    for name, seq in _hinted_nodes():
        hint = seq.support_hint
        if hint is None:
            continue
        for n in range(301):
            if not hint.member(n):
                assert seq.term(n, PREC).is_exact_zero, (name, n)
                checked += 1
    assert checked > 10_000


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
    tail = a.disc_tail(0, r, PREC)
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
