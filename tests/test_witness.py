from fractions import Fraction

import pytest

from conftest import BUDGET, PREC
from seqchain.diagnose import CertifiedIn, CertifiedOut, classify
from seqchain.errors import FiniteSupportSet, NotStrictPair, TopOfChain
from seqchain.families import prop28
from seqchain.generic import _row_element, approximate_with_avoider, dense_family_element
from seqchain.intervals import ComplexInterval, replace
from seqchain.sequences import spread, term_at
from seqchain.serialize import canonical_json
from seqchain.spaceable import build_basis
from seqchain.spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    adjacent_pairs,
    cap_lp,
    lp,
    standard_chain,
)
from seqchain.supports import AllNaturals, Arith, ExplicitFinite, PowersOfTwo
from seqchain.witness import canonical_gap_sequence, make_witness, verify_witness

F = Fraction
EVENS = Arith(0, 2)


# -- canonical gaps ---------------------------------------------------------------


def test_canonical_gap_for_smooth_space_is_sqrt_family():
    seq = canonical_gap_sequence(AINF)
    assert seq.spec() == {"kind": "family", "name": "prop28", "params": {}}
    # l2 mass over the support: head terms plus the exact geometric tail sum to 1
    head_lo = F(0)
    head_hi = F(0)
    for k in range(1, 50):
        sq = seq.term(1 << k, 80).abs_sq_bounds()
        head_lo += sq[0]
        head_hi += sq[1]
    tail = seq.tail_majorant(1 << 49, F(2), 80)
    assert head_lo <= 1 <= head_hi + tail
    assert (head_hi + tail) - head_lo < F(1, 1 << 40)


def test_canonical_gap_for_bounded_space_is_nat():
    seq = canonical_gap_sequence(LINF)
    assert seq.spec()["name"] == "nat"
    assert isinstance(classify(seq, LINF, BUDGET, PREC), CertifiedOut)
    assert isinstance(classify(seq, HD, BUDGET, PREC), CertifiedIn)


def test_canonical_gap_for_c0_is_const_one():
    seq = canonical_gap_sequence(C0)
    assert all(term_at(seq, n, 10).re_lo == 1 for n in range(5))


def test_canonical_gap_top_of_chain():
    with pytest.raises(TopOfChain):
        canonical_gap_sequence(CN0)


@pytest.mark.parametrize("space", standard_chain()[:-1], ids=str)
def test_canonical_gaps_separate_from_their_space(space):
    seq = canonical_gap_sequence(space)
    assert isinstance(classify(seq, space, BUDGET, PREC), CertifiedOut)


# -- make_witness -----------------------------------------------------------------


def test_witness_ainf_on_powers_of_two_is_prop28_pointwise():
    w = make_witness(AINF, cap_lp(0), PowersOfTwo(), BUDGET, PREC)
    reference = prop28()
    for n in range(0, 130):
        assert w.seq.term(n, 40) == reference.term(n, 40)
    assert w.out_cert.shape == "unbounded-weighted" and w.out_cert.fields[0] == 1


def test_witness_hd_on_evens_uses_nn_values():
    w = make_witness(HD, CN0, EVENS, BUDGET, PREC)
    for n in (2, 4, 6):
        assert w.seq.term(n, 20).re_lo == F(n) ** n
    assert w.seq.term(3, 20).is_exact_zero
    assert w.out_cert.shape == "root-limsup-exceeds"
    _, _, tag = w.out_cert.fields
    # root lower bounds equal the support points themselves
    assert [tag.rho(m) for m in (1, 2, 3)] == [tag.s(m) for m in (1, 2, 3)]


def test_witness_lp1_c0_divergence_certificate():
    w = make_witness(lp(1), C0, AllNaturals(), BUDGET, PREC)
    assert w.seq.kind == "spread"
    assert w.out_cert.shape == "divergent-partial-sums"
    exponent, blocks, _ = w.out_cert.fields
    assert exponent == 1
    assert blocks.comparator == "harmonic"
    assert verify_witness(w, BUDGET, 3, PREC)


def test_witness_lp1_partial_sums_climb_past_small_thresholds():
    # exact running sums of |a_n| over the support clear small thresholds
    # at brute-force-found indices (the double-log growth puts larger
    # thresholds astronomically far out; the block certificate covers those)
    w = make_witness(lp(1), C0, AllNaturals(), BUDGET, PREC)
    total = F(0)
    found = {}
    for n in range(0, 1 << 14):
        iv = w.seq.term(n, 40)
        assert iv.is_exact  # gap values at exponent one are rational
        total += iv.re_lo
        for M in (1, 2):
            if M not in found and total > M:
                found[M] = n
    assert found[1] < found[2] < 1 << 14


def test_witness_rejects_non_strict_pair():
    with pytest.raises(NotStrictPair):
        make_witness(C0, lp(1), EVENS, BUDGET, PREC)
    with pytest.raises(NotStrictPair):
        make_witness(C0, C0, EVENS, BUDGET, PREC)


def test_witness_rejects_finite_support():
    with pytest.raises(FiniteSupportSet):
        make_witness(lp(1), C0, ExplicitFinite([1, 2, 3]), BUDGET, PREC)


SUPPORTS = [("all", AllNaturals()), ("evens", EVENS), ("pow2", PowersOfTwo())]


@pytest.mark.parametrize("sup_name,support", SUPPORTS, ids=[n for n, _ in SUPPORTS])
@pytest.mark.parametrize("pair", adjacent_pairs(), ids=lambda p: f"{p[0]}<{p[1]}")
def test_all_adjacent_witnesses_verify(pair, sup_name, support):
    inner, outer = pair
    w = make_witness(inner, outer, support, BUDGET, PREC)
    assert verify_witness(w, BUDGET, samples=3, prec=PREC)


def test_witness_supported_inside_given_set():
    w = make_witness(lp(1), C0, EVENS, BUDGET, PREC)
    for n in range(0, 200):
        if not EVENS.member(n):
            assert w.seq.term(n, 8).is_exact_zero


def test_witness_upward_closure():
    w = make_witness(lp(1), cap_lp(1), EVENS, BUDGET, PREC)
    above = [lp(2), cap_lp(2), C0, LINF, HD, CN0]
    for space in above:
        assert isinstance(classify(w.seq, space, BUDGET, PREC), CertifiedIn), str(space)


def test_rearrangement_invariance_of_verdicts():
    # spreading preserves membership status for the summability spaces,
    # the vanishing space, and the bounded space
    from seqchain.families import const_one, gap_cap_c0, gap_lp_cap

    cases = [
        (gap_lp_cap(F(1)), lp(1)),
        (gap_lp_cap(F(1)), cap_lp(1)),
        (gap_cap_c0(F(2)), C0),
        (const_one(), C0),
        (const_one(), LINF),
    ]
    for seq, space in cases:
        direct = classify(seq, space, BUDGET, PREC)
        moved = classify(spread(seq, PowersOfTwo()), space, BUDGET, PREC)
        assert type(direct) is type(moved), str(space)


def test_verify_rejects_forged_support():
    w = make_witness(lp(1), C0, AllNaturals(), BUDGET, PREC)
    forged = replace(w, support=EVENS)  # claims evens, but lives on all
    assert not verify_witness(forged, BUDGET, 3, PREC)


def test_verify_rejects_a_sequence_whose_hint_is_all_naturals():
    # a hint of all naturals proves the sequence zero off no support
    w = make_witness(lp(1), C0, EVENS, BUDGET, PREC)
    assert verify_witness(w, BUDGET, 3, PREC)
    unhinted = spread(w.seq.base, EVENS)
    unhinted.support_hint = AllNaturals()
    assert not verify_witness(replace(w, seq=unhinted), BUDGET, 3, PREC)


def test_verify_rejects_swapped_spaces():
    w = make_witness(lp(1), C0, EVENS, BUDGET, PREC)
    swapped = replace(w, inner=w.outer, outer=w.inner)
    assert not verify_witness(swapped, BUDGET, 3, PREC)


def test_verify_rejects_mismatched_certificates():
    w1 = make_witness(lp(1), C0, EVENS, BUDGET, PREC)
    w2 = make_witness(lp(2), C0, EVENS, BUDGET, PREC)
    crossed = replace(w1, out_cert=w2.out_cert)
    assert not verify_witness(crossed, BUDGET, 3, PREC)


def test_witness_construction_is_deterministic():
    a = make_witness(AINF, cap_lp(0), EVENS, BUDGET, PREC)
    b = make_witness(AINF, cap_lp(0), EVENS, BUDGET, PREC)
    assert a is not b
    assert a.seq.spec() == b.seq.spec()
    for n in range(50):
        assert a.seq.term(n, 30) == b.seq.term(n, 30)


def test_dense_family_rows_are_shared_through_the_row_cache():
    a = dense_family_element(3, C0, lp(1), BUDGET, PREC)
    b = dense_family_element(3, C0, lp(1), BUDGET, PREC)
    assert a.witness is b.witness and a.scale == b.scale
    args = (prop28(), F(1, 1024), CN0, C0, BUDGET, PREC)
    _row_element.cache_clear()
    cold = canonical_json(approximate_with_avoider(*args).describe())
    warm = canonical_json(approximate_with_avoider(*args).describe())
    assert _row_element.cache_info().hits == 1
    assert cold == warm


# -- the term cache under verification ------------------------------------------


def _nodes(seq):
    """A sequence and every sequence it is built from."""
    yield seq
    for part in [getattr(seq, "base", None), *getattr(seq, "bases", ())]:
        if part is not None:
            yield from _nodes(part)


@pytest.mark.parametrize("pair", adjacent_pairs(), ids=lambda p: f"{p[0]}<{p[1]}")
def test_verified_basis_caches_hold_no_shared_zero(pair):
    # off-support terms are the shared zero box; the cache keeps none of them
    zero_box = ComplexInterval.zero()
    basis = build_basis(*pair, 3, BUDGET, PREC)
    for w in basis.elements.values():
        assert verify_witness(w, BUDGET, samples=3, prec=PREC)
        for node in _nodes(w.seq):
            assert not any(v is zero_box for v in node._term_cache.values()), node
