"""Each tail oracle, schedule row and exponent pair that is computed on the
integers equals the ``Fraction`` formula it replaced.

Every reference below is that formula, kept here as written before the
integer form: a ``Fraction`` at every step.  The values must be the same
rationals (``==``), so every verdict, certificate and report byte stays the
same."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqchain.errors import BudgetExceeded
from seqchain.families import _geom_ratio, gap_cap_lp, gap_lp_cap, prop28, rem29
from seqchain.intervals import ComplexInterval, PowSum, Q0, pow_bounds
from seqchain.sequences import _EXACT_POWER_BITS, FiniteRational, _radius_power_upper
from seqchain.spaces import HD, cap_lp, seminorm_rows
from seqchain.supports import Arith

CUTOFFS = (-1, 0, 5, 37)
PRECS = st.sampled_from((8, 16, 64))
small = st.fractions(min_value=F(1, 40), max_value=6, max_denominator=40)
entries = st.dictionaries(
    st.integers(0, 60),
    st.tuples(st.fractions(-4, 4, max_denominator=30), st.fractions(-4, 4, max_denominator=30)),
    max_size=6,
)


def _ref_geom_tail(base, exponent, k0, prec):
    work = max(prec, 16)
    for _ in range(20):
        t_up = pow_bounds(base, exponent, work)[1]
        if t_up < 1:
            return t_up ** k0 / (1 - t_up)
        work += 32
    raise BudgetExceeded("geometric ratio bound would not drop below 1")


@given(st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64), small,
       st.integers(0, 40), PRECS)
@example(F(1, 2), F(1, 2), 0, 16)
@example(F(1, 2), F(3), 7, 64)
def test_geom_tail_equals_the_fraction_formula(base, exponent, k0, prec):
    # the ratio bound n/d of the doubling tails, summed on integers from k0 on
    n, d = _geom_ratio(base, exponent, prec)
    assert F(n ** k0 * d, d ** k0 * (d - n)) == _ref_geom_tail(base, exponent, k0, prec)


@pytest.mark.parametrize("N", CUTOFFS)
@given(p=small, prec=PRECS)
def test_doubling_tails_equal_the_fraction_formula(N, p, prec):
    for seq in (prop28(), rem29(Arith(1, 3))):
        k0 = seq.support_hint.rank_upto(N) + 1
        assert seq.tail_majorant(N, p, prec) == _ref_geom_tail(F(1, 2), p / 2, k0, prec)


_DOUBLING_QUESTIONS = [(N, p, prec) for N in CUTOFFS for p in (F(1, 3), F(1), F(7, 3))
                       for prec in (16, 64)]


@settings(max_examples=20)
@given(st.permutations(_DOUBLING_QUESTIONS))
def test_doubling_tails_do_not_depend_on_the_order_asked(order):
    # a node makes each (p, prec) ratio once and reuses it at every cutoff:
    # the answers in any order are those of a fresh node per question
    for make in (prop28, lambda: rem29(Arith(1, 3))):
        seq = make()
        assert [seq.tail_majorant(*q) for q in order] == [make().tail_majorant(*q) for q in order]


@pytest.mark.parametrize("N", CUTOFFS)
@given(a=small, excess=small, prec=PRECS)
@example(a=F(1), excess=F(1), prec=16)  # s = 2: an integer exponent 1 - s
def test_gap_lp_cap_tails_equal_the_fraction_formula(N, a, excess, prec):
    q = a + excess  # above the threshold a
    s = q / a
    ref = pow_bounds(F(N + 2), 1 - s, max(prec, 16))[1] / (s - 1)
    assert gap_lp_cap(a).tail_majorant(N, q, prec) == ref


@pytest.mark.parametrize("N", CUTOFFS)
@given(a=st.fractions(0, 4, max_denominator=20), width=small, excess=small, prec=PRECS)
@example(a=F(0), width=F(2), excess=F(1), prec=16)  # s = 2
def test_gap_cap_lp_tails_equal_the_fraction_formula(N, a, width, excess, prec):
    b = a + width
    q = (a + b) / 2 + excess  # above the threshold (a+b)/2
    s = 2 * q / (a + b)
    if N < 0:
        ref = 1 + 1 / (s - 1)
    else:
        ref = pow_bounds(F(N + 1), 1 - s, max(prec, 16))[1] / (s - 1)
    assert gap_cap_lp(a, b).tail_majorant(N, q, prec) == ref


def _ref_moduli(seq, N, prec):
    """(n, upper bound on |a_n|) past N: the abs bound of each exact entry."""
    return [(n, ComplexInterval.exact(re, im).abs_bounds(prec)[1])
            for n, (re, im) in seq.entries.items() if n > N]


@given(entries, st.integers(-1, 61), st.fractions(min_value=F(1, 30), max_value=F(29, 30),
                                                  max_denominator=30), PRECS)
def test_finite_disc_tails_equal_the_fraction_sum(data, N, r, prec):
    seq = FiniteRational(data)
    ref = sum((m * _radius_power_upper(r, n, prec) for n, m in _ref_moduli(seq, N, prec)), Q0)
    num, den = seq.disc_tail(N, r, prec)
    assert den > 0 and F(num, den) == ref


@pytest.mark.parametrize("r", [F(1, 2), F(7, 8)])
def test_a_finite_disc_tail_past_the_exact_power_bits_adds_the_bounded_power(r):
    far = _EXACT_POWER_BITS // r.denominator.bit_length() + 1  # the first bounded index
    seq = FiniteRational({0: F(1, 3), 5: (F(1, 2), F(-1, 4)), far - 1: F(2), far: F(3), 2 * far: F(-5)})
    for N in (-1, 4, far - 1):
        ref = sum((m * _radius_power_upper(r, n, 64) for n, m in _ref_moduli(seq, N, 64)), Q0)
        num, den = seq.disc_tail(N, r, 64)
        assert F(num, den) == ref


@given(entries, st.integers(-1, 61), st.integers(0, 8), PRECS)
def test_finite_poly_sup_tails_equal_the_fraction_max(data, N, k, prec):
    seq = FiniteRational(data)
    ref = max((F(n) ** k * m for n, m in _ref_moduli(seq, N, prec)), default=Q0)
    assert seq.poly_sup_tail(N, k, prec) == ref


@given(st.fractions(min_value=F(1, 60), max_value=30, max_denominator=60) | st.integers(1, 9))
def test_pow_sum_exponent_pairs_equal_those_of_the_fractions(e):
    e = F(e)
    ref = [(x.numerator, x.denominator) for x in (e, e / 2)]
    assert [tuple(pair) for pair in PowSum(e, 16).exps] == ref


@given(st.fractions(0, 8, max_denominator=40))
def test_cap_lp_row_parameters_equal_a_plus_one_over_k(a):
    _, param, nested = seminorm_rows(cap_lp(a))
    assert nested
    for k in range(1, 40):
        p = param(k)
        assert p == a + F(1, k) and p.__class__ is F


def test_hd_row_parameters_equal_k_over_k_plus_one():
    _, param, _ = seminorm_rows(HD)
    for k in range(1, 300):
        assert param(k) == F(k, k + 1)
