import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from seqchain import families
from seqchain.sequences import FiniteRational, zero
from seqchain.supports import Arith, PowersOfTwo

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
settings.load_profile("ci")

BUDGET = 4096
PREC = 64


def catalog():
    """Representative sequences covering every membership behaviour."""
    evens = Arith(0, 2)
    return {
        "zero": zero(),
        "finite": FiniteRational({0: Fraction(3, 4), 2: (Fraction(1, 2), Fraction(-1, 3))}),
        "prop28": families.prop28(),
        "rem29-evens": families.rem29(Arith(0, 2)),
        "rem29-pow2": families.rem29(PowersOfTwo()),
        "nat": families.nat(),
        "nat-power": families.nat_power(),
        "nn-evens": families.nn_on_support(evens),
        "const-one": families.const_one(),
        "gap-lp-cap-1": families.gap_lp_cap(Fraction(1)),
        "gap-lp-cap-2": families.gap_lp_cap(Fraction(2)),
        "gap-cap-lp-01": families.gap_cap_lp(Fraction(0), Fraction(1)),
        "gap-cap-lp-12": families.gap_cap_lp(Fraction(1), Fraction(2)),
        "gap-cap-c0": families.gap_cap_c0(Fraction(2)),
    }


@pytest.fixture(scope="session")
def catalog_sequences():
    return catalog()


def row_points(cert, count=50):
    """The first count points of an escape certificate's witness row from its
    cutoff on: the points the certificate recorded before its row identity
    was proved from support hints alone."""
    row = cert.witness.support
    skipped = row.rank_upto(cert.cutoff - 1)
    return [row.nth(skipped + k) for k in range(1, count + 1)]


def subset_of(a, b) -> bool:
    """Whether the box a lies within the box b."""
    return b.re_lo <= a.re_lo and a.re_hi <= b.re_hi and b.im_lo <= a.im_lo and a.im_hi <= b.im_hi


def point_check_failure(f, cert, points, prec):
    """Reference copy of the escape check's former point loop: the first of
    the points that is off the witness row, below the cutoff, or where f and
    scale * witness disagree, compared once at 2 * prec; None when every
    point passes.  A proved row identity implies it passes everywhere."""
    scale, w = cert.scale, cert.witness
    work = 2 * prec
    extra = (1 + int(max(abs(scale.re_hi), abs(scale.im_hi)))).bit_length() + 2
    for n in points:
        if not w.support.member(n) or n < cert.cutoff:
            return n
        a = f.term(n, work)
        b = scale.mul(w.seq.term(n, work + extra))
        if not (subset_of(a, b) or subset_of(b, a) or (a - b).contains(0, 0)):
            return n
    return None


def random_rational(rng: random.Random, span: int = 8) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_finite(rng: random.Random, *, real_only=False, max_index=12) -> FiniteRational:
    entries = {}
    for _ in range(rng.randint(0, 6)):
        n = rng.randint(0, max_index)
        re = random_rational(rng)
        im = Fraction(0) if real_only else random_rational(rng)
        entries[n] = (re, im)
    return FiniteRational(entries)
