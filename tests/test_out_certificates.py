"""Out-certificates built and checked by one check per shape,
the one threshold scan behind the pointwise closed families, and the one
refinement of |a_n| against a bound, against reference copies of the
per-space build, check, scan and refinement code they replaced; and the
re-check of every out-certificate on a second node of its spec, which
reads that node's own tags and blocks."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from conftest import BUDGET, PREC, catalog
from seqchain import families
from seqchain.diagnose import (
    Certificate,
    CertifiedIn,
    CertifiedOut,
    ClosedFamily,
    ConsistentUpTo,
    ViolatedAt,
    _abs_at_least,
    _abs_sq_lower,
    _threshold_table,
    _verify_blocks,
    check_certificate,
    classify,
    closed_family_check,
    try_in_certificate,
    try_out_certificate,
    verdict_to_json,
)
from seqchain.errors import UnsupportedSpace
from seqchain.intervals import Q1, replace
from seqchain.sequences import FiniteRational, combine, restrict, spread, zero
from seqchain.serialize import canonical_json, sequence_from_spec
from seqchain.spaceable import basis_element
from seqchain.spaces import AINF, C0, HD, LINF, lp, standard_chain
from seqchain.supports import AllNaturals, Arith, DyadicRow, PowersOfTwo
from seqchain.tags import RootLowerBound, SubseqLowerBound

F = Fraction
CHAIN = standard_chain()


# -- reference: the two refinement loops and the two table shapes -----------------


def _ref_abs_vs_threshold(seq, n, threshold, prec):
    """Return +1 if |a_n| > threshold provably, -1 if < provably, 0 unknown."""
    t2 = threshold * threshold
    work = prec
    for _ in range(4):
        sq_lo, sq_hi = seq.term(n, work).abs_sq_bounds()
        if sq_lo > t2:
            return 1
        if sq_hi < t2:
            return -1
        if sq_lo == t2 == sq_hi:
            return 0
        work *= 2
    return 0


def _ref_abs_at_least(seq, n, bound, prec):
    """Confirm |a_n| >= bound (with refinement; equality counts)."""
    if bound <= 0:
        return True
    b2 = bound * bound
    work = prec
    for _ in range(4):
        sq_lo, sq_hi = seq.term(n, work).abs_sq_bounds()
        if sq_lo >= b2:
            return True
        if sq_hi < b2:
            return False
        work *= 2
    return False


def _ref_threshold_table(tag, weight_k):
    rows = []
    for threshold in (1, 2, 4, 8, 16, 32, 64, 128):
        hit = None
        for m in range(1, 512 + 1):
            g = tag.g(m)
            if g <= 0:
                continue
            if (Fraction(tag.s(m)) ** weight_k if weight_k else 1) * g >= threshold:
                hit = (threshold, m, g)
                break
        if hit is None:
            return None
        rows.append(hit)
    return tuple(rows)


def _ref_rows(tag, weight_k):
    """The reference table with each row's m rendered as its index s(m)."""
    rows = _ref_threshold_table(tag, weight_k)
    return rows and tuple((t, tag.s(m), g) for t, m, g in rows)


def _ref_check_table(seq, rows, prec):
    return all(_ref_abs_at_least(seq, n, g, prec) for _, n, g in rows)


# -- reference: the per-space build and check the holds predicates replaced -------


def _ref_subseq_tags(seq):
    return [t for t in seq.growth_tags if isinstance(t, SubseqLowerBound)]


def _ref_verify_root_cert(seq, cert, samples, prec):
    rho, m_start, tag = cert.fields
    if rho <= 1:
        return False
    prev_s = -1
    for m in range(m_start, m_start + max(1, samples)):
        s = tag.s(m)
        if s <= prev_s or s < 1:
            return False
        prev_s = s
        if tag.rho(m) < rho:
            return False
        if not _ref_abs_at_least(seq, s, rho ** s, prec):
            return False
    return True


def _ref_verify_not_vanishing(seq, cert, samples, prec):
    delta, tag = cert.fields
    if delta <= 0 or tag.g_inf is None or tag.g_inf < delta:
        return False
    prev_s = -1
    for m in range(1, max(1, samples) + 1):
        s = tag.s(m)
        if s <= prev_s:
            return False
        prev_s = s
        if not _ref_abs_at_least(seq, s, delta, prec):
            return False
    return True


def _ref_blocks_to_check(bd, count=3):
    return tuple(range(bd.j_start, bd.j_start + count))


def _ref_try_out_certificate(seq, space, budget, prec):
    if space.tag == "cn0":
        return None
    if space.tag == "hd":
        for tag in seq.growth_tags:
            if not isinstance(tag, RootLowerBound):
                continue
            rho = Fraction(2)
            m_start = None
            for m in range(1, 512 + 1):
                if tag.rho(m) >= rho:
                    m_start = m
                    break
            if m_start is None:
                continue
            cert = Certificate(space, "root-limsup-exceeds", (rho, m_start, tag))
            if _ref_verify_root_cert(seq, cert, samples=3, prec=prec):
                return cert
        return None
    if space.tag == "linf":
        for tag in _ref_subseq_tags(seq):
            rows = _ref_rows(tag, weight_k=0)
            if rows and _ref_check_table(seq, rows, prec):
                return Certificate(space, "unbounded", (tag, rows))
        return None
    if space.tag == "c0":
        for tag in _ref_subseq_tags(seq):
            if tag.g_inf is not None and tag.g_inf > 0:
                cert = Certificate(space, "not-vanishing", (tag.g_inf, tag))
                if _ref_verify_not_vanishing(seq, cert, samples=5, prec=prec):
                    return cert
        return None
    if space.tag == "lp":
        bd = seq.lp_divergence(space.param)
        if bd is None or bd.p != space.param:
            return None
        js = _ref_blocks_to_check(bd)
        if _verify_blocks(seq, bd, js, prec):
            return Certificate(space, "divergent-partial-sums", (bd.p, bd, js))
        return None
    if space.tag == "cap-lp":
        t, a = seq.threshold, space.param
        if t is None:
            q = a + 1
        elif t > a:
            q = t
        else:
            return None
        bd = seq.lp_divergence(q)
        if bd is None or q <= space.param or bd.p != q:
            return None
        js = _ref_blocks_to_check(bd)
        if _verify_blocks(seq, bd, js, prec):
            return Certificate(space, "divergent-partial-sums", (q, bd, js))
        return None
    if space.tag == "ainf":
        for k in range(1, 5):
            for tag in _ref_subseq_tags(seq):
                rows = _ref_rows(tag, weight_k=k)
                if rows and _ref_check_table(seq, rows, prec):
                    return Certificate(space, "unbounded-weighted", (k, tag, rows))
        return None
    raise UnsupportedSpace(space.tag)


def _ref_check_out(seq, cert, samples, prec):
    shape = cert.shape
    space = cert.space
    if shape == "divergent-partial-sums":
        exponent, blocks, checked_blocks = cert.fields
        if space.tag == "lp" and exponent != space.param:
            return False
        if space.tag == "cap-lp" and exponent <= space.param:
            return False
        if space.tag not in ("lp", "cap-lp"):
            return False
        if blocks.p != exponent:
            return False
        js = checked_blocks[: max(1, samples)]
        return _verify_blocks(seq, blocks, js, prec)
    if shape == "unbounded-weighted" and cert.fields[0] >= 1:
        k, _, table = cert.fields
        if space != AINF:
            return False
        for threshold, n, g in table:
            if Fraction(n) ** k * g < threshold:
                return False
        return _ref_check_table(seq, table[: max(1, samples)], prec)
    if shape == "unbounded":
        _, table = cert.fields
        if space != LINF:
            return False
        for threshold, n, g in table:
            if g < threshold:
                return False
        return _ref_check_table(seq, table[: max(1, samples)], prec)
    if shape == "not-vanishing":
        return space == C0 and _ref_verify_not_vanishing(seq, cert, samples, prec)
    if shape == "root-limsup-exceeds":
        return space == HD and _ref_verify_root_cert(seq, cert, samples, prec)
    return False


# -- reference: the four pointwise family scans the one scan replaced --------------


def _ref_report_abs(seq, n, prec, weight=Q1):
    lo, hi = seq.term(n, prec).abs_bounds(prec)
    return weight * lo, weight * hi


def _ref_pointwise_check(seq, fam, budget, prec):
    if fam.name == "FMk":
        M, k = fam.params
        for n in seq.support_hint.elements_upto(budget):
            weight = Fraction(n) ** k
            if weight == 0:
                if k > 0:
                    continue
                weight = Q1
            if _ref_abs_vs_threshold(seq, n, M / weight, prec) > 0:
                lo, hi = _ref_report_abs(seq, n, prec * 2, weight)
                return ViolatedAt(n, lo, hi)
        return ConsistentUpTo(budget)
    if fam.name == "Fnk":
        start, k = fam.params
        threshold = Fraction(1, k)
        for s in seq.support_hint.elements_upto(budget):
            if s < start:
                continue
            if _ref_abs_vs_threshold(seq, s, threshold, prec) > 0:
                lo, hi = _ref_report_abs(seq, s, prec * 2)
                return ViolatedAt(s, lo, hi)
        return ConsistentUpTo(budget)
    if fam.name == "FM":
        (M,) = fam.params
        for n in seq.support_hint.elements_upto(budget):
            if _ref_abs_vs_threshold(seq, n, M, prec) > 0:
                lo, hi = _ref_report_abs(seq, n, prec * 2)
                return ViolatedAt(n, lo, hi)
        return ConsistentUpTo(budget)
    if fam.name == "Fkj":
        k, j = fam.params
        base = 1 + Fraction(1, j)
        for n in seq.support_hint.elements_upto(budget):
            if n < max(k, 1):
                continue
            if _ref_abs_vs_threshold(seq, n, base ** n, prec) > 0:
                lo, hi = _ref_report_abs(seq, n, prec * 2)
                return ViolatedAt(n, lo, hi)
        return ConsistentUpTo(budget)
    raise TypeError(fam)


# -- cases ---------------------------------------------------------------------------


_SUPPORTS = {
    "all": AllNaturals(),
    "arith": Arith(1, 3),
    "powers-of-two": PowersOfTwo(),
    "dyadic-row": DyadicRow(3),
}


def _variants():
    """(name, sequence): every catalog member as is, spread onto each
    support, restricted, and combined with another member."""
    for name, base in sorted(catalog().items()):
        yield name, base
        for sup_name, sup in sorted(_SUPPORTS.items()):
            yield f"{name}@{sup_name}", spread(base, sup)
        yield f"{name}|arith", restrict(base, Arith(0, 3))
        yield f"{name}+nat/2", combine([1, F(1, 2)], [base, families.nat()])


def _shape_name(cert):
    return cert.describe()["shape"]


@pytest.fixture(scope="module")
def built():
    """(name, seq, space, new out-certificate or None, reference or None)."""
    rows = []
    for name, seq in _variants():
        for space in CHAIN:
            new = try_out_certificate(seq, space, PREC)
            ref = _ref_try_out_certificate(seq, space, BUDGET, PREC)
            rows.append((name, seq, space, new, ref))
    return rows


# -- build and check equal the reference --------------------------------------------


def test_built_out_certificates_equal_the_reference(built):
    assert len(built) == 14 * 7 * len(CHAIN)
    for name, _, space, new, ref in built:
        assert new == ref, (name, str(space))
    # every shape is built somewhere, on more than one variant
    shapes = [_shape_name(new) for *_, new, _ in built if new is not None]
    for shape in _SHAPE_TAGS:
        assert shapes.count(shape) >= 2, shape


def test_checks_equal_the_reference_at_every_sample_count(built):
    for name, seq, space, new, _ in built:
        if new is None:
            continue
        for samples in range(1, 9):
            got = check_certificate(seq, CertifiedOut(new), samples, PREC)
            assert got == _ref_check_out(seq, new, samples, PREC), (name, str(space), samples)
            assert got, (name, str(space), samples)


_SHAPE_TAGS = {
    "divergent-partial-sums": ("lp", "cap-lp"),
    "unbounded-weighted": ("ainf",),
    "not-vanishing": ("c0",),
    "unbounded": ("linf",),
    "root-limsup-exceeds": ("hd",),
}


def test_shapes_moved_to_other_spaces(built):
    """A shape moved to a space of another kind is rejected; an lp or cap-lp
    divergence moved within those spaces is accepted exactly when the
    reference accepts it, and then the sequence has no in-certificate there."""
    for name, seq, space, new, _ in built:
        if new is None:
            continue
        for other in CHAIN:
            if other == space:
                continue
            moved = replace(new, space=other)
            got = check_certificate(seq, CertifiedOut(moved), 3, PREC)
            assert got == _ref_check_out(seq, moved, 3, PREC), (name, str(space), str(other))
            if other.tag not in _SHAPE_TAGS[_shape_name(new)]:
                assert not got, (name, str(space), str(other))
            elif got:
                assert try_in_certificate(seq, other, PREC) is None, (name, str(other))


def _built_shape(seq, space, shape_name):
    cert = try_out_certificate(seq, space, PREC)
    assert _shape_name(cert) == shape_name
    return cert


def test_weighted_row_below_its_threshold_rejected():
    # the last row keeps its index and its true lower bound g (so the term
    # check passes) but claims a threshold above s(m)**k * g
    seq = families.nat()
    cert = _built_shape(seq, AINF, "unbounded-weighted")
    k, tag, table = cert.fields
    _, n, g = table[-1]
    weighted = Fraction(n) ** k * g
    forged = replace(cert, fields=(k, tag, table[:-1] + ((int(weighted) + 1, n, g),)))
    assert _ref_check_table(seq, forged.fields[2], PREC)
    for samples in (1, 8):
        assert check_certificate(seq, CertifiedOut(cert), samples, PREC)
        assert not check_certificate(seq, CertifiedOut(forged), samples, PREC)


def test_unbounded_row_below_its_threshold_rejected():
    seq = families.nat()
    cert = _built_shape(seq, LINF, "unbounded")
    tag, table = cert.fields
    _, n, g = table[-1]
    forged = replace(cert, fields=(tag, table[:-1] + ((int(g) + 1, n, g),)))
    assert _ref_check_table(seq, forged.fields[1], PREC)
    for samples in (1, 8):
        assert check_certificate(seq, CertifiedOut(cert), samples, PREC)
        assert not check_certificate(seq, CertifiedOut(forged), samples, PREC)


def test_unbounded_rejects_a_weight_exponent_that_does_not_fit_its_space():
    # nat's tables pass their term checks; only k and the space are forged
    seq = families.nat()
    linf = _built_shape(seq, LINF, "unbounded").fields
    _, *ainf = _built_shape(seq, AINF, "unbounded-weighted").fields
    weighted, plain = "unbounded-weighted", "unbounded"
    forged = [
        (LINF, weighted, (-1, *linf)),
        (AINF, weighted, (-1, *linf)),
        (AINF, weighted, (-1, *ainf)),
        (AINF, plain, linf),  # a k = 0 table in ainf
        (LINF, weighted, (1, *ainf)),  # a k >= 1 table in linf
        (LINF, plain, tuple(ainf)),  # nat's ainf table relabelled k = 0
        (AINF, plain, tuple(ainf)),
        (LINF, weighted, (0, *ainf)),
        (AINF, weighted, (0, *ainf)),
    ]
    for space, shape, fields in forged:
        assert _ref_check_table(seq, fields[-1], PREC)
        for samples in (1, 8):
            cert = Certificate(space, shape, fields)
            assert not check_certificate(seq, CertifiedOut(cert), samples, PREC), (str(space), fields)
            assert not _ref_check_out(seq, cert, samples, PREC), (str(space), fields)


# one sequence and space per shape, each certified outside
_TIED = {
    "divergent-partial-sums": (families.gap_lp_cap(F(1)), lp(1)),
    "not-vanishing": (families.const_one(), C0),
    "unbounded": (families.nat(), LINF),
    "unbounded-weighted": (families.nat(), AINF),
    "root-limsup-exceeds": (families.nat_power(), HD),
}


@pytest.mark.parametrize("shape_name", sorted(_TIED))
def test_a_certificate_holds_only_for_the_sequence_whose_tag_or_blocks_it_names(shape_name):
    seq, space = _TIED[shape_name]
    # 1 * seq has seq's terms, so every spot-check passes on it, but a
    # combination carries no growth tag and no divergence blocks
    cert = CertifiedOut(_built_shape(seq, space, shape_name))
    copy = combine([1], [seq])
    assert all(copy.term(n, PREC) == seq.term(n, PREC) for n in range(64))
    for samples in (1, 3, 8):
        assert check_certificate(seq, cert, samples, PREC)
        assert _ref_check_out(copy, cert.cert, samples, PREC)
        assert not check_certificate(copy, cert, samples, PREC)


def _tag_of(seq, kind):
    return next(tag for tag in seq.growth_tags if isinstance(tag, kind))


def test_a_tag_of_the_wrong_class_is_false_not_an_error():
    # each node owns a tag equal to the certificate's, but of the class the
    # shape does not read: a root tag has no g or g_inf, a subsequence tag no rho
    nat_power, nat = families.nat_power(), families.nat()
    root, subseq = _tag_of(nat_power, RootLowerBound), _tag_of(nat, SubseqLowerBound)
    forged = [
        (nat_power, Certificate(C0, "not-vanishing", (F(1), root))),
        (nat_power, Certificate(LINF, "unbounded", (root, ((1, 1, F(1)),)))),
        (nat, Certificate(HD, "root-limsup-exceeds", (F(2), 1, subseq))),
    ]
    for seq, cert in forged:
        for samples in range(1, 9):
            assert check_certificate(seq, CertifiedOut(cert), samples, PREC) is False


def test_out_certificates_with_short_evidence_are_false():
    # const-one is in linf, yet a one-row or empty table on its own tag
    # passes every row it has; an lp block certificate with no checked
    # block reads no block at all
    one = families.const_one()
    assert isinstance(classify(one, LINF, BUDGET, PREC), CertifiedIn)
    tag = _tag_of(one, SubseqLowerBound)
    gap, q = families.gap_cap_lp(F(1), F(2)), F(3, 2)
    forged = [
        (one, Certificate(LINF, "unbounded", (tag, ((1, 1, F(1)),)))),
        (one, Certificate(LINF, "unbounded", (tag, ()))),
        (gap, Certificate(lp(q), "divergent-partial-sums", (q, gap.lp_divergence(q), ()))),
    ]
    for seq, cert in forged:
        for samples in (1, 3, 8):
            assert not check_certificate(seq, CertifiedOut(cert), samples, PREC), cert.shape


def _with_last_row(cert, row):
    *head, table = cert.fields
    return CertifiedOut(replace(cert, fields=(*head, table[:-1] + (row,))))


def test_every_table_row_is_tied_to_the_tag():
    # nat's linf table ends at (128, s(128) = 128, g(128) = 128); a row past
    # the spot-checked ones must still be the tag's own (n, g) at some m
    seq = families.nat()
    cert = _built_shape(seq, LINF, "unbounded")
    assert cert.fields[1][-1] == (128, 128, F(128))
    for row in ((128, 128, F(129)), (128, 133, F(128)), (128, 127, F(128))):
        for samples in (1, 3, 8):
            assert not check_certificate(seq, _with_last_row(cert, row), samples, PREC), row
    # a later m with its own n and g still bounds the threshold from below
    assert check_certificate(seq, _with_last_row(cert, (128, 133, F(133))), 3, PREC)
    # on the powers of two, s(127) < n < s(128) is off the support, where
    # the term is 0, yet the walk stops at m = 128, whose g the row keeps
    seq = spread(families.nat(), PowersOfTwo())
    cert = _built_shape(seq, LINF, "unbounded")
    _, n, g = cert.fields[1][-1]
    assert not check_certificate(seq, _with_last_row(cert, (128, n - 1, g)), 3, PREC)


def test_a_weight_exponent_the_build_never_tries_is_false_at_once():
    # every row of nat's k = 1 table also holds at a larger k, but k = 10**7
    # made each row's n**k a number of tens of millions of bits
    seq = families.nat()
    cert = _built_shape(seq, AINF, "unbounded-weighted")
    _, tag, table = cert.fields
    for k in (5, 10 ** 7):
        start = time.process_time()
        assert not check_certificate(seq, CertifiedOut(replace(cert, fields=(k, tag, table))), 3, PREC)
        assert time.process_time() - start < 0.01, k


def test_a_full_table_of_forged_bounds_on_a_bounded_sequence_is_false():
    # const-one is in linf; g = threshold at m = 1..8 would pass the first
    # row's spot check, but its tag gives g(m) = 1 at every m
    one = families.const_one()
    assert isinstance(classify(one, LINF, BUDGET, PREC), CertifiedIn)
    tag = _tag_of(one, SubseqLowerBound)
    table = tuple((1 << (m - 1), tag.s(m), F(1 << (m - 1))) for m in range(1, 9))
    forged = CertifiedOut(Certificate(LINF, "unbounded", (tag, table)))
    for samples in (1, 3, 8):
        assert not check_certificate(one, forged, samples, PREC)


def test_checked_blocks_run_on_from_the_first_block():
    # a later block alone is rejected before a block is summed: block 16 of
    # gap-cap-lp(1, 2) holds 2**16 positions
    seq = families.gap_cap_lp(F(1), F(2))
    cert = _built_shape(seq, lp(1), "divergent-partial-sums")
    q, blocks, js = cert.fields
    assert js == (blocks.j_start, blocks.j_start + 1, blocks.j_start + 2)
    for forged_js in ((12,), (16,), (2, 3, 4), (1, 3), (1, 2, 2), [1, 2, 3]):
        forged = CertifiedOut(replace(cert, fields=(q, blocks, forged_js)))
        start = time.process_time()
        assert not check_certificate(seq, forged, 3, PREC), forged_js
        assert time.process_time() - start < 0.01, forged_js
    assert check_certificate(seq, CertifiedOut(replace(cert, fields=(q, blocks, js[:1]))), 3, PREC)


def test_a_shape_backs_only_its_own_verdict_and_field_count():
    # an in-shape inside CertifiedOut, an out-shape inside CertifiedIn, an
    # unknown shape, or a field too many or too few is False, never an error
    seq = families.nat()
    in_cert = classify(seq, HD, BUDGET, PREC).cert
    out_cert = classify(seq, LINF, BUDGET, PREC).cert
    assert check_certificate(seq, CertifiedIn(in_cert), 3, PREC)
    assert check_certificate(seq, CertifiedOut(out_cert), 3, PREC)
    forged = [
        CertifiedOut(in_cert),
        CertifiedIn(out_cert),
        CertifiedOut(replace(out_cert, shape="unbounded-table")),
        CertifiedOut(replace(out_cert, fields=out_cert.fields + (0,))),
        CertifiedOut(replace(out_cert, fields=out_cert.fields[:1])),
        CertifiedIn(replace(in_cert, fields=in_cert.fields[:1])),
    ]
    for verdict in forged:
        assert check_certificate(seq, verdict, 3, PREC) is False, verdict.cert.shape


def test_a_block_certificate_on_finite_data_is_false_not_an_error():
    w = basis_element(lp(1), C0, 1, BUDGET, PREC)
    for seq in (FiniteRational({0: 1}), zero()):
        for samples in (1, 3):
            assert not check_certificate(seq, CertifiedOut(w.out_cert), samples, PREC)


def test_one_refinement_decides_both_comparisons_as_the_two_loops():
    """"> bound" and ">= bound" read one refined lower end and agree with
    the two loops at every catalog term n <= 64, against the tag bounds
    g(m), the term's box endpoints (its exact modulus where it has one), 0
    and a negative bound, at a coarse and the default precision."""
    for name, seq in sorted(catalog().items()):
        g_bounds = {tag.g(m) for tag in _ref_subseq_tags(seq) for m in range(1, 9)}
        for n in range(65):
            bounds = g_bounds | {F(0), F(-1, 2)}
            for prec in (4, PREC):
                bounds.update(seq.term(n, prec).abs_bounds(prec))
            for b in sorted(bounds):
                for prec in (4, PREC):
                    where = (name, n, b, prec)
                    exceeds = _abs_sq_lower(seq, n, b, prec) > b * b
                    assert exceeds == (_ref_abs_vs_threshold(seq, n, b, prec) > 0), where
                    assert _abs_at_least(seq, n, b, prec) == _ref_abs_at_least(seq, n, b, prec), where


# -- the one pointwise scan equals the four scans ------------------------------------


def _family_grid():
    for k in (0, 1, 2, 3):
        for M in (F(0), F(1, 2), F(1), F(3), F(100)):
            yield ClosedFamily("FMk", (M, k))
    for n in (0, 1, 3, 7):  # starts past 0
        for k in (1, 2, 5):
            yield ClosedFamily("Fnk", (n, k))
    for M in (F(0), F(1, 3), F(1), F(10)):
        yield ClosedFamily("FM", (M,))
    for k in (1, 2, 5):  # starts past 0
        for j in (1, 2, 8):
            yield ClosedFamily("Fkj", (k, j))


@pytest.mark.parametrize("support", [None, "arith"])
def test_pointwise_family_scan_equals_the_reference(support):
    budget = 64
    for name, seq in sorted(catalog().items()):
        if support is not None:
            seq = spread(seq, _SUPPORTS[support])
        for fam in _family_grid():
            got = closed_family_check(seq, fam, budget, PREC)
            assert got == _ref_pointwise_check(seq, fam, budget, PREC), (name, fam)


def test_fmk_with_k_zero_weighs_index_zero():
    # n**0 = 1 at n = 0 as everywhere: a_0 = 3/4 violates ClosedFamily("FMk", (1/2, 0)) at 0,
    # and with k > 0 index 0 carries weight 0 and is never a violation
    seq = catalog()["finite"]
    got = closed_family_check(seq, ClosedFamily("FMk", (F(1, 2), 0)), 64, PREC)
    assert got == _ref_pointwise_check(seq, ClosedFamily("FMk", (F(1, 2), 0)), 64, PREC)
    assert isinstance(got, ViolatedAt) and got.n == 0 and got.lower == F(3, 4)
    got = closed_family_check(seq, ClosedFamily("FMk", (F(1, 2), 1)), 64, PREC)
    assert got == _ref_pointwise_check(seq, ClosedFamily("FMk", (F(1, 2), 1)), 64, PREC)
    assert isinstance(got, ViolatedAt) and got.n == 2


# -- the threshold table resumes its scan at the previous row ---------------------


def _tag_variants():
    """(name, tag): the subsequence tags of every catalog member as is and
    spread onto each support."""
    for name, base in sorted(catalog().items()):
        seqs = [(name, base)] + [
            (f"{name}@{sup_name}", spread(base, sup)) for sup_name, sup in sorted(_SUPPORTS.items())
        ]
        for seq_name, seq in seqs:
            for tag in seq.growth_tags:
                if isinstance(tag, SubseqLowerBound):
                    yield seq_name, tag


def test_threshold_table_equals_the_scan_from_m_1_per_threshold():
    # every weight exponent 0..4 in one scan, and each alone, against the
    # reference's scan from m = 1 per threshold
    tables, scans = [], []
    for name, tag in _tag_variants():
        together = _threshold_table(tag, range(5))
        assert len(together) == 5, name
        scans.append(together)
        for k in range(5):
            ref = _ref_threshold_table(tag, weight_k=k)
            assert _threshold_table(tag, (k,)) == (together[k],), (name, k)
            tables.append((name, k, together[k], ref))
    for name, k, got, ref in tables:
        assert got == ref, (name, k)
    # both outcomes occur: full tables and tables with no row for some threshold
    assert any(ref is None for *_, ref in tables)
    assert any(ref is not None for *_, ref in tables)
    # and both occur inside one scan: bounded tags whose weighted tables
    # complete while the unweighted one never does
    assert any(t[0] is None and t[4] is not None for t in scans)


def _awkward_tag(seed):
    """A subsequence tag whose g(m) has odd denominators, is often zero or
    negative, and mostly puts s(m)**k * g(m), for a random k, exactly on a
    threshold, 1/d below it or 1/d above it, the threshold rising with m."""
    rng = random.Random(seed)
    step, offset = rng.randint(1, 4), rng.randint(0, 5)

    def s(m):
        return step * m + offset

    gs = {}
    for m in range(1, 513):
        shape = rng.randrange(6)
        if shape == 0:
            gs[m] = F(-rng.randint(0, 3), rng.randint(1, 9))
        elif shape == 1:
            gs[m] = F(rng.randint(1, 3), rng.choice((1, 3, 7, 9, 25, 243)))
        else:
            k, t = rng.randrange(5), 1 << min(7, m // 6)
            nudge = F(rng.randint(-1, 1), rng.choice((3, 5, 1 << 40)))
            gs[m] = max(F(0), (t + nudge) / s(m) ** k)
    return SubseqLowerBound(f"awkward-{seed}", s=s, g=gs.__getitem__)


@pytest.mark.parametrize("seed", range(12))
def test_threshold_rows_equal_the_fraction_formula_on_awkward_tags(seed):
    # integer comparisons against threshold times g's denominator give the
    # rows that comparing the rational s(m)**k * g(m) with each threshold gives
    tag = _awkward_tag(seed)
    assert _threshold_table(tag, range(5)) == tuple(
        _ref_threshold_table(tag, weight_k=k) for k in range(5))


def test_threshold_table_reads_each_g_once():
    nat_tag = next(t for t in families.nat().growth_tags if isinstance(t, SubseqLowerBound))
    reads = []

    def g(m):
        reads.append(m)
        return nat_tag.g(m)

    (rows,) = _threshold_table(replace(nat_tag, g=g), (0,))
    assert rows == _ref_threshold_table(nat_tag, weight_k=0)
    assert reads == list(range(1, rows[-1][1] + 1))

    # all k together: each g(m) and s(m) read once, up to the last row of
    # the slowest table; s(m) only while a weighted table is open
    for tag in (nat_tag, *(t for t in families.prop28().growth_tags if isinstance(t, SubseqLowerBound))):
        reads, s_reads = [], []

        def s(m, tag=tag):
            s_reads.append(m)
            return tag.s(m)

        def g(m, tag=tag):
            reads.append(m)
            return tag.g(m)

        tables = _threshold_table(replace(tag, g=g, s=s), range(5))
        refs = tuple(_ref_threshold_table(tag, weight_k=k) for k in range(5))
        assert tables == refs
        last = [rows[-1][1] if rows else 512 for rows in tables]
        assert reads == list(range(1, max(last) + 1))
        assert s_reads == list(range(1, max(last[1:]) + 1))


# -- linf scans no table that cannot complete ---------------------------------------

# sha256 of the linf reports of the bounded tagged members below, as is and
# spread onto each support in _SUPPORTS order, one canonical JSON per line;
# re-recorded when a sup-bound certificate became sup_tail(-1) alone
_BOUNDED_LINF_REPORTS_SHA256 = "e7265eb1a63aa6c9dcb256b4e31cfb5ef22a48461d562865c2aebebec41eaa43"


def _with_counting_g(seq, reads):
    seq.growth_tags = tuple(
        replace(t, g=lambda m, g=t.g: reads.append(m) or g(m)) if isinstance(t, SubseqLowerBound) else t
        for t in seq.growth_tags
    )
    return seq


def test_bounded_tagged_members_scan_no_linf_table():
    # sup_tail(-1) < 128 bounds every g(m) below the top threshold: no tag.g
    # is read, and the reports keep their bytes.  prop28 on the powers of
    # two is the input whose scan once built s(m) = 2**2**m
    digest, skipped = hashlib.sha256(), []
    for name in ("const-one", "gap-lp-cap-1", "gap-lp-cap-2", "prop28", "rem29-evens", "rem29-pow2"):
        reads = []
        base = _with_counting_g(catalog()[name], reads)
        for sup_name, seq in [(name, base)] + [
            (f"{name}@{s}", spread(base, sup)) for s, sup in sorted(_SUPPORTS.items())
        ]:
            assert any(isinstance(t, SubseqLowerBound) for t in seq.growth_tags), sup_name
            assert seq.sup_tail(-1, PREC) < 128, sup_name
            verdict = classify(seq, LINF, BUDGET, PREC)
            assert reads == [], sup_name
            # the reference scans every table to its cap, and finds none
            assert _ref_try_out_certificate(seq, LINF, BUDGET, PREC) is None, sup_name
            reads.clear()
            assert not isinstance(verdict, CertifiedOut), sup_name
            digest.update(canonical_json(verdict_to_json(verdict)).encode() + b"\n")
            skipped.append(sup_name)
    assert len(skipped) == 30 and "prop28@powers-of-two" in skipped
    assert digest.hexdigest() == _BOUNDED_LINF_REPORTS_SHA256

    # an unbounded member has no sup tail: nat and its spreads still scan,
    # and certify unbounded with the reference table
    for seq in [families.nat()] + [spread(families.nat(), sup) for _, sup in sorted(_SUPPORTS.items())]:
        assert seq.sup_tail(-1, PREC) is None
        verdict = classify(seq, LINF, BUDGET, PREC)
        assert verdict.cert.shape == "unbounded", seq.spec()
        tag, table = verdict.cert.fields
        assert table == _ref_rows(tag, weight_k=0)
        assert verdict.cert == _ref_try_out_certificate(seq, LINF, BUDGET, PREC)
        assert check_certificate(seq, verdict, samples=3, prec=PREC)


# -- a certificate re-checks on any node built from the same spec --------------------


def _catalog_forms():
    """Each catalog sequence, its spreads onto three supports, its restriction
    to the evens and its double."""
    for seq in catalog().values():
        yield from (
            seq,
            spread(seq, Arith(1, 3)),
            spread(seq, PowersOfTwo()),
            spread(seq, DyadicRow(2)),
            restrict(seq, Arith(0, 2)),
            combine([2], [seq]),
        )


def test_every_out_certificate_rechecks_on_a_second_parse_of_its_spec():
    outs, failed = 0, []
    for seq in _catalog_forms():
        for space in CHAIN:
            verdict = classify(seq, space, BUDGET, PREC)
            if isinstance(verdict, CertifiedOut):
                outs += 1
                if not check_certificate(sequence_from_spec(seq.spec()), verdict, 3, PREC):
                    failed.append((seq.spec_key(), str(space)))
    assert outs >= 200
    assert failed == []


def test_two_builds_of_one_spec_carry_equal_evidence():
    for seq in _catalog_forms():
        first, second = sequence_from_spec(seq.spec()), sequence_from_spec(seq.spec())
        assert first.growth_tags == second.growth_tags, seq.spec_key()
        labels = [tag.label for tag in first.growth_tags]
        assert len(set(labels)) == len(labels), seq.spec_key()
        for q in (F(1, 2), F(1), F(2), F(3)):
            assert first.lp_divergence(q) == second.lp_divergence(q), (seq.spec_key(), q)


def _raises(*args):
    raise AssertionError("a check called a callable the certificate carries")


@pytest.mark.parametrize(
    "seq, space",
    [
        (families.nat(), LINF),
        (families.nat_power(), HD),
        (spread(families.nn_on_support(Arith(1, 3)), PowersOfTwo()), lp(1)),
    ],
    ids=["nat-linf", "nat-power-hd", "nn-spread-lp1"],
)
def test_a_check_reads_the_nodes_own_tag_or_blocks(seq, space):
    cert = classify(seq, space, BUDGET, PREC).cert
    if cert.shape == "divergent-partial-sums":
        q, blocks, js = cert.fields
        fields = (q, replace(blocks, block=_raises), js)
    elif cert.shape == "root-limsup-exceeds":
        rho, m_start, tag = cert.fields
        fields = (rho, m_start, replace(tag, s=_raises, rho=_raises))
    else:
        assert cert.shape == "unbounded"
        tag, table = cert.fields
        fields = (replace(tag, s=_raises, g=_raises), table)
    for samples in (1, 3):
        assert check_certificate(seq, CertifiedOut(replace(cert, fields=fields)), samples, PREC)
