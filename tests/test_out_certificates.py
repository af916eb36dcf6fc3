"""Out-certificates built and checked by one ``holds`` predicate per shape,
the one threshold scan behind the pointwise closed families, and the one
refinement of |a_n| against a bound, against reference copies of the
per-space build, check, scan and refinement code they replaced; and the
re-check of every out-certificate on a second node of its spec, which
reads that node's own tags and blocks."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import BUDGET, PREC, catalog
from seqchain import families
from seqchain.diagnose import (
    FM,
    CertifiedIn,
    CertifiedOut,
    ConsistentUpTo,
    DivergentPartialSums,
    FMk,
    Fkj,
    Fnk,
    NotVanishing,
    OutCert,
    RootLimsupExceeds,
    Unbounded,
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
from seqchain.intervals import Q1
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


def _ref_check_table(seq, tag, rows, prec):
    return all(_ref_abs_at_least(seq, tag.s(m), g, prec) for _, m, g in rows)


# -- reference: the per-space build and check the holds predicates replaced -------


def _ref_subseq_tags(seq):
    return [t for t in seq.growth_tags if isinstance(t, SubseqLowerBound)]


def _ref_verify_root_cert(seq, cert, samples, prec):
    if cert.rho <= 1:
        return False
    tag = cert.tag
    prev_s = -1
    for m in range(cert.m_start, cert.m_start + max(1, samples)):
        s = tag.s(m)
        if s <= prev_s or s < 1:
            return False
        prev_s = s
        if tag.rho(m) < cert.rho:
            return False
        if not _ref_abs_at_least(seq, s, cert.rho ** s, prec):
            return False
    return True


def _ref_verify_not_vanishing(seq, cert, samples, prec):
    if cert.delta <= 0 or cert.tag.g_inf is None or cert.tag.g_inf < cert.delta:
        return False
    prev_s = -1
    for m in range(1, max(1, samples) + 1):
        s = cert.tag.s(m)
        if s <= prev_s:
            return False
        prev_s = s
        if not _ref_abs_at_least(seq, s, cert.delta, prec):
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
            cert = RootLimsupExceeds(rho=rho, m_start=m_start, tag=tag)
            if _ref_verify_root_cert(seq, cert, samples=3, prec=prec):
                return OutCert(space, cert)
        return None
    if space.tag == "linf":
        for tag in _ref_subseq_tags(seq):
            rows = _ref_threshold_table(tag, weight_k=0)
            if rows and _ref_check_table(seq, tag, rows, prec):
                return OutCert(space, Unbounded(tag=tag, table=rows))
        return None
    if space.tag == "c0":
        for tag in _ref_subseq_tags(seq):
            if tag.g_inf is not None and tag.g_inf > 0:
                cert = NotVanishing(delta=tag.g_inf, tag=tag)
                if _ref_verify_not_vanishing(seq, cert, samples=5, prec=prec):
                    return OutCert(space, cert)
        return None
    if space.tag == "lp":
        bd = seq.lp_divergence(space.param)
        if bd is None or bd.p != space.param:
            return None
        js = _ref_blocks_to_check(bd)
        if _verify_blocks(seq, bd, js, prec):
            return OutCert(
                space, DivergentPartialSums(exponent=bd.p, blocks=bd, checked_blocks=js)
            )
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
            return OutCert(
                space, DivergentPartialSums(exponent=q, blocks=bd, checked_blocks=js)
            )
        return None
    if space.tag == "ainf":
        for k in range(1, 5):
            for tag in _ref_subseq_tags(seq):
                rows = _ref_threshold_table(tag, weight_k=k)
                if rows and _ref_check_table(seq, tag, rows, prec):
                    return OutCert(space, Unbounded(tag=tag, table=rows, k=k))
        return None
    raise UnsupportedSpace(space.tag)


def _ref_check_out(seq, cert, samples, prec):
    shape = cert.shape
    space = cert.space
    if isinstance(shape, DivergentPartialSums):
        if space.tag == "lp" and shape.exponent != space.param:
            return False
        if space.tag == "cap-lp" and shape.exponent <= space.param:
            return False
        if space.tag not in ("lp", "cap-lp"):
            return False
        if shape.blocks.p != shape.exponent:
            return False
        js = shape.checked_blocks[: max(1, samples)]
        return _verify_blocks(seq, shape.blocks, js, prec)
    if isinstance(shape, Unbounded) and shape.k >= 1:
        if space != AINF:
            return False
        for threshold, m, g in shape.table:
            if Fraction(shape.tag.s(m)) ** shape.k * g < threshold:
                return False
        return _ref_check_table(seq, shape.tag, shape.table[: max(1, samples)], prec)
    if isinstance(shape, Unbounded) and shape.k == 0:
        if space != LINF:
            return False
        for threshold, m, g in shape.table:
            if g < threshold:
                return False
        return _ref_check_table(seq, shape.tag, shape.table[: max(1, samples)], prec)
    if isinstance(shape, NotVanishing):
        return space == C0 and _ref_verify_not_vanishing(seq, shape, samples, prec)
    if isinstance(shape, RootLimsupExceeds):
        return space == HD and _ref_verify_root_cert(seq, shape, samples, prec)
    return False


# -- reference: the four pointwise family scans the one scan replaced --------------


def _ref_report_abs(seq, n, prec, weight=Q1):
    lo, hi = seq.term(n, prec).abs_bounds(prec)
    return weight * lo, weight * hi


def _ref_pointwise_check(seq, fam, budget, prec):
    if isinstance(fam, FMk):
        for n in seq.support_hint.elements_upto(budget):
            weight = Fraction(n) ** fam.k
            if weight == 0:
                if fam.k > 0:
                    continue
                weight = Q1
            if _ref_abs_vs_threshold(seq, n, fam.M / weight, prec) > 0:
                lo, hi = _ref_report_abs(seq, n, prec * 2, weight)
                return ViolatedAt(n, lo, hi)
        return ConsistentUpTo(budget)
    if isinstance(fam, Fnk):
        threshold = Fraction(1, fam.k)
        for s in seq.support_hint.elements_upto(budget):
            if s < fam.n:
                continue
            if _ref_abs_vs_threshold(seq, s, threshold, prec) > 0:
                lo, hi = _ref_report_abs(seq, s, prec * 2)
                return ViolatedAt(s, lo, hi)
        return ConsistentUpTo(budget)
    if isinstance(fam, FM):
        for n in seq.support_hint.elements_upto(budget):
            if _ref_abs_vs_threshold(seq, n, fam.M, prec) > 0:
                lo, hi = _ref_report_abs(seq, n, prec * 2)
                return ViolatedAt(n, lo, hi)
        return ConsistentUpTo(budget)
    if isinstance(fam, Fkj):
        base = 1 + Fraction(1, fam.j)
        for n in seq.support_hint.elements_upto(budget):
            if n < max(fam.k, 1):
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
    return cert.shape.describe()["shape"]


@pytest.fixture(scope="module")
def built():
    """(name, seq, space, new OutCert or None, reference OutCert or None)."""
    rows = []
    for name, seq in _variants():
        for space in CHAIN:
            new = try_out_certificate(seq, space, BUDGET, PREC)
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
            moved = OutCert(other, new.shape)
            got = check_certificate(seq, CertifiedOut(moved), 3, PREC)
            assert got == _ref_check_out(seq, moved, 3, PREC), (name, str(space), str(other))
            if other.tag not in _SHAPE_TAGS[_shape_name(new)]:
                assert not got, (name, str(space), str(other))
            elif got:
                assert try_in_certificate(seq, other, BUDGET, PREC) is None, (name, str(other))


def _built_shape(seq, space, shape_name):
    cert = try_out_certificate(seq, space, BUDGET, PREC)
    assert _shape_name(cert) == shape_name
    return cert


def test_weighted_row_below_its_threshold_rejected():
    # the last row keeps its index and its true lower bound g (so the term
    # check passes) but claims a threshold above s(m)**k * g
    seq = families.nat()
    cert = _built_shape(seq, AINF, "unbounded-weighted")
    shape = cert.shape
    _, m, g = shape.table[-1]
    weighted = Fraction(shape.tag.s(m)) ** shape.k * g
    forged = replace(shape, table=shape.table[:-1] + ((int(weighted) + 1, m, g),))
    assert _ref_check_table(seq, shape.tag, forged.table, PREC)
    for samples in (1, 8):
        assert check_certificate(seq, CertifiedOut(cert), samples, PREC)
        assert not check_certificate(seq, CertifiedOut(OutCert(AINF, forged)), samples, PREC)


def test_unbounded_row_below_its_threshold_rejected():
    seq = families.nat()
    cert = _built_shape(seq, LINF, "unbounded")
    shape = cert.shape
    _, m, g = shape.table[-1]
    forged = replace(shape, table=shape.table[:-1] + ((int(g) + 1, m, g),))
    assert _ref_check_table(seq, shape.tag, forged.table, PREC)
    for samples in (1, 8):
        assert check_certificate(seq, CertifiedOut(cert), samples, PREC)
        assert not check_certificate(seq, CertifiedOut(OutCert(LINF, forged)), samples, PREC)


def test_unbounded_rejects_a_weight_exponent_that_does_not_fit_its_space():
    # nat's tables pass their term checks; only k and the space are forged
    seq = families.nat()
    linf = _built_shape(seq, LINF, "unbounded").shape
    ainf = _built_shape(seq, AINF, "unbounded-weighted").shape
    forged = [
        (LINF, replace(linf, k=-1)),
        (AINF, replace(linf, k=-1)),
        (AINF, replace(ainf, k=-1)),
        (AINF, linf),  # a k = 0 table in ainf
        (LINF, ainf),  # a k >= 1 table in linf
        (LINF, replace(ainf, k=0)),  # nat's ainf table relabelled k = 0
        (AINF, replace(ainf, k=0)),
    ]
    for space, shape in forged:
        assert _ref_check_table(seq, shape.tag, shape.table, PREC)
        for samples in (1, 8):
            cert = OutCert(space, shape)
            assert not check_certificate(seq, CertifiedOut(cert), samples, PREC), (str(space), shape.k)
            assert not _ref_check_out(seq, cert, samples, PREC), (str(space), shape.k)


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
        (nat_power, OutCert(C0, NotVanishing(delta=F(1), tag=root))),
        (nat_power, OutCert(LINF, Unbounded(tag=root, table=((1, 1, F(1)),)))),
        (nat, OutCert(HD, RootLimsupExceeds(rho=F(2), m_start=1, tag=subseq))),
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
        (one, OutCert(LINF, Unbounded(tag=tag, table=((1, 1, F(1)),)))),
        (one, OutCert(LINF, Unbounded(tag=tag, table=()))),
        (gap, OutCert(lp(q), DivergentPartialSums(exponent=q, blocks=gap.lp_divergence(q), checked_blocks=()))),
    ]
    for seq, cert in forged:
        for samples in (1, 3, 8):
            assert not check_certificate(seq, CertifiedOut(cert), samples, PREC), cert.shape


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
            yield FMk(M=M, k=k)
    for n in (0, 1, 3, 7):  # starts past 0
        for k in (1, 2, 5):
            yield Fnk(n=n, k=k)
    for M in (F(0), F(1, 3), F(1), F(10)):
        yield FM(M=M)
    for k in (1, 2, 5):  # starts past 0
        for j in (1, 2, 8):
            yield Fkj(k=k, j=j)


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
    # n**0 = 1 at n = 0 as everywhere: a_0 = 3/4 violates FMk(1/2, 0) at 0,
    # and with k > 0 index 0 carries weight 0 and is never a violation
    seq = catalog()["finite"]
    got = closed_family_check(seq, FMk(M=F(1, 2), k=0), 64, PREC)
    assert got == _ref_pointwise_check(seq, FMk(M=F(1, 2), k=0), 64, PREC)
    assert isinstance(got, ViolatedAt) and got.n == 0 and got.lower == F(3, 4)
    got = closed_family_check(seq, FMk(M=F(1, 2), k=1), 64, PREC)
    assert got == _ref_pointwise_check(seq, FMk(M=F(1, 2), k=1), 64, PREC)
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
        shape = verdict.cert.shape
        assert isinstance(shape, Unbounded) and shape.k == 0, seq.spec()
        assert shape.table == _ref_threshold_table(shape.tag, weight_k=0)
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
    shape = classify(seq, space, BUDGET, PREC).cert.shape
    if isinstance(shape, DivergentPartialSums):
        forged = replace(shape, blocks=replace(shape.blocks, block=_raises))
    elif isinstance(shape, RootLimsupExceeds):
        forged = replace(shape, tag=replace(shape.tag, s=_raises, rho=_raises))
    else:
        assert isinstance(shape, Unbounded)
        forged = replace(shape, tag=replace(shape.tag, s=_raises, g=_raises))
    for samples in (1, 3):
        assert check_certificate(seq, CertifiedOut(OutCert(space, forged)), samples, PREC)
