"""Three-valued membership verdicts with machine-checkable certificates.

``classify`` returns ``CertifiedOut`` or ``CertifiedIn`` only with a
certificate that re-verifies independently via ``check_certificate``;
otherwise ``Undecided``.  Out-certificates are grounded in the growth
tags and block-divergence data carried by the sequence (numeric
estimation alone never certifies divergence or a root-test failure),
and each is checked by the same ``holds`` predicate of its shape that
accepted it when it was built; in-certificates are grounded in the tail
oracles, and a check rebuilds them at their recorded cutoffs.
Membership claims whose quantifiers are infinite (every exponent k,
every radius r, every epsilon) are certified through a recorded finite
schedule backed by the totality of the corresponding oracle.

``closed_family_check`` decides the defining inequality of the closed
families used in the decomposition of each space:

* ``FMk:<M>:<k>``   n**k |a_n| <= M for all n          (ainf)
* ``psum:<p>:<M>``  partial sums of |a_n|**p <= M      (lp)
* ``Fnk:<n>:<k>``   |a_s| <= 1/k for all s >= n        (c0)
* ``FM:<M>``        |a_n| <= M for all n               (linf)
* ``Fkj:<k>:<j>``   |a_n|**(1/n) <= 1+1/j for n >= k   (hd)

"Provably fails" means the certified lower bound of the quantity
strictly exceeds the threshold; overlapping comparisons refine the
precision a bounded number of times and then count as non-violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import index

from .errors import ParseError, UnsupportedSpace
from .intervals import Q0, Q1, DiscSum, PowSum, format_rational, parse_rational, pow_bounds, sqrt_bounds
from .sequences import Sequence, support_indices_upto
from .spaces import AINF, C0, HD, LINF, SpaceId
from .supports import AllNaturals
from .tags import COMPARATORS, BlockDivergence, RootLowerBound, SubseqLowerBound

_SCHEDULE_K = 8          # exponents / radii sampled by in-certificates
_THRESHOLDS = tuple(1 << t for t in range(8))  # unboundedness spot-check ladder
_SCAN_CAP = 512          # tag index scan bound
_DOUBLING_CAP = 220      # cutoff search: N up to ~2**220
_REFINE_STEPS = 4


# -- interval comparisons ----------------------------------------------------


def _abs_vs_threshold(seq: Sequence, n: int, threshold: Fraction, prec: int):
    """Return +1 if |a_n| > threshold provably, -1 if < provably, 0 unknown."""
    t2 = threshold * threshold
    work = prec
    for _ in range(_REFINE_STEPS):
        sq_lo, sq_hi = seq.term(n, work).abs_sq_bounds()
        if sq_lo > t2:
            return 1
        if sq_hi < t2:
            return -1
        if sq_lo == t2 == sq_hi:
            return 0
        work *= 2
    return 0


def _abs_at_least(seq: Sequence, n: int, bound: Fraction, prec: int) -> bool:
    """Confirm |a_n| >= bound (with refinement; equality counts)."""
    if bound <= 0:
        return True
    b2 = bound * bound
    work = prec
    for _ in range(_REFINE_STEPS):
        sq_lo, sq_hi = seq.term(n, work).abs_sq_bounds()
        if sq_lo >= b2:
            return True
        if sq_hi < b2:
            return False
        work *= 2
    return False


def _increasing_points_at_least(seq: Sequence, s, ms, first: int, bound, prec: int) -> bool:
    """The points s(m), m in ms, increase strictly from at least first, and
    |a_n| >= bound(n) at each point n."""
    for m in ms:
        n = s(m)
        if n < first or not _abs_at_least(seq, n, bound(n), prec):
            return False
        first = n + 1
    return True


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class DivergentPartialSums:
    """sum |a_n|**exponent diverges, witnessed by disjoint support-position
    blocks with masses >= a named divergent comparator."""

    exponent: Fraction
    blocks: BlockDivergence
    checked_blocks: tuple[int, ...]

    def describe(self):
        return {
            "shape": "divergent-partial-sums",
            "exponent": format_rational(self.exponent),
            "blocks": self.blocks.describe(),
            "checked_blocks": list(self.checked_blocks),
        }

    def holds(self, seq, space, samples, prec) -> bool:
        if space.tag == "lp":
            fits = self.exponent == space.param
        else:
            fits = space.tag == "cap-lp" and self.exponent > space.param
        js = self.checked_blocks[: max(1, samples)]
        return fits and self.blocks.p == self.exponent and _verify_blocks(seq, self.blocks, js, prec)


@dataclass(frozen=True)
class UnboundedWeighted:
    """n**k |a_n| exceeds every threshold along the tagged subsequence."""

    k: int
    tag: SubseqLowerBound
    table: tuple[tuple[int, int, Fraction], ...]  # (threshold, m, g(m))

    def describe(self):
        return {
            "shape": "unbounded-weighted",
            "k": self.k,
            "tag": self.tag.label,
            "table": [
                [t, self.tag.s(m), format_rational(g)] for t, m, g in self.table
            ],
        }

    def holds(self, seq, space, samples, prec) -> bool:
        return (
            space == AINF
            and self.k >= 1
            and all(Fraction(self.tag.s(m)) ** self.k * g >= t for t, m, g in self.table)
            and _check_table(seq, self.tag, self.table[: max(1, samples)], prec)
        )


@dataclass(frozen=True)
class NotVanishing:
    delta: Fraction
    tag: SubseqLowerBound

    def describe(self):
        return {
            "shape": "not-vanishing",
            "delta": format_rational(self.delta),
            "tag": self.tag.label,
        }

    def holds(self, seq, space, samples, prec) -> bool:
        tag = self.tag
        if space != C0 or self.delta <= 0 or tag.g_inf is None or tag.g_inf < self.delta:
            return False
        ms = range(1, max(1, samples) + 1)
        return _increasing_points_at_least(seq, tag.s, ms, 0, lambda n: self.delta, prec)


@dataclass(frozen=True)
class Unbounded:
    tag: SubseqLowerBound
    table: tuple[tuple[int, int, Fraction], ...]  # (threshold, m, g(m))

    def describe(self):
        return {
            "shape": "unbounded",
            "tag": self.tag.label,
            "table": [
                [t, self.tag.s(m), format_rational(g)] for t, m, g in self.table
            ],
        }

    def holds(self, seq, space, samples, prec) -> bool:
        return (
            space == LINF
            and all(g >= t for t, _, g in self.table)
            and _check_table(seq, self.tag, self.table[: max(1, samples)], prec)
        )


@dataclass(frozen=True)
class RootLimsupExceeds:
    rho: Fraction
    m_start: int
    tag: RootLowerBound

    def describe(self):
        return {
            "shape": "root-limsup-exceeds",
            "rho": format_rational(self.rho),
            "from_sample": self.m_start,
            "tag": self.tag.label,
        }

    def holds(self, seq, space, samples, prec) -> bool:
        ms = range(self.m_start, self.m_start + max(1, samples))
        return (
            space == HD
            and self.rho > 1
            and all(self.tag.rho(m) >= self.rho for m in ms)
            and _increasing_points_at_least(seq, self.tag.s, ms, 1, lambda n: self.rho ** n, prec)
        )


@dataclass(frozen=True)
class OutCert:
    space: SpaceId
    shape: object

    def describe(self):
        return {"space": str(self.space), **self.shape.describe()}


@dataclass(frozen=True)
class InCert:
    """Tail-bound witness: a finite head plus oracle-backed tail bounds,
    recorded together with its cutoffs and precision, so a check rebuilds
    it from those and compares."""

    space: SpaceId
    shape: str
    data: tuple
    prec: int

    def describe(self):
        def render(x):
            if isinstance(x, Fraction):
                return format_rational(x)
            if isinstance(x, tuple):
                return [render(y) for y in x]
            return x

        return {
            "space": str(self.space),
            "shape": self.shape,
            "data": render(self.data),
            "prec": self.prec,
        }


@dataclass(frozen=True)
class CertifiedIn:
    cert: InCert


@dataclass(frozen=True)
class CertifiedOut:
    cert: OutCert


@dataclass(frozen=True)
class Undecided:
    budget: int


def verdict_to_json(v) -> dict:
    if isinstance(v, CertifiedIn):
        return {"verdict": "in", "certificate": v.cert.describe()}
    if isinstance(v, CertifiedOut):
        return {"verdict": "out", "certificate": v.cert.describe()}
    return {"verdict": "undecided", "budget": v.budget}


# -- out-certificate candidates -----------------------------------------------


def _verify_blocks(seq: Sequence, bd: BlockDivergence, js, prec: int) -> bool:
    """Sum the certified lower mass |a_n|**p over every position of each
    block j in js and compare it with beta(j).

    Every sampled term is evaluated, and each block is summed by runs of
    equal (``==``) consecutive terms: a run of ``count`` terms adds
    ``count * low`` once.  The runs are found by ``ComplexInterval``'s
    point-aware ``==``, which compares one endpoint per zero-width axis.
    Exact rational arithmetic makes that the same total as the term-by-term
    sum, so ``abs_sq_bounds`` and the power run once per run, and a
    block-constant witness costs one power per block."""
    if bd.comparator not in COMPARATORS:
        return False
    hint = seq.support_hint or AllNaturals()
    half_p = bd.p / 2
    for j in js:
        k_lo, k_hi = bd.block(j)
        if k_lo < 1 or k_hi < k_lo:
            return False
        terms = (seq.term(hint.nth(k), prec) for k in range(k_lo, k_hi + 1))
        total = PowSum(half_p, prec)
        for iv, run in groupby(terms):
            total.add(iv.abs_sq_bounds()[0], sum(1 for _ in run))
        if total.value < bd.beta(j):
            return False
    return True


def _threshold_table(tag: SubseqLowerBound, weight_k: int):
    """(threshold, m, g(m)) rows with s(m)**weight_k * g(m) >= threshold.

    With weight_k == 0 the factor is 1 and s(m) is never built: on a sparse
    support such as powers of two, s(m) = 2**2**m is too large to hold."""
    rows = []
    for threshold in _THRESHOLDS:
        hit = None
        for m in range(1, _SCAN_CAP + 1):
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


def _check_table(seq, tag, rows, prec) -> bool:
    return all(_abs_at_least(seq, tag.s(m), g, prec) for _, m, g in rows)


def _out_shapes(seq: Sequence, space: SpaceId):
    """Yield (candidate out-shape, samples its build checks) for the space,
    in the order the candidates are tried: root 3, not-vanishing 5, blocks
    3, threshold tables every row."""
    subseq_tags = [t for t in seq.growth_tags if isinstance(t, SubseqLowerBound)]
    if space.tag == "hd":
        for tag in seq.growth_tags:
            if isinstance(tag, RootLowerBound):
                m_start = next((m for m in range(1, _SCAN_CAP + 1) if tag.rho(m) >= 2), None)
                if m_start is not None:
                    yield RootLimsupExceeds(rho=Fraction(2), m_start=m_start, tag=tag), 3
    elif space.tag == "linf":
        for tag in subseq_tags:
            rows = _threshold_table(tag, weight_k=0)
            if rows:
                yield Unbounded(tag=tag, table=rows), len(rows)
    elif space.tag == "c0":
        for tag in subseq_tags:
            if tag.g_inf is not None and tag.g_inf > 0:
                yield NotVanishing(delta=tag.g_inf, tag=tag), 5
    elif space.tag in ("lp", "cap-lp"):
        if space.tag == "lp":
            bd = seq.lp_divergence(space.param)
            q = None if bd is None else bd.p
        else:
            q, bd = seq.cap_divergence(space.param) or (None, None)
        if bd is not None:
            js = tuple(range(bd.j_start, bd.j_start + 3))
            yield DivergentPartialSums(exponent=q, blocks=bd, checked_blocks=js), 3
    elif space.tag == "ainf":
        for k in range(1, 5):
            for tag in subseq_tags:
                rows = _threshold_table(tag, weight_k=k)
                if rows:
                    yield UnboundedWeighted(k=k, tag=tag, table=rows), len(rows)
    elif space.tag != "cn0":  # every sequence belongs to the product space cn0
        raise UnsupportedSpace(space.tag)


def try_out_certificate(seq: Sequence, space: SpaceId, budget: int, prec: int):
    """The first candidate OutCert that its own check accepts, or None."""
    for shape, samples in _out_shapes(seq, space):
        if shape.holds(seq, space, samples, prec):
            return OutCert(space, shape)
    return None


# -- in-certificate construction ---------------------------------------------


def _head_moduli(seq: Sequence, N: int, prec: int, root: bool = False):
    """(n, upper bound on |a_n|**2 at prec) for every support index n <= N,
    or on |a_n| when root is set (the sup and disc heads).

    A certificate call builds one head per cutoff N and every row of its
    schedule reads from it, so each |a_n| is bounded once per call; the
    list dies with the call."""
    head = []
    for n in support_indices_upto(seq, N):
        sq_hi = seq.term(n, prec).abs_sq_bounds()[1]
        head.append((n, sqrt_bounds(sq_hi, prec)[1] if root else sq_hi))
    return head


def _lp_head_upper(head, p: Fraction, prec: int) -> Fraction:
    """Upper bound on the head sum of |a_n|**p from a squared head."""
    total = PowSum(p / 2, prec, upper=True)
    for sq_hi, run in groupby(sq for _, sq in head):  # a run of equal moduli adds once
        total.add(sq_hi, sum(1 for _ in run))
    return total.value


def _find_cutoff(probe, target: Fraction, start: int):
    """Smallest doubling N = start * 2**i with probe(N) <= target, or None."""
    N = start
    for _ in range(_DOUBLING_CAP):
        value = probe(N)
        if value is None:
            return None
        if value <= target:
            return N, value
        N *= 2
    return None


def _in_cert(seq: Sequence, space: SpaceId, cuts, prec: int):
    """The InCert of the space at the given cutoffs, or None when an oracle
    cannot certify it.  ``cuts`` is the head cutoff N for lp, cap-lp, linf
    and hd, and one doubling-search start per schedule row for c0 and ainf.

    Schedules over exponents p_n (cap-lp) or radii r_k (hd) share one
    cutoff N, so their rows read one head of moduli built once per call
    (after every tail oracle has answered).  The ``disc-schedule`` rows sum
    that head with the one disc-sum kernel, ``intervals.DiscSum``."""
    if space.tag == "cn0":
        return InCert(space, "total", (), prec)

    if space.tag == "lp":
        tail = seq.tail_majorant(cuts, space.param, prec)
        if tail is None:
            return None
        head = _lp_head_upper(_head_moduli(seq, cuts, prec), space.param, prec)
        return InCert(space, "lp-tail", (space.param, cuts, head, tail), prec)

    if space.tag == "cap-lp":
        tails = []
        for n in range(1, _SCHEDULE_K + 1):
            p_n = space.param + Fraction(1, n)
            tail = seq.tail_majorant(cuts, p_n, prec)
            if tail is None:
                return None
            tails.append((p_n, tail))
        moduli = _head_moduli(seq, cuts, prec)
        rows = tuple(
            (p_n, cuts, _lp_head_upper(moduli, p_n, prec), tail) for p_n, tail in tails
        )
        return InCert(space, "lp-schedule", rows, prec)

    if space.tag == "c0":
        # the schedule cuts at support positions: beyond the K-th support
        # point every term modulus is <= eps (off-support terms are zero),
        # which keeps the cutoffs representable on sparse supports
        rows = []
        for i, start in enumerate(cuts):
            eps = Fraction(1, 1 << i)
            found = _find_cutoff(lambda K: seq.pos_sup_tail(K, prec), eps, start)
            if found is None:
                return None
            rows.append((eps, found[0], found[1]))
        return InCert(space, "vanishing-schedule", tuple(rows), prec)

    if space.tag == "linf":
        tail = seq.sup_tail(cuts, prec)
        if tail is None:
            return None
        head = max((a for _, a in _head_moduli(seq, cuts, prec, root=True)), default=Q0)
        return InCert(space, "sup-bound", (cuts, max(head, tail)), prec)

    if space.tag == "hd":
        tails = []
        for k in range(1, _SCHEDULE_K + 1):
            r_k = Fraction(k, k + 1)
            tail = seq.disc_tail(cuts, r_k, prec)
            if tail is None:
                return None
            tails.append((r_k, tail))
        moduli = _head_moduli(seq, cuts, prec, root=True)
        rows = tuple((r_k, cuts, DiscSum(r_k).extend(moduli).value + tail) for r_k, tail in tails)
        return InCert(space, "disc-schedule", rows, prec)

    if space.tag == "ainf":
        rows = []
        for k, start in enumerate(cuts):
            eps = Fraction(1, 64)
            found = _find_cutoff(lambda N: seq.poly_sup_tail(N, k, prec), eps, start)
            if found is None:
                return None
            rows.append((k, eps, found[0], found[1]))
        return InCert(space, "poly-schedule", tuple(rows), prec)

    raise UnsupportedSpace(space.tag)


def try_in_certificate(seq: Sequence, space: SpaceId, budget: int, prec: int):
    """Build an InCert, or None: heads cut at min(budget, 256), or at
    min(budget, 64) for hd; every schedule row searches from 16."""
    if space.tag == "c0":
        return _in_cert(seq, space, (16,) * _SCHEDULE_K, prec)
    if space.tag == "ainf":
        return _in_cert(seq, space, (16,) * (_SCHEDULE_K + 1), prec)
    return _in_cert(seq, space, min(budget, 64 if space.tag == "hd" else 256), prec)


def classify(seq: Sequence, space: SpaceId, budget: int, prec: int):
    """Certified membership verdict for the sequence in the space."""
    out = try_out_certificate(seq, space, budget, prec)
    if out is not None:
        return CertifiedOut(out)
    inc = try_in_certificate(seq, space, budget, prec)
    if inc is not None:
        return CertifiedIn(inc)
    return Undecided(budget)


# -- certificate re-verification ---------------------------------------------


def check_certificate(seq: Sequence, verdict, samples: int, prec: int) -> bool:
    """Independently re-verify a CertifiedIn/CertifiedOut verdict."""
    if isinstance(verdict, CertifiedOut):
        # a shape's holds is its whole rule: the space it certifies, its
        # structure and its spot-checks; try_out_certificate calls it too
        shape, space = verdict.cert.shape, verdict.cert.space
        shapes = (DivergentPartialSums, UnboundedWeighted, NotVanishing, Unbounded, RootLimsupExceeds)
        return isinstance(shape, shapes) and shape.holds(seq, space, samples, prec)
    if isinstance(verdict, CertifiedIn):
        return _check_in(seq, verdict.cert)
    raise ValueError("only certified verdicts carry certificates")


# space tag -> (its in-certificate shape, the number of data entries, and
# the cutoffs _in_cert takes, read from the data; index() turns away a
# cutoff that is not an integer)
_IN_SHAPES = {
    "cn0": ("total", 0, lambda data: None),
    "lp": ("lp-tail", 4, lambda data: index(data[1])),
    "cap-lp": ("lp-schedule", _SCHEDULE_K, lambda data: index(data[0][1])),
    "c0": ("vanishing-schedule", _SCHEDULE_K, lambda data: tuple(index(r[1]) for r in data)),
    "linf": ("sup-bound", 2, lambda data: index(data[0])),
    "hd": ("disc-schedule", _SCHEDULE_K, lambda data: index(data[0][1])),
    "ainf": ("poly-schedule", _SCHEDULE_K + 1, lambda data: tuple(index(r[2]) for r in data)),
}


def _check_in(seq, cert: InCert) -> bool:
    """Rebuild the certificate at its recorded cutoffs and compare: every
    row, cutoff and number must come out the same."""
    shape, size, read_cuts = _IN_SHAPES[cert.space.tag]
    try:
        if cert.shape != shape or len(cert.data) != size:
            return False
        cuts = read_cuts(cert.data)
    except (IndexError, TypeError):
        return False
    return _in_cert(seq, cert.space, cuts, cert.prec) == cert


# -- closed families ----------------------------------------------------------


@dataclass(frozen=True)
class FMk:
    M: Fraction
    k: int


@dataclass(frozen=True)
class PartialSum:
    p: Fraction
    M: Fraction


@dataclass(frozen=True)
class Fnk:
    n: int
    k: int


@dataclass(frozen=True)
class FM:
    M: Fraction


@dataclass(frozen=True)
class Fkj:
    k: int
    j: int


def format_family(fam) -> str:
    if isinstance(fam, FMk):
        return f"FMk:{format_rational(fam.M)}:{fam.k}"
    if isinstance(fam, PartialSum):
        return f"psum:{format_rational(fam.p)}:{format_rational(fam.M)}"
    if isinstance(fam, Fnk):
        return f"Fnk:{fam.n}:{fam.k}"
    if isinstance(fam, FM):
        return f"FM:{format_rational(fam.M)}"
    if isinstance(fam, Fkj):
        return f"Fkj:{fam.k}:{fam.j}"
    raise TypeError(f"not a family ref: {fam!r}")


def parse_family(text: str):
    head, *rest = text.strip().split(":")
    try:
        if head == "FMk" and len(rest) == 2:
            return FMk(M=parse_rational(rest[0]), k=int(rest[1]))
        if head == "psum" and len(rest) == 2:
            return PartialSum(p=parse_rational(rest[0]), M=parse_rational(rest[1]))
        if head == "Fnk" and len(rest) == 2:
            return Fnk(n=int(rest[0]), k=int(rest[1]))
        if head == "FM" and len(rest) == 1:
            return FM(M=parse_rational(rest[0]))
        if head == "Fkj" and len(rest) == 2:
            return Fkj(k=int(rest[0]), j=int(rest[1]))
    except ValueError as exc:
        raise ParseError(f"bad family ref {text!r}: {exc}") from None
    raise ParseError(f"bad family ref {text!r}")


@dataclass(frozen=True)
class ViolatedAt:
    """First index where the family inequality provably fails; lower/upper
    bound the violating quantity (the weighted term, the term modulus, or
    the partial sum, depending on the family)."""

    n: int
    lower: Fraction
    upper: Fraction


@dataclass(frozen=True)
class ConsistentUpTo:
    N: int


def _pointwise_rule(fam):
    """(first index, n -> (weight, bound)) of a pointwise family, which asks
    weight * |a_n| <= bound at every support index n >= the first index."""
    if isinstance(fam, FMk):
        if fam.M < 0 or fam.k < 0:
            raise ParseError(f"bad family ref {format_family(fam)}: parameters out of range")
        return 0, lambda n: (Fraction(n) ** fam.k, fam.M)
    if isinstance(fam, Fnk):
        if fam.k < 1:
            raise ParseError(f"bad family ref {format_family(fam)}: need k >= 1")
        return fam.n, lambda n: (Q1, Fraction(1, fam.k))
    if isinstance(fam, FM):
        if fam.M < 0:
            raise ParseError(f"bad family ref {format_family(fam)}: bound must be >= 0")
        return 0, lambda n: (Q1, fam.M)
    if isinstance(fam, Fkj):
        if fam.k < 1 or fam.j < 1:
            raise ParseError(f"bad family ref {format_family(fam)}: need k, j >= 1")
        return fam.k, lambda n: (Q1, (1 + Fraction(1, fam.j)) ** n)
    raise TypeError(f"not a family ref: {fam!r}")


def closed_family_check(seq: Sequence, fam, budget: int, prec: int):
    """Scan indices <= budget for a provable violation of the family's
    defining inequality."""
    if isinstance(fam, PartialSum):
        if fam.p <= 0:
            raise ParseError(f"bad family ref {format_family(fam)}: exponent must be positive")
        hp = prec + 32
        cum_lo, cum_hi = PowSum(fam.p / 2, hp), PowSum(fam.p / 2, hp, upper=True)
        for n in support_indices_upto(seq, budget):
            sq_lo, sq_hi = seq.term(n, hp).abs_sq_bounds()
            cum_hi.add(sq_hi)
            if cum_lo.add(sq_lo).value > fam.M:
                return ViolatedAt(n, cum_lo.value, cum_hi.value)
        return ConsistentUpTo(budget)

    first, rule = _pointwise_rule(fam)
    for n in support_indices_upto(seq, budget):
        if n < first:
            continue
        weight, bound = rule(n)
        # weight 0 (FMk at n = 0, k > 0) asks 0 <= M, which holds
        if weight and _abs_vs_threshold(seq, n, bound / weight, prec) > 0:
            lo, hi = seq.term(n, prec * 2).abs_bounds(prec * 2)
            return ViolatedAt(n, weight * lo, weight * hi)
    return ConsistentUpTo(budget)


def decompose_report(seq: Sequence, space: SpaceId, outer, inner, budget: int, prec: int):
    """closed_family_check over a parameter grid; rows keyed by family ref."""
    outer, inner = list(outer), list(inner)
    rows = []

    def run(fam):
        rows.append((fam, closed_family_check(seq, fam, budget, prec)))

    if space.tag == "ainf":
        for k in outer:
            for M in inner:
                run(FMk(M=Fraction(M), k=int(k)))
    elif space.tag == "lp":
        for M in inner:
            run(PartialSum(p=space.param, M=Fraction(M)))
    elif space.tag == "cap-lp":
        for n in outer:
            if int(n) < 1:
                raise ParseError(f"cap-lp exponent index {n} must be >= 1")
            p_n = space.param + Fraction(1, int(n))
            for M in inner:
                run(PartialSum(p=p_n, M=Fraction(M)))
    elif space.tag == "c0":
        for k in outer:
            for n in inner:
                run(Fnk(n=int(n), k=int(k)))
    elif space.tag == "linf":
        for M in inner:
            run(FM(M=Fraction(M)))
    elif space.tag == "hd":
        for j in outer:
            for k in inner:
                run(Fkj(k=int(k), j=int(j)))
    else:
        raise UnsupportedSpace(f"no decomposition for {space}")
    return rows
