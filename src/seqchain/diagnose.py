"""Three-valued membership verdicts with machine-checkable certificates.

``classify`` returns ``CertifiedOut`` or ``CertifiedIn`` only with a
certificate that re-verifies independently via ``check_certificate``;
otherwise ``Undecided``.  Every certificate is one record (space, shape,
fields); ``_SHAPES`` gives each shape the verdict it backs, its field names
and its check, and one rule renders every field value.  Out-certificates
are grounded in the growth tags and block-divergence data carried by the
sequence (numeric estimation alone never certifies divergence or a
root-test failure), and each is checked by the same check that accepted it
when it was built, reading only the checked node's own evidence: its growth
tag equal to the certificate's (tags and blocks compare by data), or its
``lp_divergence``, so a certificate re-checks on any node built from the
same spec.  In-certificates rest on the tail oracles alone: a row records
its oracle's bound on the whole row (at N = -1, or past a searched cutoff
for c0 and ainf), and a check accepts a bound at least the oracle's.
One scan per tag builds the threshold tables of every weight exponent k.
No linf table is scanned when ``sup_tail(-1)`` bounds every |a_n| below the
top threshold: a tag promises g(m) <= |a_{s(m)}|, so no table could
complete.  This drops only tables resting on broken tags, never adds one.
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
Every comparison of |a_n| with a bound, here and in the out-shapes, reads
the lower end of one refinement loop, ``_abs_sq_lower``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, SeqchainError, UnsupportedSpace
from .intervals import Q1, Frozen, PowSum, format_rational, setters
from .sequences import Sequence
from .spaces import AINF, C0, HD, LINF, SpaceId, row_tail, seminorm_rows
from .tags import COMPARATORS, BlockDivergence, RootLowerBound, SubseqLowerBound

_SCHEDULE_K = 8          # exponents / radii sampled by in-certificates
_THRESHOLDS = tuple(1 << t for t in range(8))  # unboundedness spot-check ladder
_SCAN_CAP = 512          # tag index scan bound
_DOUBLING_CAP = 220      # cutoff search: N up to ~2**220
_REFINE_STEPS = 4
_C0_EPSILONS = tuple(Fraction(1, 1 << i) for i in range(_SCHEDULE_K))  # vanishing-schedule rows
_AINF_EPS = Fraction(1, 64)  # the bound of every poly-schedule row


# -- interval comparisons ----------------------------------------------------


def _abs_sq_lower(seq: Sequence, n: int, bound: Fraction, prec: int) -> Fraction:
    """Lower end of |a_n|**2, refined (precision doubling, at most
    ``_REFINE_STEPS`` boxes) until the box is a point or lies strictly on one
    side of bound**2.  "|a_n| > bound" and ">= bound" both read it: boxes
    nest as the precision doubles, so lower ends only rise and upper ends
    only fall, and the last lower end decides both as early exits would."""
    b2 = bound * bound
    work = prec
    for _ in range(_REFINE_STEPS):
        sq_lo, sq_hi = seq.term(n, work).abs_sq_bounds()
        if sq_lo > b2 or sq_hi < b2 or sq_lo == sq_hi:
            break
        work *= 2
    return sq_lo


def _abs_at_least(seq: Sequence, n: int, bound: Fraction, prec: int) -> bool:
    """Confirm |a_n| >= bound (with refinement; equality counts)."""
    return bound <= 0 or _abs_sq_lower(seq, n, bound, prec) >= bound * bound


def _increasing_points_at_least(seq: Sequence, s, ms, first: int, bound, prec: int) -> bool:
    """The points s(m), m in ms, increase strictly from at least first, and
    |a_n| >= bound(n) at each point n."""
    for m in ms:
        n = s(m)
        if n < first or not _abs_at_least(seq, n, bound(n), prec):
            return False
        first = n + 1
    return True


def _own_tag(seq: Sequence, tag, kind):
    """The node's own growth tag equal to the certificate's and of the class
    ``kind`` the shape reads, or None."""
    return next((own for own in seq.growth_tags if own == tag and isinstance(own, kind)), None)


# -- certificates ------------------------------------------------------------


class Certificate(Frozen):
    """The evidence of a verdict: its space, its shape, and the shape's fields
    in the order ``_SHAPES`` names them.  An in-shape holds (rows, prec): per
    row of the space's schedule, its parameters, the searched cutoff for c0
    and ainf, and an upper bound on the row, not a norm estimate; for cap-lp,
    (t, rows) with the threshold t."""

    _fields = ("space", "shape", "fields")
    __slots__ = (*_fields, "_hash")

    def __init__(self, space: SpaceId, shape: str, fields: tuple):
        _set_space(self, space)
        _set_shape(self, shape)
        _set_fields(self, fields)

    # a kept out-check's key hashes its certificate on every check, and
    # hashing the Fractions each time cost construct about 5 %: the first
    # hash is written to the ``_hash`` slot, which later ones read
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.space, self.shape, self.fields))
            _set_hash(self, h)
            return h

    def describe(self):
        names = _SHAPES[self.shape][1]
        return {"space": str(self.space), "shape": self.shape,
                **dict(zip(names, map(_render, self.fields)))}


_set_space, _set_shape, _set_fields = setters(Certificate)
_set_hash = Certificate._hash.__set__


def _render(x):
    """A field value as a report holds it: a Fraction as num/den, a tuple as a
    list, a growth tag as its label, block data as its ``describe()``, an int
    as itself; by exact type, as ``isinstance`` of ``Fraction`` is slow."""
    kind = type(x)
    if kind is tuple:
        return [_render(y) for y in x]
    if kind is Fraction:
        return format_rational(x)
    if kind is SubseqLowerBound or kind is RootLowerBound:
        return x.label
    if kind is BlockDivergence:
        return x.describe()
    return x


class CertifiedIn(Frozen):
    __slots__ = _fields = ("cert",)

    def __init__(self, cert: Certificate):
        _set_in_cert(self, cert)


class CertifiedOut(Frozen):
    __slots__ = _fields = ("cert",)

    def __init__(self, cert: Certificate):
        _set_out_cert(self, cert)


class Undecided(Frozen):
    __slots__ = _fields = ("budget",)

    def __init__(self, budget: int):
        _set_budget(self, budget)


(_set_in_cert,) = setters(CertifiedIn)
(_set_out_cert,) = setters(CertifiedOut)
(_set_budget,) = setters(Undecided)


def verdict_to_json(v) -> dict:
    if isinstance(v, Undecided):
        return {"verdict": "undecided", "budget": v.budget}
    verdict = "in" if isinstance(v, CertifiedIn) else "out"
    return {"verdict": verdict, "certificate": v.cert.describe()}


# -- out-certificate candidates -----------------------------------------------


def _verify_blocks(seq: Sequence, bd: BlockDivergence, js, prec: int) -> bool:
    """Sum the certified lower mass |a_n|**p over every position of each
    block j in js and compare it with beta(j).

    Each block is summed over ``seq.position_runs``, one power per run, which
    exact rationals make the term-by-term sum however the runs split: a
    ``gap-cap-c0`` level run (or a spread's) reads no term, the default all."""
    if bd.comparator not in COMPARATORS:
        return False
    for j in js:
        k_lo, k_hi = bd.block(j)
        if k_lo < 1 or k_hi < k_lo:
            return False
        total = PowSum(bd.p, prec)
        for box, count in seq.position_runs(k_lo, k_hi, prec):
            total.extend((box.modulus_bounds()[0],), count)
        if total.value < bd.beta(j):
            return False
    return True


def _threshold_table(tag: SubseqLowerBound, ks):
    """Per k in ks, the (threshold, m, g(m)) rows with s(m)**k * g(m) >=
    threshold, each at the least such m, or None if a threshold has no row by
    ``_SCAN_CAP``.  The thresholds ascend, so the m of a row meets every smaller
    one too: one scan from m = 1 serves every threshold and k, reads each g(m)
    once, and builds s(m) once, only while a weighted table is open; each
    test is s(m)**k * num(g) >= threshold * den(g), on integers."""
    rows = {k: [] for k in ks}
    for m in range(1, _SCAN_CAP + 1):
        open_ks = [k for k, table in rows.items() if len(table) < len(_THRESHOLDS)]
        if not open_ks:
            break
        if (g := tag.g(m)) > 0:
            s = tag.s(m) if any(open_ks) else None
            num, den = g.numerator, g.denominator
            for k in open_ks:
                table, value = rows[k], s ** k * num if k else num
                while len(table) < len(_THRESHOLDS) and value >= _THRESHOLDS[len(table)] * den:
                    table.append((_THRESHOLDS[len(table)], m, g))
    return tuple(tuple(rows[k]) if len(rows[k]) == len(_THRESHOLDS) else None for k in ks)


def _table_rows(tag: SubseqLowerBound, table):
    """The (threshold, n, g) rows of a scanned table, n = s(m).  An index past
    the interpreter's limit on integer-to-string conversion cannot be
    rendered, and on a sparse support a later one may not fit in memory, so
    the first such index stops the build with an error naming its size."""
    rows = []
    for t, m, g in table:
        n = tag.s(m)
        try:
            str(n)
        except ValueError:
            raise SeqchainError(
                f"cannot render the threshold table of tag {tag.label}: its index s({m}) is a "
                f"{n.bit_length()}-bit integer, past the interpreter's limit on integer-to-string "
                "conversion") from None
        rows.append((t, n, g))
    return tuple(rows)


def _escape_exponent(t, a: Fraction):
    """The exponent q > a at which a sequence of l^p threshold t leaves
    cap-lp:a: t when t > a, a + 1 when t is None (in no l^q), and None when
    t <= a, as the sequence then lies in every l^q with q > a."""
    if t is None:
        return a + 1
    return t if t > a else None


def _out_shapes(seq: Sequence, space: SpaceId, prec: int):
    """Yield (candidate out-shape, samples its build checks) for the space,
    in the order the candidates are tried: root 3, not-vanishing 5, blocks
    3, threshold tables every row."""
    subseq_tags = [t for t in seq.growth_tags if isinstance(t, SubseqLowerBound)]
    if space.tag == "hd":
        for tag in seq.growth_tags:
            if isinstance(tag, RootLowerBound):
                m_start = next((m for m in range(1, _SCAN_CAP + 1) if tag.rho(m) >= 2), None)
                if m_start is not None:
                    yield Certificate(space, "root-limsup-exceeds", (Fraction(2), m_start, tag)), 3
    elif space.tag in ("linf", "ainf"):
        ks = range(1, 5) if space.tag == "ainf" else (0,)
        sup = seq.sup_tail(-1, prec) if space.tag == "linf" and subseq_tags else None
        if sup is not None and sup < _THRESHOLDS[-1]:
            subseq_tags = []  # every g(m) <= sup: no linf table completes
        tables = [_threshold_table(tag, ks) for tag in subseq_tags]
        for i, k in enumerate(ks):
            for tag, per_k in zip(subseq_tags, tables):
                if per_k[i]:
                    rows = _table_rows(tag, per_k[i])
                    fields = (k, tag, rows) if k else (tag, rows)
                    shape = "unbounded-weighted" if k else "unbounded"
                    yield Certificate(space, shape, fields), len(rows)
    elif space.tag == "c0":
        for tag in subseq_tags:
            if tag.g_inf is not None and tag.g_inf > 0:
                yield Certificate(space, "not-vanishing", (tag.g_inf, tag)), 5
    elif space.tag in ("lp", "cap-lp"):
        q = space.param if space.tag == "lp" else _escape_exponent(seq.threshold, space.param)
        bd = None if q is None else seq.lp_divergence(q)
        if bd is not None:
            js = tuple(range(bd.j_start, bd.j_start + 3))
            yield Certificate(space, "divergent-partial-sums", (q, bd, js)), 3
    elif space.tag != "cn0":  # every sequence belongs to the product space cn0
        raise UnsupportedSpace(space.tag)


def try_out_certificate(seq: Sequence, space: SpaceId, prec: int):
    """The first candidate out-certificate that its own check accepts, or None."""
    for cert, samples in _out_shapes(seq, space, prec):
        if _SHAPES[cert.shape][2](seq, cert, samples, prec):
            return cert
    return None


# -- in-certificates -----------------------------------------------------------


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


# space tag -> the shape of its in-certificate
_IN_SHAPES = {"cn0": "total", "lp": "lp-tail", "cap-lp": "lp-schedule", "c0": "vanishing-schedule",
              "linf": "sup-bound", "hd": "disc-schedule", "ainf": "poly-schedule"}


def _in_schedule(seq: Sequence, space: SpaceId, prec: int):
    """The rows an in-certificate of the space records, in order: each
    (its parameters, its tail oracle, cutoff -> bound or None, and the
    target its bound must meet, or None for a row read at N = -1: lp,
    cap-lp, linf and hd read their seminorm rows (``spaces.seminorm_rows``)
    there, 1 row or rows 1 .. 8 of a Frechet sum.

    Each schedule samples finitely many rows and rests on a rule that makes
    them enough: ``lp-schedule`` (p_n = a + 1/n, n <= 8) holds only with the
    threshold t <= a, which it records and its check compares with the
    sequence's own; a ``disc_tail`` (``disc-schedule``, radii k/(k+1))
    exists only where the disc sums converge for every r < 1; each position
    tail (``vanishing-schedule``, eps = 2**-i) tends to 0 or is >= 1
    (``const-one``), failing the eps = 1/2 row; and only finitely supported
    data has a ``poly_sup_tail`` (``poly-schedule``)."""
    if space.tag == "cn0":  # every sequence lies in the product space
        return []
    if space.tag == "c0":
        # the schedule cuts at support positions: beyond the K-th support
        # point every term modulus is <= eps (off-support terms are zero),
        # which keeps the cutoffs representable on sparse supports
        return [((eps,), lambda K: seq.pos_sup_tail(K, prec), eps) for eps in _C0_EPSILONS]
    if space.tag == "ainf":
        return [((k, _AINF_EPS), lambda N, k=k: seq.poly_sup_tail(N, k, prec), _AINF_EPS)
                for k in range(_SCHEDULE_K + 1)]
    kind, param, nested = seminorm_rows(space)
    ps = [param(k) for k in range(1, _SCHEDULE_K + 1 if nested else 2)]

    def tail(N, p):  # the value of a disc tail's integer pair is recorded
        value = row_tail(seq, kind, p, N, prec)
        return Fraction(*value) if kind == "disc" and value is not None else value

    return [(() if kind == "sup" else (p,), lambda N, p=p: tail(N, p), None) for p in ps]


def try_in_certificate(seq: Sequence, space: SpaceId, prec: int):
    """The space's in-certificate, or None when an oracle cannot certify it;
    no head is summed, and cutoffs are searched from 16."""
    if space.tag == "cap-lp" and _escape_exponent(seq.threshold, space.param) is not None:
        return None
    rows = []
    for params, oracle, target in _in_schedule(seq, space, prec):
        found = (oracle(-1),) if target is None else _find_cutoff(oracle, target, 16)
        if found is None or found[-1] is None:
            return None
        rows.append((*params, *found))
    data = rows[0] if len(rows) == 1 else tuple(rows)
    if space.tag == "cap-lp":
        data = (seq.threshold, data)
    return Certificate(space, _IN_SHAPES[space.tag], (data, prec))


def classify(seq: Sequence, space: SpaceId, budget: int, prec: int):
    """Certified membership verdict for the sequence in the space."""
    out = try_out_certificate(seq, space, prec)
    if out is not None:
        return CertifiedOut(out)
    inc = try_in_certificate(seq, space, prec)
    if inc is not None:
        return CertifiedIn(inc)
    return Undecided(budget)


# -- certificate re-verification ---------------------------------------------


def check_certificate(seq: Sequence, verdict, samples: int, prec: int) -> bool:
    """Independently re-verify a CertifiedIn/CertifiedOut verdict: its shape
    must back that verdict and carry one value per field name, and then its
    check is the whole rule, which try_out_certificate calls too.  An
    in-check reads the node's tail oracles, whose answers the node, or the
    bases it hands them to, keeps (``Sequence.kept``): on the node the
    certificate was built on it reads the build's answers, and on a node
    parsed afresh from the same spec it evaluates every oracle again."""
    if not isinstance(verdict, (CertifiedIn, CertifiedOut)):
        raise ValueError("only certified verdicts carry certificates")
    cert = verdict.cert
    kind, names, check = _SHAPES.get(cert.shape, (None, (), None))
    return (type(verdict) is kind and type(cert.fields) is tuple and len(cert.fields) == len(names)
            and check(seq, cert, samples, prec))


def _check_in(seq, cert: Certificate, samples: int, prec: int) -> bool:
    """Accept the space's shape and schedule, each recorded bound a Fraction
    at least its oracle's value now and at most the row's target, and for
    cap-lp the sequence's own threshold t <= a; nothing is searched."""
    space, (data, cert_prec) = cert.space, cert.fields
    if cert.shape != _IN_SHAPES[space.tag] or type(data) is not tuple:
        return False
    if space.tag == "cap-lp":
        t, data = data if len(data) == 2 else (None, None)
        if type(t) is not Fraction or t != seq.threshold or t > space.param:
            return False
    schedule = _in_schedule(seq, space, cert_prec)
    rows = (data,) if len(schedule) == 1 else data
    return (type(rows) is tuple and len(rows) == len(schedule)
            and all(_row_holds(row, *entry) for row, entry in zip(rows, schedule)))


def _row_holds(row, params, oracle, target) -> bool:
    """A recorded row: the schedule's parameters, then the bound, or for a
    searched row the cutoff, a natural number, and the bound."""
    n = len(params)
    if type(row) is not tuple or row[:n] != params or len(row) != n + 1 + (target is not None):
        return False
    cut, bound = (-1, row[n]) if target is None else row[n:]
    if type(bound) is not Fraction:
        return False
    if target is not None and not (type(cut) is int and cut >= 0 and bound <= target):
        return False
    value = oracle(cut)
    return value is not None and value <= bound


def _check_blocks(seq, cert: Certificate, samples: int, prec: int) -> bool:
    """divergent-partial-sums: sum |a_n|**exponent diverges, witnessed by the
    node's own blocks of support positions with masses >= a named divergent
    comparator; the checked blocks run on from the first, as built."""
    q, blocks, js = cert.fields
    space = cert.space
    fits = q == space.param if space.tag == "lp" else space.tag == "cap-lp" and q > space.param
    if not fits or (own := seq.lp_divergence(q)) != blocks or own.p != q:
        return False
    return (bool(js) and js == tuple(range(own.j_start, own.j_start + len(js)))
            and _verify_blocks(seq, own, js[: max(1, samples)], prec))


def _check_not_vanishing(seq, cert: Certificate, samples: int, prec: int) -> bool:
    delta, tag = cert.fields
    tag = _own_tag(seq, tag, SubseqLowerBound)
    if cert.space != C0 or tag is None or tag.g_inf is None or not 0 < delta <= tag.g_inf:
        return False
    ms = range(1, max(1, samples) + 1)
    return _increasing_points_at_least(seq, tag.s, ms, 0, lambda n: delta, prec)


def _check_unbounded(seq, cert: Certificate, samples: int, prec: int) -> bool:
    """n**k |a_n| exceeds every threshold along the tagged subsequence: out
    of linf with k = 0, out of ainf with k = 1..4, the exponents built.  One
    row per threshold of ``_THRESHOLDS``, in order, each with n = s(m) and
    g = g(m) at an m found by walking the node's own tag upward, and
    n**k * g >= threshold; then the first ``samples`` rows are spot-checked."""
    weighted = cert.shape == "unbounded-weighted"
    k, tag, table = cert.fields if weighted else (0, *cert.fields)
    tag = _own_tag(seq, tag, SubseqLowerBound)
    if (tag is None or type(k) is not int or k not in (range(1, 5) if weighted else (0,))
            or cert.space != (AINF if weighted else LINF)
            or tuple(row[0] for row in table) != _THRESHOLDS):
        return False
    m, s = 1, tag.s(1)
    for t, n, g in table:
        while s < n and m < _SCAN_CAP:
            m += 1
            s = tag.s(m)
        if s != n or g != tag.g(m) or n ** k * g < t:
            return False
    return all(_abs_at_least(seq, n, g, prec) for _, n, g in table[: max(1, samples)])


def _check_root(seq, cert: Certificate, samples: int, prec: int) -> bool:
    rho, m_start, tag = cert.fields
    tag = _own_tag(seq, tag, RootLowerBound)
    ms = range(m_start, m_start + max(1, samples))
    return (cert.space == HD and rho > 1 and tag is not None and all(tag.rho(m) >= rho for m in ms)
            and _increasing_points_at_least(seq, tag.s, ms, 1, lambda n: rho ** n, prec))


# shape -> (the verdict it backs, the names its fields render under, its check)
_SHAPES = {
    **{shape: (CertifiedIn, ("data", "prec"), _check_in) for shape in _IN_SHAPES.values()},
    "divergent-partial-sums":
        (CertifiedOut, ("exponent", "blocks", "checked_blocks"), _check_blocks),
    "not-vanishing": (CertifiedOut, ("delta", "tag"), _check_not_vanishing),
    "unbounded": (CertifiedOut, ("tag", "table"), _check_unbounded),
    "unbounded-weighted": (CertifiedOut, ("k", "tag", "table"), _check_unbounded),
    "root-limsup-exceeds": (CertifiedOut, ("rho", "from_sample", "tag"), _check_root),
}


# -- closed families ----------------------------------------------------------


class FMk(Frozen):
    __slots__ = _fields = ("M", "k")
    M: Fraction
    k: int


class PartialSum(Frozen):
    __slots__ = _fields = ("p", "M")
    p: Fraction
    M: Fraction


class Fnk(Frozen):
    __slots__ = _fields = ("n", "k")
    n: int
    k: int


class FM(Frozen):
    __slots__ = _fields = ("M",)
    M: Fraction


class Fkj(Frozen):
    __slots__ = _fields = ("k", "j")
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


class ViolatedAt(Frozen):
    """First index where the family inequality provably fails; lower/upper
    bound the violating quantity (the weighted term, the term modulus, or
    the partial sum, depending on the family)."""

    __slots__ = _fields = ("n", "lower", "upper")
    n: int
    lower: Fraction
    upper: Fraction


class ConsistentUpTo(Frozen):
    __slots__ = _fields = ("N",)
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
        if fam.M < 0:  # no sum of |a_n|**p is negative
            raise ParseError(f"bad family ref {format_family(fam)}: bound must be >= 0")
        hp = prec + 32
        cum_lo, cum_hi = PowSum(fam.p, hp), PowSum(fam.p, hp, upper=True)
        for n in seq.support_hint.elements_upto(budget):
            lo, hi = seq.term(n, hp).modulus_bounds()
            cum_hi.extend((hi,))
            if cum_lo.extend((lo,)).value > fam.M:
                return ViolatedAt(n, cum_lo.value, cum_hi.value)
        return ConsistentUpTo(budget)

    first, rule = _pointwise_rule(fam)
    for n in seq.support_hint.elements_upto(budget):
        if n < first:
            continue
        weight, bound = rule(n)
        # weight 0 (FMk at n = 0, k > 0) asks 0 <= M, which holds
        if weight and _abs_sq_lower(seq, n, b := bound / weight, prec) > b * b:
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
    elif space.tag in ("lp", "cap-lp"):
        _, param, nested = seminorm_rows(space)  # psum exponents: the rows' p
        for n in outer if nested else (1,):
            if int(n) < 1:
                raise ParseError(f"cap-lp exponent index {n} must be >= 1")
            for M in inner:
                run(PartialSum(p=param(int(n)), M=Fraction(M)))
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
