"""Explicit separating sequences for strict pairs of the chain.

For every strict pair (X, Y) and every infinite index set A there is a
catalog sequence supported in A that is certifiably outside X and inside
Y.  Rearrangement-invariant X (the summability spaces, c0, linf) take a
parameterized gap sequence transplanted onto A; the two position-dependent
cases are built directly on A: the doubling square-root selection for
X = ainf and the n**n construction for X = hd.
"""

from __future__ import annotations

from .diagnose import Certificate, CertifiedIn, CertifiedOut, check_certificate, classify
from .errors import NotStrictPair, SeqchainError, TopOfChain
from .families import (
    const_one,
    gap_cap_c0,
    gap_cap_lp,
    gap_lp_cap,
    nat,
    nat_power,
    nn_on_support,
    prop28,
    rem29,
)
from .intervals import Frozen
from .sequences import Sequence, spread
from .spaces import SpaceId, strictly_included
from .supports import SupportSet


class Witness(Frozen):
    __slots__ = _fields = ("seq", "inner", "outer", "out_cert", "in_cert", "support")
    seq: Sequence
    inner: SpaceId  # certified out of this space
    outer: SpaceId  # certified inside this space
    out_cert: Certificate
    in_cert: Certificate
    support: SupportSet

    def out_cert_holds(self, samples: int, prec: int) -> bool:
        """``check_certificate`` of the out-certificate, kept on the sequence
        per (certificate, samples, prec): a pure function of that key, so a
        kept failure is as sound as a kept success."""
        return self.seq.kept(("out-check", self.out_cert, samples, prec), check_certificate,
                             self.seq, CertifiedOut(self.out_cert), samples, prec)

    def describe(self):
        return {
            "sequence": self.seq.spec(),
            "inner": str(self.inner),
            "outer": str(self.outer),
            "support": self.support.spec(),
            "out_certificate": self.out_cert.describe(),
            "in_certificate": self.in_cert.describe(),
        }


def canonical_gap_sequence(space: SpaceId) -> Sequence:
    """A catalog sequence just past the space: in its successor, out of it.

    The successor of cap-lp:a is taken as lp:(a+1); all other successors
    are forced by the chain.
    """
    if space.tag == "ainf":
        return prop28()
    if space.tag == "hd":
        return nat_power()
    if space.tag == "cn0":
        raise TopOfChain("no space strictly above cn0 in the chain")
    # _gap_for_pair reads the outer space only for cap-lp
    outer = SpaceId("lp", space.param + 1) if space.tag == "cap-lp" else space
    return _gap_for_pair(space, outer)


def _gap_for_pair(inner: SpaceId, outer: SpaceId) -> Sequence:
    """Rearrangement-invariant gap sequence lying in outer, outside inner."""
    if inner.tag == "lp":
        return gap_lp_cap(inner.param)
    if inner.tag == "cap-lp":
        if outer.tag in ("lp", "cap-lp"):
            return gap_cap_lp(inner.param, outer.param)
        return gap_cap_c0(inner.param)
    if inner.tag == "c0":
        return const_one()
    if inner.tag == "linf":
        return nat()
    raise SeqchainError(f"no spreadable gap for inner space {inner}")


def make_witness(
    inner: SpaceId,
    outer: SpaceId,
    support: SupportSet,
    budget: int,
    prec: int = 64,
) -> Witness:
    """Certified element of outer minus inner, supported in the given set.

    Construction is pure: equal inputs give equal witnesses, bit for bit."""
    if not strictly_included(inner, outer):
        raise NotStrictPair(f"{inner} is not strictly below {outer}")
    support.require_infinite()

    if inner.tag == "ainf":
        seq = rem29(support)
    elif inner.tag == "hd":
        seq = nn_on_support(support)
    else:
        seq = spread(_gap_for_pair(inner, outer), support)

    out_v = classify(seq, inner, budget, prec)
    in_v = classify(seq, outer, budget, prec)
    if not isinstance(out_v, CertifiedOut):
        raise SeqchainError(f"gap sequence failed to certify outside {inner}")
    if not isinstance(in_v, CertifiedIn):
        raise SeqchainError(f"gap sequence failed to certify inside {outer}")
    return Witness(
        seq=seq,
        inner=inner,
        outer=outer,
        out_cert=out_v.cert,
        in_cert=in_v.cert,
        support=support,
    )


def verify_witness(w: Witness, budget: int, samples: int, prec: int) -> bool:
    """Re-check strictness, support containment, and both certificates.

    Support containment is proved from the support hint (``zero_off``), so
    no term off the support is read, and ``budget`` is not read at all."""
    return (
        strictly_included(w.inner, w.outer)
        and w.out_cert.space == w.inner
        and w.in_cert.space == w.outer
        and w.seq.zero_off(w.support)
        and w.out_cert_holds(samples, prec)
        and check_certificate(w.seq, CertifiedIn(w.in_cert), samples, prec)
    )
