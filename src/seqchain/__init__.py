"""Certificate-carrying membership diagnostics and constructions for an
extended chain of complex sequence spaces.

The chain runs from the smooth-boundary coefficient space through the
summability spaces up to the full product space:

    ainf < cap-lp:0 < lp:a < cap-lp:a < lp:b < cap-lp:b < c0 < linf < hd < cn0

Core surfaces: lazy exact/interval sequences (:mod:`seqchain.sequences`),
space metrics (:mod:`seqchain.spaces`), certified verdicts
(:mod:`seqchain.diagnose`), separating witnesses (:mod:`seqchain.witness`),
the dense-family construction (:mod:`seqchain.generic`), disjointly
supported bases (:mod:`seqchain.spaceable`), and a CLI
(:mod:`seqchain.cli`).
"""

from .diagnose import (
    CertifiedIn,
    CertifiedOut,
    ClosedFamily,
    Undecided,
    check_certificate,
    classify,
    closed_family_check,
    decompose_report,
)
from .generic import (
    approximate_with_avoider,
    certify_outside,
    dense_family_element,
    disjoint_support,
    enumerate_rational_c00,
)
from .intervals import ComplexInterval
from .sequences import (
    FiniteRational,
    Sequence,
    combine,
    restrict,
    spread,
    term_at,
    unit,
    zero,
)
from .spaces import (
    AINF,
    C0,
    CN0,
    HD,
    LINF,
    MetricBound,
    SpaceId,
    adjacent_pairs,
    ball_scale,
    cap_lp,
    lp,
    metric_bound,
    parse_space,
    standard_chain,
    strictly_included,
)
from .spaceable import (
    SpaceableBasis,
    basis_element,
    build_basis,
    certify_combination_outside,
    recover_coefficient,
)
from .serialize import sequence_from_spec
from .supports import SupportSet, support_from_spec
from .witness import Witness, canonical_gap_sequence, make_witness, verify_witness

__all__ = [name for name in dir() if not name.startswith("_")]
