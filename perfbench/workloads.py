"""Seeded op lists and op bodies for the three workloads.

Every op calls seqchain's public API the way the CLI does: budget 4096
and precision 64 (the CLI defaults), and the same call order as the
``basis``/``recover``, ``approx`` and ``classify`` subcommands.  Library
functions are looked up through their modules at call time, so the
tracer's wrappers see every call.

An op list is plain JSON data made from the seed alone; the program
only receives it.  Ops come in fixed rounds, one op per stratum, and the
seed varies only the values inside a stratum, so the mix of work (and
with it the run-to-run spread) is the same for every seed.

An op raises ``CheckFailed`` when an output does not verify; that
invalidates the run.  Any other exception is a failed op.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from seqchain import diagnose, generic, sequences, serialize, spaceable, spaces, witness
from seqchain.intervals import format_rational

BUDGET = 4096  # CLI default --budget
PREC = 64  # CLI default --prec
CHECK_SAMPLES = 2  # samples for escape-certificate re-checks, as the acceptance suite uses
ELEMENT_BUDGET = 256  # budget of the 1/j distance check on dense-family elements (acceptance criterion 5)


class CheckFailed(Exception):
    """An op returned an output that does not verify."""


# -- construct: spaceable bases, coefficient recovery, escape certificates -----


# Adjacent-pair indices, in turn.  Pair 5 (cap-lp:2 < c0) costs three
# times any other; it comes twice a cycle, so op_ms.p90 falls in the middle
# of its ops rather than on the edge between two cost classes.
CONSTRUCT_PAIRS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 5)


def construct_ops(rng: random.Random, count: int) -> list:
    ops = []
    for k in range(count):
        t = [[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(5)]
        if not any(re or im for re, im in t):
            t[rng.randrange(5)] = [1, 1]
        ops.append([CONSTRUCT_PAIRS[k % len(CONSTRUCT_PAIRS)], t])
    return ops


def construct_setup():
    """The ``basis --count 5`` command for every adjacent chain pair."""
    bases = []
    for inner, outer in spaces.adjacent_pairs():
        basis = spaceable.build_basis(inner, outer, 5, BUDGET, PREC)
        for w in basis.elements.values():
            if not witness.verify_witness(w, BUDGET, samples=3, prec=PREC):
                raise CheckFailed(f"basis witness for {inner} < {outer} does not verify")
        bases.append(basis)
    return bases


def construct_op(bases, op):
    pair, coeffs = op
    basis = bases[pair]
    t = [(Fraction(re), Fraction(im)) for re, im in coeffs]
    f = sequences.combine(t, [basis.elements[j].seq for j in range(1, 6)])
    for j in range(1, 6):
        iv = spaceable.recover_coefficient(f, basis, j, PREC, BUDGET)
        if not iv.is_exact or (iv.re_lo, iv.im_lo) != t[j - 1]:
            raise CheckFailed(f"coefficient {j} recovered as {iv}, expected {t[j - 1]}")
    cert = spaceable.certify_combination_outside(f, basis, [1, 2, 3, 4, 5], BUDGET, PREC)
    if not generic.check_outside_certificate(f, cert, CHECK_SAMPLES, PREC):
        raise CheckFailed("escape certificate of a basis combination does not re-check")
    return cert.describe()


# -- approx: approximation with certified avoidance, dense-family elements -----

# (outer, avoided inner, target kinds, epsilon, period in rounds).  A
# stratum runs in every period-th round and takes its target kinds in
# turn.  The outer spaces are lp:1, c0, hd, cn0 and cap-lp:0.  hd and cap-lp:0 use
# the nested-sum metrics and make the slow tail: the hd stratum is one op
# in eight, so op_ms.p90 falls inside the hd ops rather than on the edge
# between two cost classes, and cap-lp:0 (seconds an op) runs once every
# eight rounds.  epsilon is the CLI default 1/1024 except where a coarser
# one keeps the first (memo-cold) op of a pair near a few seconds (hd,
# cap-lp:0) or makes a rational truncation possible at budget 4096
# (prop28 in lp:1).
APPROX_STRATA = (
    ("lp:1", "ainf", ("c00",), "1/1024", 1),
    ("lp:1", "ainf", ("prop28",), "1/4", 1),
    ("c0", "lp:1", ("c00",), "1/1024", 1),
    ("cn0", "hd", ("c00",), "1/1024", 1),
    ("cn0", "c0", ("prop28",), "1/1024", 1),
    ("cn0", "hd", ("nat",), "1/1024", 1),
    ("cn0", "lp:1", ("gap-lp-cap", "gap-cap-c0"), "1/1024", 1),
    ("hd", "c0", ("c00",), "1/64", 1),
    ("cap-lp:0", "ainf", ("c00",), "1/2", 8),
)
C00_RANGE = (2, 400)  # enumerate_rational_c00 indices for finite targets


def _approx_target(rng: random.Random, kind: str):
    if kind == "c00":
        return rng.randint(*C00_RANGE)
    params = {}
    if kind == "gap-lp-cap":
        params = {"a": rng.choice(["1/2", "1/3", "1/4"])}
    elif kind == "gap-cap-c0":
        params = {"b": rng.choice(["1/1", "2/1", "3/1"])}
    return json.dumps({"kind": "family", "name": kind, "params": params}, sort_keys=True)


def approx_ops(rng: random.Random, count: int) -> list:
    """Each stratum's j cycles through 1..8 over the rounds it runs in."""
    ops = []
    rnd = 0
    while len(ops) < count:
        for outer, inner, kinds, eps, period in APPROX_STRATA:
            if rnd % period == 0 and len(ops) < count:
                kind = kinds[rnd // period % len(kinds)]
                j = rnd // period % 8 + 1
                ops.append([outer, inner, _approx_target(rng, kind), eps, j])
        rnd += 1
    return ops


def approx_op(state, op):
    outer_text, inner_text, target_in, eps_text, j = op
    outer, inner = spaces.parse_space(outer_text), spaces.parse_space(inner_text)
    eps = Fraction(eps_text)
    if isinstance(target_in, int):
        target = generic.enumerate_rational_c00(target_in)
    else:
        target = serialize.sequence_from_spec(target_in)
    res = generic.approximate_with_avoider(target, eps, outer, inner, BUDGET, PREC)
    if not res.distance_upper < eps:
        raise CheckFailed(f"distance {res.distance_upper} not below {eps}")
    if not generic.check_outside_certificate(res.f, res.certificate, CHECK_SAMPLES, PREC):
        raise CheckFailed("approximation escape certificate does not re-check")
    report = serialize.canonical_json(res.describe())
    el = generic.dense_family_element(j, outer, inner, BUDGET, PREC)
    mb = spaces.metric_bound(outer, el.f, el.x, ELEMENT_BUDGET, PREC)
    if mb.upper is None or not mb.upper < Fraction(1, j):
        raise CheckFailed(f"dense-family element {j} is not within 1/{j} of x_{j}")
    return [report, format_rational(el.scale), format_rational(mb.lower), format_rational(mb.upper)]


# -- classify: verdicts with certificates over a stream of specs ---------------

_CHAIN = ("ainf", "cap-lp:0/1", "lp:1/1", "cap-lp:1/1", "lp:2/1", "cap-lp:2/1", "c0", "linf", "hd", "cn0")


# Spec makers.  ``c`` is the index of the 450-op cycle: it picks every
# structural choice (support kind, entry count, term count and term
# families) in turn, so each cycle has the same shape; the seed draws only
# numbers (support offsets, entries, coefficients).
_SUPPORT_KINDS = ("arith", "powers-of-two", "dyadic-row")
_FAMILIES = (
    "prop28", "nat", "nat-power", "const-one", "gap-lp-cap", "gap-cap-lp",
    "gap-cap-c0", "rem29", "nn-on-support",
)


def _support(rng: random.Random, c: int) -> dict:
    kind = _SUPPORT_KINDS[c % len(_SUPPORT_KINDS)]
    if kind == "arith":
        return {"kind": "arith", "start": rng.randint(0, 3), "step": rng.randint(2, 4)}
    if kind == "dyadic-row":
        return {"kind": "dyadic-row", "j": rng.randint(1, 4)}
    return {"kind": "powers-of-two"}


def _family(rng: random.Random, name: str, c: int) -> dict:
    params = {}
    if name == "gap-lp-cap":
        params = {"a": ("1/2", "1/1", "2/1")[c % 3]}
    elif name == "gap-cap-lp":
        params = dict(zip("ab", (("0/1", "1/1"), ("0/1", "2/1"), ("1/2", "3/2"))[c % 3]))
    elif name == "gap-cap-c0":
        params = {"b": ("1/1", "2/1")[c % 2]}
    elif name in ("rem29", "nn-on-support"):
        params = {"support": _support(rng, c + 1)}
    return {"kind": "family", "name": name, "params": params}


def _small_rat(rng: random.Random) -> str:
    return f"{rng.randint(-6, 6)}/{rng.randint(1, 6)}"


def _finite(rng: random.Random, name: str, c: int) -> dict:
    idx = sorted(rng.sample(range(41), 1 + c % 6))
    return {"kind": "finite", "entries": [[n, _small_rat(rng), _small_rat(rng)] for n in idx]}


def _spread(rng: random.Random, name: str, c: int) -> dict:
    return {"kind": "spread", "base": _family(rng, name, c), "support": _support(rng, c)}


def _restrict(rng: random.Random, name: str, c: int) -> dict:
    return {"kind": "restrict", "base": _family(rng, name, c), "support": _support(rng, c)}


def _combine(rng: random.Random, name: str, c: int) -> dict:
    first = _FAMILIES.index(name)
    terms = []
    for i in range(2 + c % 2):
        base = _family(rng, _FAMILIES[(first + 4 * i + c) % len(_FAMILIES)] if i else name, c)
        if i % 2:
            base = {"kind": "spread", "base": base, "support": _support(rng, c + i)}
        terms.append([_small_rat(rng), _small_rat(rng), base])
    return {"kind": "combine", "terms": terms}


_CLASSIFY_STRATA = (_family, _finite, _spread, _restrict, _combine)


def _families(spec: dict):
    """Every catalog family node inside a sequence spec."""
    if spec["kind"] == "family":
        yield spec
    elif spec["kind"] in ("spread", "restrict"):
        yield from _families(spec["base"])
    elif spec["kind"] == "combine":
        for _, _, sub in spec["terms"]:
            yield from _families(sub)


def known_defect(spec: dict, space: str):
    """Label of the known seqchain defect an input triggers, or None.

    Such inputs raise instead of returning a verdict, so they stay out of
    the timed op list; ``KNOWN_DEFECTS`` keeps one probe per label, and
    the notes say how to put them back once fixed."""
    base = spec.get("base", {})
    if (
        spec["kind"] == "spread"
        and spec["support"]["kind"] == "powers-of-two"
        and base.get("name") in ("prop28", "gap-lp-cap", "rem29")
        and space == "linf"
    ):
        return "threshold-table-memory"
    if space == "cap-lp:2/1" and any(
        f["name"] == "gap-lp-cap" and f["params"]["a"] == "2/1" for f in _families(spec)
    ):
        return "certificate-render-digits"
    return None


# One input per known defect, run outside the timed ops.
KNOWN_DEFECTS = {
    # _threshold_table evaluates s(m) = 2**2**m up to _SCAN_CAP: MemoryError
    "threshold-table-memory": (
        {"kind": "spread", "base": {"kind": "family", "name": "prop28", "params": {}},
         "support": {"kind": "powers-of-two"}},
        "linf",
    ),
    # the in-certificate's head sums exceed Python's int-to-str digit limit
    # when the verdict is rendered: ValueError
    "certificate-render-digits": (
        {"kind": "family", "name": "gap-lp-cap", "params": {"a": "2/1"}},
        "cap-lp:2/1",
    ),
}


def classify_ops(rng: random.Random, count: int) -> list:
    """Slot k pairs spec stratum k mod 5 with chain member k // 5 mod 10 and
    catalog family k // 50 mod 9, so every 450 slots cover each (stratum,
    space, family) cell once: a few cells (gap families in cap-lp spaces)
    cost a hundred times the rest, and a seed must not change how often
    they come.  A slot whose input hits a known defect stays empty."""
    ops = []
    strata, cell = len(_CLASSIFY_STRATA), len(_CLASSIFY_STRATA) * len(_CHAIN)
    k = 0
    while len(ops) < count:
        space = _CHAIN[k // strata % len(_CHAIN)]
        name = _FAMILIES[k // cell % len(_FAMILIES)]
        spec = _CLASSIFY_STRATA[k % strata](rng, name, k // (cell * len(_FAMILIES)))
        if known_defect(spec, space) is None:
            ops.append([json.dumps(spec, sort_keys=True), space])
        k += 1
    return ops


def classify_op(state, op):
    spec_text, space_text = op
    seq = serialize.sequence_from_spec(spec_text)
    verdict = diagnose.classify(seq, spaces.parse_space(space_text), BUDGET, PREC)
    if not isinstance(verdict, diagnose.Undecided):
        if not diagnose.check_certificate(seq, verdict, 3, PREC):
            raise CheckFailed(f"certificate for {spec_text} in {space_text} does not re-check")
    return serialize.canonical_json(diagnose.verdict_to_json(verdict))


def probe_defect(label: str) -> str:
    """Run one known-defect input; returns what happened."""
    spec, space = KNOWN_DEFECTS[label]
    try:
        classify_op(None, [json.dumps(spec), space])
    except CheckFailed:
        raise
    except Exception as exc:  # the defect under observation
        return f"raises {type(exc).__name__}"
    return "ok"


def decided(output) -> bool:
    """Whether an op output is a certified result (every construct and
    approx output is; classify outputs may be undecided)."""
    return not (isinstance(output, str) and '"verdict": "undecided"' in output)


# name -> (op list maker, set-up, op, ops in one cycle of all strata,
#          ops the parent commit completes per second of reference time)
WORKLOADS = {
    "construct": (construct_ops, construct_setup, construct_op, len(CONSTRUCT_PAIRS), 17.0),
    "approx": (approx_ops, lambda: None, approx_op, 65, 4.3),
    "classify": (classify_ops, lambda: None, classify_op, 450, 100.0),
}


def op_count(workload: str, seconds: float) -> int:
    """Ops in a timed run: whole cycles, about ``seconds`` of reference
    time at the parent commit's speed, so every commit runs the same ops."""
    _, _, _, cycle, rate = WORKLOADS[workload]
    return max(1, math.ceil(seconds * rate / cycle)) * cycle
