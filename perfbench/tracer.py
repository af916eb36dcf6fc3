"""Span tracer that wraps seqchain's public functions from outside.

Every wrapped call opens a span named after the layer it belongs to
(``intervals.pow_bounds``, ``sequences.term``, ...).  Spans are kept as
running aggregates, not as a list, because term oracles are called
millions of times in one run:

* ``calls``  - number of spans of that name;
* ``s``      - inclusive time, counted only for the outermost span of a
  name, so recursion (pow_bounds -> pow_bounds, term -> term through a
  combinator) is not counted twice;
* ``self_s`` - span time minus the time covered by its child spans;
* ``edges``  - calls per (parent span, child span) pair.

Per-call observers (argument repeats, operand sizes, exact-zero results,
verdict kinds) run outside every span and their cost is charged to no
layer; it shows only in the tracing overhead the harness reports.

Nothing here edits seqchain's source: ``install`` rebinds the names in
the already imported ``seqchain`` modules, which is why the workloads
call library functions through their modules.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from fractions import Fraction


class Tracer:
    """Aggregating span recorder.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # frames: [name, start, child_time]
        self._depth = Counter()
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()  # observer counters
        self.maxima = Counter()  # observer maxima
        self.labelled = defaultdict(float)  # inclusive time per (name, label)
        self.names = set()  # every installed span name, called or not

    def enter(self, name):
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, label=None):
        end = self.clock()
        name, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.incl[name] += dur
            if label is not None:
                self.labelled[name, label] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.edges[parent[0], name] += 1
        return end

    def hide(self, since):
        """Charge clock time since ``since`` to no span (observer cost)."""
        if self._stack:
            self._stack[-1][2] += self.clock() - since


def _wrap(tracer, name, fn, observe=None, label=None):
    tracer.names.add(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        end = tracer.exit(label(args) if label else None)
        if observe is not None:
            observe(args, result)
            tracer.hide(end)
        return result

    return traced


# -- observers ----------------------------------------------------------------


class _Repeats:
    """Counts calls whose key was seen before in this run."""

    def __init__(self, tracer, name, key):
        self.tracer, self.name, self.key, self.seen = tracer, name, key, set()

    def __call__(self, args, result):
        try:
            k = self.key(args)
            hash(k)
        except (TypeError, NotImplementedError):
            return
        if k in self.seen:
            self.tracer.counts[self.name + ".repeats"] += 1
        else:
            self.seen.add(k)


def _bits(q) -> int:
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def install(tracer: Tracer) -> None:
    """Wrap every traced seqchain function; call once per process."""
    from seqchain import (
        diagnose,
        generic,
        intervals,
        sequences,
        serialize,
        spaceable,
        spaces,
        supports,
        witness,
    )

    modules = [m for k, m in sys.modules.items() if k == "seqchain" or k.startswith("seqchain.")]

    def rebind(module, attr, name, observe=None, label=None):
        fn = getattr(module, attr)
        wrapped = _wrap(tracer, name, fn, observe, label)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    def rebind_method(cls, attr, name, observe=None):
        setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr], observe))

    counts, maxima = tracer.counts, tracer.maxima

    # intervals: root/power kernel and box arithmetic
    def iroot_bits(args, result):
        maxima["intervals.iroot.max_bits"] = max(maxima["intervals.iroot.max_bits"], args[0].bit_length())

    def pow_bits(args, result):
        q, e = args[0], Fraction(args[1])
        bits = _bits(q) * max(1, abs(e.numerator))
        maxima["intervals.pow_bounds.max_bits"] = max(maxima["intervals.pow_bounds.max_bits"], bits)

    rebind(intervals, "iroot", "intervals.iroot", iroot_bits)
    rebind(intervals, "root_bounds", "intervals.root_bounds")
    rebind(intervals, "pow_bounds", "intervals.pow_bounds", pow_bits)
    for attr in ("__add__", "__sub__", "scale", "mul", "div"):
        rebind_method(intervals.ComplexInterval, attr, "intervals.box_ops")

    # sequences: term oracles and tail oracles
    seen_terms = weakref.WeakKeyDictionary()

    def term_obs(args, result):
        seq, n, prec = args
        counts["sequences.term.calls." + seq.kind] += 1
        keys = seen_terms.get(seq)
        if keys is None:
            keys = seen_terms[seq] = set()
        if (n, prec) in keys:
            counts["sequences.term.repeats"] += 1
        else:
            keys.add((n, prec))
        if result.is_exact_zero:
            counts["sequences.term.zeros"] += 1

    def tail_obs(args, result):
        if result is None:
            counts["sequences.tail.nones"] += 1

    rebind_method(sequences.Sequence, "term", "sequences.term", term_obs)
    rebind_method(sequences.FamilySeq, "_term", "families.term")
    tail_methods = ("tail_majorant", "sup_tail", "pos_sup_tail", "disc_tail", "poly_sup_tail")
    for cls in _subclasses(sequences.Sequence):
        for attr in tail_methods:
            if attr in cls.__dict__:
                rebind_method(cls, attr, "sequences.tail", tail_obs)

    # supports: index-set oracles
    for cls in _subclasses(supports.SupportSet):
        for attr in ("member", "rank_upto", "nth", "elements_upto"):
            if attr in cls.__dict__:
                rebind_method(cls, attr, "supports.index")

    # spaces: metrics
    def metric_label(args):
        tag = args[0].tag
        return "sup" if tag in ("c0", "linf") else tag

    rebind(spaces, "metric_bound", "spaces.metric_bound", label=metric_label)
    rebind(
        spaces,
        "ball_scale",
        "spaces.ball_scale",
        _Repeats(tracer, "spaces.ball_scale", lambda a: (str(a[0]), a[1].spec_key(), Fraction(a[2])) + a[3:]),
    )

    # diagnose: verdicts and certificates
    def verdict_obs(args, result):
        counts["diagnose.verdicts." + _VERDICTS[type(result).__name__]] += 1

    rebind(diagnose, "classify", "diagnose.classify", verdict_obs)
    rebind(diagnose, "try_out_certificate", "diagnose.try_out_certificate")
    rebind(diagnose, "try_in_certificate", "diagnose.try_in_certificate")
    rebind(
        diagnose,
        "check_certificate",
        "diagnose.check_certificate",
        _Repeats(tracer, "diagnose.check_certificate", lambda a: (a[0].spec_key(),) + a[1:]),
    )

    # constructions
    rebind(
        witness,
        "make_witness",
        "witness.make_witness",
        _Repeats(
            tracer,
            "witness.make_witness",
            lambda a: (str(a[0]), str(a[1]), json.dumps(a[2].spec(), sort_keys=True)) + a[3:],
        ),
    )
    rebind(witness, "verify_witness", "witness.verify_witness")
    for attr in ("approximate_with_avoider", "dense_family_element", "certify_outside", "check_outside_certificate"):
        rebind(generic, attr, "generic." + attr)
    for attr in ("build_basis", "recover_coefficient", "certify_combination_outside"):
        rebind(spaceable, attr, "spaceable." + attr)
    for attr in ("sequence_from_spec", "canonical_json"):
        rebind(serialize, attr, "serialize." + attr)


_VERDICTS = {"CertifiedIn": "in", "CertifiedOut": "out", "Undecided": "undecided"}
TERM_KINDS = ("finite", "family", "spread", "restrict", "combine", "scaled")
METRIC_LABELS = ("lp", "cap-lp", "hd", "sup", "cn0", "ainf")


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Flat ``{metric name: value}`` for every span and observer."""
    out = {}
    for name in tracer.names:
        out[name + ".calls"] = tracer.calls[name]
        out[name + ".s"] = tracer.incl[name]
        out[name + ".self_s"] = tracer.self_time[name]
    for (name, label), t in tracer.labelled.items():
        out[f"{name}.s.{label}"] = t
    c = tracer.counts
    term_calls = tracer.calls["sequences.term"]
    out["sequences.term.repeat_share"] = _share(c["sequences.term.repeats"], term_calls)
    out["sequences.term.zero_share"] = _share(c["sequences.term.zeros"], term_calls)
    for kind in TERM_KINDS:
        out["sequences.term.calls." + kind] = c["sequences.term.calls." + kind]
    out["sequences.tail.none_share"] = _share(c["sequences.tail.nones"], tracer.calls["sequences.tail"])
    for name in ("spaces.ball_scale", "diagnose.check_certificate", "witness.make_witness"):
        out[name + ".repeat_share"] = _share(c[name + ".repeats"], tracer.calls[name])
    for kind in _VERDICTS.values():
        out["diagnose.verdicts." + kind] = c["diagnose.verdicts." + kind]
    out["spaces.metric_bound.head_terms"] = tracer.edges["spaces.metric_bound", "sequences.term"]
    for label in METRIC_LABELS:
        out.setdefault("spaces.metric_bound.s." + label, 0.0)
    for name in ("intervals.iroot.max_bits", "intervals.pow_bounds.max_bits"):
        out[name] = tracer.maxima[name]
    return out


def is_deterministic(name: str) -> bool:
    """Counters that must repeat exactly for a fixed seed and op count."""
    last = name.rsplit(".", 1)[-1]
    return (
        ".calls" in name
        or last in ("head_terms", "max_bits", "repeat_share", "zero_share", "none_share")
        or name.startswith("diagnose.verdicts.")
    )
