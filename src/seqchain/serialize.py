"""Sequence-spec JSON: the ingestion/persistence format.

    {"kind":"finite","entries":[[n,"re_num/re_den","im_num/im_den"],...]}
    {"kind":"family","name":"<family-id>","params":{...}}
    {"kind":"spread","base":<spec>,"support":<support-spec>}
    {"kind":"restrict","base":<spec>,"support":<support-spec>}
    {"kind":"combine","terms":[["c_num/c_den","ci_num/ci_den",<spec>],...]}

Support specs are handled by :mod:`seqchain.supports`; family ids by
:mod:`seqchain.families`.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .families import family_from_spec
from .intervals import parse_rational
from .sequences import FiniteRational, Sequence, combine, restrict, spread
from .supports import support_from_spec


# Deepest sequence-spec nesting accepted (a leaf spec has depth 1).  Term
# oracles, tail oracles and report rendering recurse through the nested
# nodes, two or three interpreter frames per level (a 490-deep `restrict`
# chain already overflows in `lp:1`), so the cap keeps every command far
# inside Python's default recursion limit of 1000 frames.
MAX_SPEC_DEPTH = 100


def parse_json(text: str):
    """Decode JSON text; malformed or too deeply nested text is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", position=exc.pos) from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply to decode") from None


def sequence_from_spec(spec) -> Sequence:
    """Build a sequence from its JSON spec (dict or JSON text).

    A spec nested deeper than ``MAX_SPEC_DEPTH`` is a ParseError."""
    if isinstance(spec, str):
        spec = parse_json(spec)
    return _sequence_at_depth(spec, 1)


def _sequence_at_depth(spec, depth: int) -> Sequence:
    if depth > MAX_SPEC_DEPTH:
        raise ParseError(f"sequence spec nested deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"sequence spec must be an object with a kind: {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "finite":
            entries = {}
            for row in spec.get("entries", []):
                n, re, im = row
                if not isinstance(n, int) or isinstance(n, bool):
                    raise ParseError(f"bad finite entry index {n!r}: expected an integer")
                entries[n] = (parse_rational(re), parse_rational(im))
            return FiniteRational(entries)
        if kind == "family":
            return family_from_spec(spec["name"], spec.get("params", {}))
        if kind == "spread":
            return spread(
                _sequence_at_depth(spec["base"], depth + 1),
                support_from_spec(spec["support"]),
            )
        if kind == "restrict":
            return restrict(
                _sequence_at_depth(spec["base"], depth + 1),
                support_from_spec(spec["support"]),
            )
        if kind == "combine":
            coeffs, bases = [], []
            for row in spec.get("terms", []):
                c_re, c_im, sub = row
                coeffs.append((parse_rational(c_re), parse_rational(c_im)))
                bases.append(_sequence_at_depth(sub, depth + 1))
            return combine(coeffs, bases)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad sequence spec ({kind}): {exc}") from None
    raise ParseError(f"unknown sequence kind {kind!r}")


def canonical_json(obj) -> str:
    """Deterministic rendering used for all reports."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
