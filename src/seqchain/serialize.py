"""Sequence-spec JSON: the ingestion/persistence format.

    {"kind":"finite","entries":[[n,"re_num/re_den","im_num/im_den"],...]}
    {"kind":"family","name":"<family-id>","params":{...}}
    {"kind":"spread","base":<spec>,"support":<support-spec>}
    {"kind":"restrict","base":<spec>,"support":<support-spec>}
    {"kind":"combine","terms":[["c_num/c_den","ci_num/ci_den",<spec>],...]}

Support specs are handled by :mod:`seqchain.supports`; family ids by
:mod:`seqchain.families`.  ``entries`` and ``terms`` are JSON arrays and
``params`` an object or absent.

Reports are rendered by ``canonical_json``, byte for byte the text of
``json.dumps(obj, sort_keys=True, indent=2)``.  With ``indent`` set the
standard library leaves its C encoder for a pure-Python generator chain,
which cost a sixth of a ``classify`` op; a report holds only exact dicts
with string keys, lists, tuples, strings, ints, booleans and ``None``, so
one recursive renderer over that subset, quoting strings with the C
``encode_basestring_ascii``, writes the same bytes.  Any other value hands
the whole object to ``json.dumps``, which gives its string or its error.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

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
    fields = {"finite": "entries", "family": "name params", "spread": "base support",
              "restrict": "base support", "combine": "terms"}.get(str(kind))
    if fields is None:
        raise ParseError(f"unknown sequence kind {kind!r}")
    for key in sorted(set(spec) - {"kind", *fields.split()}, key=str):
        raise ParseError(f"sequence spec ({kind}) has no key {key!r}")
    try:
        if kind == "finite":
            entries = {}
            for row in _array(spec, "entries"):
                n, re, im = row
                if not isinstance(n, int) or isinstance(n, bool):
                    raise ParseError(f"bad finite entry index {n!r}: expected an integer")
                if n in entries:
                    raise ParseError(f"finite entry index {n} is repeated")
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
            for row in _array(spec, "terms"):
                c_re, c_im, sub = row
                coeffs.append((parse_rational(c_re), parse_rational(c_im)))
                bases.append(_sequence_at_depth(sub, depth + 1))
            return combine(coeffs, bases)
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"sequence spec ({kind}) is missing the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad sequence spec ({kind}): {exc}") from None


def _array(spec: dict, key: str) -> list:
    value = spec[key]
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"sequence spec ({spec['kind']}) {key} must be an array: {value!r}")
    return value


def canonical_json(obj) -> str:
    """Deterministic rendering used for all reports: the text of
    ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline."""
    try:
        return _render(obj, "\n") + "\n"
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render(obj, newline: str) -> str:
    """``obj`` at the indent ``newline`` ends in; TypeError outside the subset."""
    cls = obj.__class__
    if cls is str:
        return encode_basestring_ascii(obj)
    if cls is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if cls is dict:
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if key.__class__ is not str:
                raise TypeError(key)
            items.append(f"{encode_basestring_ascii(key)}: {_render(obj[key], inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        return f"[{inner}{(',' + inner).join([_render(x, inner) for x in obj])}{newline}]"
    if obj is None or cls is bool:
        return "null" if obj is None else "true" if obj else "false"
    raise TypeError(obj)
