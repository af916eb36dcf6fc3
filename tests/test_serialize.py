import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import catalog
from seqchain.errors import ParseError
from seqchain.families import FAMILY_BUILDERS
from seqchain.intervals import parse_rational
from seqchain.sequences import FiniteRational, combine, restrict, spread
from seqchain.serialize import canonical_json, sequence_from_spec
from seqchain.supports import Arith, PowersOfTwo

F = Fraction


def roundtrip(seq):
    return sequence_from_spec(seq.spec())


@pytest.mark.parametrize("name", sorted(catalog()), ids=str)
def test_catalog_specs_roundtrip_pointwise(name):
    seq = catalog()[name]
    again = roundtrip(seq)
    for n in range(40):
        assert seq.term(n, 30) == again.term(n, 30)


def test_composite_spec_roundtrip():
    base = FiniteRational({0: (F(1), F(-2)), 3: F(5, 7)})
    built = combine(
        [(F(1, 2), F(1))],
        [spread(restrict(catalog()["gap-lp-cap-1"], Arith(0, 2)), PowersOfTwo())],
    )
    for seq in (base, built):
        again = roundtrip(seq)
        for n in range(25):
            assert seq.term(n, 30) == again.term(n, 30)


def test_spec_accepts_json_text():
    seq = sequence_from_spec('{"kind":"finite","entries":[[2,"-1/3","0/1"]]}')
    assert seq.entries == {2: (F(-1, 3), F(0))}


def test_bad_specs_raise_parse_errors():
    with pytest.raises(ParseError):
        sequence_from_spec("{oops")
    with pytest.raises(ParseError):
        sequence_from_spec({"kind": "mystery"})
    with pytest.raises(ParseError):
        sequence_from_spec({"kind": "family", "name": "nope"})
    with pytest.raises(ParseError):
        sequence_from_spec({"kind": "family", "name": "rem29", "params": {}})
    with pytest.raises(ParseError):
        sequence_from_spec({"kind": "finite", "entries": [[0, "1/0", "0/1"]]})


@pytest.mark.parametrize(
    "entries",
    [[[0, 1, 0]], [[0, "1", 0]], [[1.5, "1", "0"]], [[True, "1", "0"]], [["1", "1", "0"]]],
    ids=["int-re", "int-im", "float-index", "bool-index", "str-index"],
)
def test_malformed_finite_entries_raise_parse_errors(entries):
    with pytest.raises(ParseError):
        sequence_from_spec({"kind": "finite", "entries": entries})


def test_rational_literals_must_be_strings():
    with pytest.raises(ParseError):
        parse_rational(3)
    with pytest.raises(ParseError):
        nat = {"kind": "family", "name": "nat"}
        sequence_from_spec({"kind": "combine", "terms": [[1, "0", nat]]})
    assert parse_rational(" 3/4 ") == F(3, 4)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        sequence_from_spec("{not json")
    assert err.value.position is not None


def test_canonical_json_is_stable():
    payload = {"b": [1, 2], "a": {"y": "1/2", "x": 3}}
    once = canonical_json(payload)
    assert once == canonical_json(json.loads(once))
    assert once.endswith("\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "finite", "entries": [], "extra": 1}, "(finite) has no key 'extra'"),
        ({"kind": "family", "name": "nat", "parms": {}}, "(family) has no key 'parms'"),
        ({"kind": "spread", "base": {"kind": "family", "name": "nat"}}, "(spread) is missing the key 'support'"),
        ({"kind": "restrict", "support": {"kind": "all"}}, "(restrict) is missing the key 'base'"),
        ({"kind": "combine", "terms": [["1", "0", {"kind": "finite", "entry": []}]]},
         "(finite) has no key 'entry'"),
        ({"kind": "combine", "coeffs": ["1"], "parts": []}, "(combine) has no key 'coeffs'"),
        ({"kind": "finite"}, "(finite) is missing the key 'entries'"),
        ({"kind": ["finite"]}, "unknown sequence kind ['finite']"),
        ({"kind": "family", "name": "gap-cap-c0", "params": {"b": "1/1", "bb": "3/1"}},
         "family gap-cap-c0 has no parameter 'bb'"),
        ({"kind": "family", "name": "nat", "params": {"a": "1/2"}}, "family nat has no parameter 'a'"),
        ({"kind": "family", "name": "prop28", "params": "x"}, "family prop28 params must be an object"),
        ({"kind": "family", "name": "gap-cap-lp", "params": {"a": "1/1"}}, "family params missing 'b'"),
        ({"kind": "family", "name": "nn-on-support",
          "params": {"support": {"kind": "arith", "start": 1, "step": 3, "stpe": 3}}},
         "support spec (arith) has no key 'stpe'"),
        ({"kind": "spread", "base": {"kind": "family", "name": "nat"},
          "support": {"kind": "powers-of-two", "j": 2}}, "support spec (powers-of-two) has no key 'j'"),
    ],
)
def test_unknown_and_missing_spec_keys_are_parse_errors(spec, message):
    """A spec key the kind does not have, or a missing one, would otherwise
    turn a typo into another sequence (the zero sequence, for a combine)."""
    with pytest.raises(ParseError) as err:
        sequence_from_spec(spec)
    assert message in str(err.value)


def test_every_catalog_spec_still_parses_to_its_own_bytes():
    for seq in catalog().values():
        assert canonical_json(sequence_from_spec(seq.spec()).spec()) == canonical_json(seq.spec())


def test_every_family_rejects_a_parameter_it_does_not_have():
    # a family that takes no parameter rejects every one
    families = {seq.name: seq for seq in catalog().values() if seq.kind == "family"}
    assert set(families) == set(FAMILY_BUILDERS)
    for name, seq in sorted(families.items()):
        spec = seq.spec()
        assert canonical_json(sequence_from_spec(spec).spec()) == canonical_json(spec)
        spec["params"] = {**spec["params"], "zz": "1/1"}
        with pytest.raises(ParseError, match=f"family {name} has no parameter 'zz'"):
            sequence_from_spec(spec)


# --- report rendering: the bytes of json.dumps(sort_keys=True, indent=2) ---

_TESTS = Path(__file__).resolve().parent
_REPORT_FILES = sorted(
    [*(_TESTS / "cli_golden").glob("*.json"), *(_TESTS / "escape_golden").glob("*.json"),
     _TESTS / "diagnose_golden.json"]
)


def _stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Dict(dict):
    pass


_STRINGS = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\r é€😀\ud800\udfff\u2028ab')),
)
_LEAVES = st.one_of(
    _STRINGS, st.integers(), st.integers(-(10**80), 10**80), st.booleans(), st.none(),
    st.floats(),  # outside the renderer's subset: handed to json.dumps
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
        st.dictionaries(st.integers(), inner, min_size=1, max_size=3),
        st.dictionaries(_STRINGS, inner, max_size=3).map(_Dict),
    ),
    max_leaves=12,
)


@given(_VALUES)
@example({"b": [(), {}, []], "a": {"": None, "\ud800": [True, False, -(10**40)]}})
@example({1: "int key"})
@example(_Dict(b=1, a=2))
@example([0.5, {"x": float("nan")}])
def test_canonical_json_is_the_stdlib_text(obj):
    assert canonical_json(obj) == _stdlib(obj)


def _circular():
    loop = []
    loop.append({"a": loop})
    return loop


def _rendered(render, obj):
    try:
        return "text", render(obj)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "obj", [object(), {1: "a", "b": 2}, [{"a": {1, 2}}], _circular(), {"n": 10**5000}],
    ids=["object", "mixed-keys", "nested-set", "circular", "past-the-digit-limit"],
)
def test_canonical_json_raises_what_the_stdlib_raises(obj):
    assert _rendered(canonical_json, obj) == _rendered(_stdlib, obj)


@pytest.mark.parametrize("path", _REPORT_FILES, ids=lambda f: str(f.relative_to(_TESTS)))
def test_recorded_reports_render_to_their_own_bytes(path):
    raw = path.read_bytes()
    assert canonical_json(json.loads(raw)).encode() == raw


# --- rational literals: the canonical ASCII form skips Fraction's parser ---


def _parse_through_fraction(text):
    """parse_rational without its canonical-literal fast path."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def _outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    assert value.__class__ is Fraction
    return "value", value


@given(st.text(st.sampled_from("0123456789-+/_. ３٣"), max_size=12))
@example("0/0")
@example("1/00")
@example("+3/4")
@example("3_0/4")
@example(" 3/4")
@example("-0/7")
@example("--1/2")
@example("-12/-3")
@example("٣/4")
@example("1/2/3")
@example("2")
@example("-1")
@example("0")
@example("-0")
@example("007")
@example("-")
@example("3/")
def test_rational_literals_parse_as_through_fraction(text):
    assert _outcome(parse_rational, text) == _outcome(_parse_through_fraction, text)


# bare, signed, num/den, with whitespace, with underscores, and past the digit limit
_LITERALS = [
    "0", "2", "-1", "-0", "007", "+5", "12345678901234567890", "1_000", "-1_0",
    "3/4", "-3/4", "0/5", "6/4", "+3/4", "1_0/2_0", "-00/01",
    " 2", "2 ", "\t-7\n", " 3/4 ", "3 /4", "- 1",
    "", "-", "--1", "1/", "/2", "1/0", "0/0", "1/-2", "1/2/3", "1__0", "_1", "1.5", "1e3",
    "9" * 4301, "-" + "9" * 4301, "9" * 4301 + "/7", "7/" + "9" * 4301,
]


@pytest.mark.parametrize("text", _LITERALS, ids=lambda text: repr(text)[:24])
def test_a_grid_of_literals_parses_as_through_fraction(text):
    outcome = _outcome(parse_rational, text)
    if "e" in text:  # refused before Fraction's parser is reached
        assert outcome == ("error", f"bad rational literal {text!r}: exponent notation is not accepted")
    else:
        assert outcome == _outcome(_parse_through_fraction, text)
    if outcome[0] == "value":
        assert outcome[1] == Fraction(text.strip())


def test_a_literal_past_the_digit_limit_is_the_same_parse_error():
    for text in ("1" * 5000 + "/3", "-" + "1" * 5000):
        assert _outcome(parse_rational, text) == _outcome(_parse_through_fraction, text)
        assert _outcome(parse_rational, text)[0] == "error"
