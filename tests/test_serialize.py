import json
from fractions import Fraction

import pytest

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
