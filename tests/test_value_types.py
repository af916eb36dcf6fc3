"""The package's value types are plain immutable classes on one base,
``intervals.Frozen``: their fields cannot be assigned or deleted, they
compare and hash by the fields they name, never equal another class, and
``replace`` rebuilds them through their constructors.  Importing the
package loads none of the modules that generated classes need."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from seqchain.cli import RunConfig
from seqchain.diagnose import (
    Certificate,
    CertifiedIn,
    CertifiedOut,
    ClosedFamily,
    ConsistentUpTo,
    Undecided,
    ViolatedAt,
)
from seqchain.errors import SeqchainError, UnknownSpace
from seqchain.families import nat
from seqchain.generic import ApproxResult, DenseFamilyElement, OutsideXCertificate
from seqchain.intervals import ComplexInterval, Frozen, replace
from seqchain.sequences import FiniteRational
from seqchain.spaceable import SpaceableBasis
from seqchain import spaces
from seqchain.spaces import C0, HD, MetricBound, SpaceId, cap_lp, lp, parse_space, seminorm_rows
from seqchain.supports import DyadicRow
from seqchain.tags import (
    BlockDivergence,
    RootLowerBound,
    SubseqLowerBound,
    dyadic_position_block,
    shifted_dyadic_block,
)
from seqchain.witness import Witness

SEQ, X, ROW = nat(), FiniteRational({0: F(1, 2)}), DyadicRow(1)


def _s(m):
    return m


def _g(m):
    return F(1, m)


def _cert():
    return Certificate(lp(F(1)), "not-vanishing", (F(1, 2), "nat"))


def _witness():
    return Witness(SEQ, lp(F(1)), C0, _cert(), _cert(), ROW)


def _escape():
    return OutsideXCertificate(1, ComplexInterval.exact(F(2)), 4, _witness())


# one value of every type on the base, built afresh, with equal but distinct
# Fractions, on each call; a ClosedFamily once for each of its five families
VALUES = {
    "ComplexInterval": lambda: ComplexInterval(F(0), F(1), F(2), F(2)),
    "SpaceId": lambda: SpaceId("cap-lp", F(1, 2)),
    "MetricBound": lambda: MetricBound(F(1), F(2)),
    "SubseqLowerBound": lambda: SubseqLowerBound("nat", _s, _g, F(1)),
    "RootLowerBound": lambda: RootLowerBound("nn", _s, _g),
    "BlockDivergence": lambda: BlockDivergence(F(1), dyadic_position_block, "harmonic", F(1, 2), 2),
    "Certificate": _cert,
    "CertifiedIn": lambda: CertifiedIn(_cert()),
    "CertifiedOut": lambda: CertifiedOut(_cert()),
    "Undecided": lambda: Undecided(64),
    "FMk": lambda: ClosedFamily("FMk", (F(1), 2)),
    "PartialSum": lambda: ClosedFamily("psum", (F(1), F(2))),
    "Fnk": lambda: ClosedFamily("Fnk", (3, 4)),
    "FM": lambda: ClosedFamily("FM", (F(5),)),
    "Fkj": lambda: ClosedFamily("Fkj", (2, 3)),
    "ViolatedAt": lambda: ViolatedAt(5, F(1), F(2)),
    "ConsistentUpTo": lambda: ConsistentUpTo(10),
    "DenseFamilyElement": lambda: DenseFamilyElement(1, X, _witness(), F(1, 4), SEQ),
    "OutsideXCertificate": _escape,
    "ApproxResult": lambda: ApproxResult(SEQ, _escape(), F(1, 8)),
    "Witness": _witness,
    "SpaceableBasis": lambda: SpaceableBasis(lp(F(1)), C0, {1: _witness()}),
    "RunConfig": lambda: RunConfig(64, 16, F(1, 4), 3, "text"),
}


def test_every_value_type_is_covered():
    built = {type(make()).__name__ for make in VALUES.values()}
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == built


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name]()
    for field in (*type(value)._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values_and_hashes(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b and a == b and not a != b
    assert replace(a) == a and copy.copy(a) == a
    if name == "SpaceableBasis":  # its elements are a read-only mapping, which has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(replace(a))


def test_a_basis_cannot_be_changed_in_place():
    given = {1: _witness()}
    basis = SpaceableBasis(lp(F(1)), C0, given)
    with pytest.raises(TypeError):
        basis.elements[4] = _witness()
    with pytest.raises(TypeError):
        del basis.elements[1]
    given[2] = _witness()  # the basis holds its own copy
    assert list(basis.elements) == [1] and basis.elements[1] == _witness()
    assert list(basis.elements.values()) == [_witness()]
    assert replace(basis) == basis and copy.copy(basis).elements == basis.elements


def _row_params(y, rows=16):
    kind, param, nested = seminorm_rows(y)
    return kind, nested, [param(k) for k in range(1, rows + 1)]


@pytest.mark.parametrize("text", ["cap-lp:1/2", "lp:3/2", "hd", "c0", "linf"])
def test_kept_rows_do_not_change_what_a_space_is(text):
    y, before = parse_space(text), parse_space(text)
    shown, key = repr(y), hash(y)
    first = _row_params(y)
    assert y == before and before == y and hash(y) == key == hash(before) and repr(y) == shown
    for again in (copy.copy(y), copy.deepcopy(y), pickle.loads(pickle.dumps(y)), replace(y)):
        assert again == y and hash(again) == key and repr(again) == shown
        assert _row_params(again) == first  # made afresh, the same values
    second = _row_params(y)
    assert all(a is b for a, b in zip(first[2], second[2]))  # the kept objects


def test_a_plain_tag_parses_to_the_module_constant():
    for name in ("ainf", "c0", "linf", "hd", "cn0"):
        assert parse_space(name) is parse_space(f" {name} ") is getattr(spaces, name.upper())
    assert parse_space("cap-lp:1") is not parse_space("cap-lp:1") == cap_lp(1)
    assert seminorm_rows(parse_space("hd")) is seminorm_rows(HD)


def test_another_class_with_the_same_fields_is_never_equal():
    cert = _cert()
    assert CertifiedIn(cert) != CertifiedOut(cert)
    assert ClosedFamily("Fnk", (2, 3)) != ClosedFamily("Fkj", (2, 3))  # nor another name


def test_tags_and_blocks_compare_without_their_callables():
    tag = SubseqLowerBound("nat", _s, _g, F(1))
    other = SubseqLowerBound("nat", lambda m: 2 * m, lambda m: F(0), F(1))
    assert tag == other and hash(tag) == hash(other)
    assert tag != SubseqLowerBound("nat", _s, _g, F(2)) and tag != SubseqLowerBound("nn", _s, _g, F(1))
    root = RootLowerBound("nn", _s, _g)
    assert root == RootLowerBound("nn", abs, abs) and hash(root) == hash(RootLowerBound("nn", abs, abs))
    assert root != RootLowerBound("nat", _s, _g)
    block = BlockDivergence(F(1), dyadic_position_block, "harmonic", F(1, 2), 2)
    moved = BlockDivergence(F(1), shifted_dyadic_block, "harmonic", F(1, 2), 2)
    assert block == moved and hash(block) == hash(moved)
    assert block != BlockDivergence(F(1), dyadic_position_block, "harmonic", F(1, 2), 3)


def test_replace_runs_the_constructor_checks_again():
    with pytest.raises(UnknownSpace):
        replace(C0, param=F(1))
    with pytest.raises(UnknownSpace):
        replace(lp(F(1)), param=F(0))
    with pytest.raises(ValueError):
        replace(MetricBound(F(1), F(2)), lower=F(3))
    box = ComplexInterval(F(0), F(1), F(2), F(3))
    with pytest.raises(ValueError):
        replace(box, re_hi=F(-1))
    with pytest.raises(ValueError):
        replace(box, im_lo=F(4))
    point = replace(box, re_hi=F(0), im_hi=F(2))  # equal ends, distinct objects
    assert point.re_hi is point.re_lo and point.im_hi is point.im_lo
    with pytest.raises(SeqchainError):
        replace(RunConfig(), budget=0)
    with pytest.raises(TypeError):
        replace(C0, kind="c0")


def test_import_loads_no_code_generation_modules():
    # modules that site loads before the imports do not count
    code = (
        "import sys; before = set(sys.modules); import seqchain, seqchain.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
