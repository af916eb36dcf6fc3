"""A node keeps its tail oracles' answers (``Sequence.kept``), as it keeps
its terms.  The reference for every read is the same read as the first and
only one on a freshly parsed node of the same spec, whose store is empty; no
golden is read.  A certificate check reads the answers kept on the node it
checks, so every verdict must still check on a node parsed afresh
(``test_diagnose`` rejects each forged in-certificate on one, too)."""

import importlib.util
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import PREC
from seqchain import families
from seqchain.diagnose import Undecided, check_certificate, classify
from seqchain.sequences import Combine, FamilySeq, FiniteRational, Restrict, Spread
from seqchain.serialize import sequence_from_spec
from seqchain.spaces import parse_space
from seqchain.supports import AllNaturals
from test_head_goldens import _in_sequences

NODES = _in_sequences()
CLOSURES = ("_tail_fn", "_sup_fn", "_pos_sup_fn", "_disc_fn")


def _reads():
    """(oracle name, args) of every read of the grid; a position tail at the
    cutoffs that are positions, K >= 0."""
    for prec in (32, 64):
        for N in (-1, 0, 5, 37, 200):
            yield "sup_tail", (N, prec)
            if N >= 0:
                yield "pos_sup_tail", (N, prec)
            for p in (F(1, 2), F(1), F(2), F(25, 8)):
                yield "tail_majorant", (N, p, prec)
            for r in (F(1, 2), F(7, 8)):
                yield "disc_tail", (N, r, prec)
            for k in (0, 3):
                yield "poly_sup_tail", (N, k, prec)


def _answers(seq):
    return [getattr(seq, name)(*args) for name, args in _reads()]


def _family_leaves(seq):
    """The catalog families a node is built from."""
    if isinstance(seq, FamilySeq):
        return [seq]
    bases = seq.bases if isinstance(seq, Combine) else [seq.base] if hasattr(seq, "base") else []
    return [leaf for base in bases for leaf in _family_leaves(base)]


def _count_closures(seq, calls):
    """Wrap every oracle closure of the node's families so that each call is
    counted in ``calls``."""
    for leaf in _family_leaves(seq):
        for attr in CLOSURES:
            fn = getattr(leaf, attr)
            if fn is not None:
                setattr(leaf, attr, lambda *a, fn=fn: calls.append(a) or fn(*a))


@pytest.mark.parametrize("name", sorted(NODES))
def test_memoized_reads_equal_reads_on_a_fresh_node(name):
    seq = NODES[name]
    first, second = _answers(seq), _answers(seq)
    fresh = [getattr(sequence_from_spec(seq.spec()), oracle)(*args) for oracle, args in _reads()]
    assert first == second == fresh
    # finite data and a family hand back the answer their first read kept; a
    # spread, a restriction or a combination keeps none, as its bases keep theirs
    if isinstance(seq, (FamilySeq, FiniteRational)):
        assert all(a is b for a, b in zip(first, second))
    else:
        assert {key[0] for key in seq._kept} <= {"weights"}


@pytest.mark.parametrize("name", sorted(NODES))
def test_a_second_read_evaluates_no_closure(name):
    seq, calls = sequence_from_spec(NODES[name].spec()), []
    _count_closures(seq, calls)
    first = _answers(seq)
    made = len(calls)
    assert _answers(seq) == first and len(calls) == made


def test_a_none_answer_is_read_back_without_a_second_evaluation():
    calls = []
    seq = FamilySeq("probe", {}, lambda n, prec: None, support_hint=AllNaturals(),
                    sup_fn=lambda N, prec: calls.append((N, prec)))
    assert seq.sup_tail(5, PREC) is None and seq.sup_tail(5, PREC) is None
    assert seq.pos_sup_tail(0, PREC) is None and seq.pos_sup_tail(0, PREC) is None
    assert calls == [(5, PREC), (-1, PREC)]


@pytest.mark.parametrize("name, cls", [
    ("finite", FiniteRational), ("gap-cap-c0", FamilySeq), ("spread(gap-cap-c0,arith-1-3)", Spread),
    ("restrict(gap-cap-c0)", Restrict), ("combine(gap-cap-c0)", Combine)])
def test_keyword_reads_share_the_positional_reads_memo(name, cls):
    seq = sequence_from_spec(NODES[name].spec())
    assert type(seq) is cls
    keyword = [seq.sup_tail(5, prec=64), seq.tail_majorant(N=0, p=F(2), prec=64),
               seq.pos_sup_tail(prec=64, K=3), seq.disc_tail(-1, r=F(1, 2), prec=64),
               seq.poly_sup_tail(N=5, k=3, prec=64)]
    kept = dict(seq._kept)
    positional = [seq.sup_tail(5, 64), seq.tail_majorant(0, F(2), 64), seq.pos_sup_tail(3, 64),
                  seq.disc_tail(-1, F(1, 2), 64), seq.poly_sup_tail(5, 3, 64)]
    # each keyword read made the entry its positional read finds, on the node or,
    # for a spread or a restriction, on its base; a combination makes its
    # answers afresh from its bases' kept ones
    assert keyword == positional and seq._kept == kept
    if cls is not Combine:
        assert all(a is b for a, b in zip(keyword, positional))
    with pytest.raises(TypeError):
        seq.sup_tail(5)
    with pytest.raises(TypeError):
        seq.tail_majorant(0, F(2), 64, q=1)


def test_a_finite_node_makes_its_moduli_once_per_precision():
    seq = sequence_from_spec(NODES["finite"].spec())
    for N in (-1, 0, 1, 2):
        for prec in (32, 64):
            seq.sup_tail(N, prec)
            seq.poly_sup_tail(N, 3, prec)
    assert {key for key in seq._kept if key[0] == "moduli"} == {
        ("moduli", None), ("moduli", 32), ("moduli", 64)}
    # sliced by N: every entry past N, and none at or before it
    assert seq._moduli_beyond(0, 64) == seq._moduli_beyond(1, 64) == seq._moduli_beyond(-1, 64)[1:]
    assert seq._moduli_beyond(2) == []


# -- certificate checks on a node parsed afresh ---------------------------------


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_op_certificates_check_alike_on_the_build_node_and_a_cold_one(seed):
    wl = _workloads()
    ops = wl.classify_ops(random.Random(seed), wl.op_count("classify", 20))
    checked = 0
    for spec_text, space_text in ops:
        seq = sequence_from_spec(spec_text)
        verdict = classify(seq, parse_space(space_text), wl.BUDGET, wl.PREC)
        if isinstance(verdict, Undecided):
            continue
        cold = sequence_from_spec(spec_text)
        assert check_certificate(seq, verdict, 3, wl.PREC), (spec_text, space_text)
        assert check_certificate(cold, verdict, 3, wl.PREC), (spec_text, space_text)
        checked += 1
    assert checked > 1000


def test_a_check_reads_the_answers_the_build_kept():
    seq = families.prop28()
    verdict = classify(seq, parse_space("c0"), 4096, PREC)
    kept = dict(seq._kept)
    assert kept and check_certificate(seq, verdict, 3, PREC)
    assert seq._kept == kept


def test_a_node_writes_no_attribute_after_construction():
    """A node's normal form and a combination's precision bump sit in the
    store: reading them, or a term, adds no attribute to the node."""
    inner = Combine([F(1, 2)], [families.nat()])
    combo = Combine([(F(2), F(1, 3)), F(-1)], [inner, families.prop28()])
    before = set(vars(combo))
    combo.term(5, PREC)
    parts = combo.normal_parts
    assert set(vars(combo)) == before
    assert parts is combo.normal_parts and len(parts) == 2
    assert combo._kept["bump",] == combo._bump
