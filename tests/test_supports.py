import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqchain.errors import FiniteSupportSet, ParseError
from seqchain.families import nat
from seqchain.sequences import restrict
from seqchain.supports import (
    AllNaturals,
    Arith,
    DyadicRow,
    ExplicitFinite,
    PowersOfTwo,
    Union,
    support_from_spec,
)

SETS = [
    AllNaturals(),
    PowersOfTwo(),
    DyadicRow(1),
    DyadicRow(2),
    DyadicRow(3),
    Arith(0, 2),
    Arith(5, 7),
    ExplicitFinite([1, 4, 9, 16]),
]


@pytest.mark.parametrize("s", SETS, ids=lambda s: type(s).__name__ + str(s.spec() if hasattr(s, "spec") else ""))
def test_member_rank_nth_consistent(s):
    elements = [n for n in range(200) if s.member(n)]
    assert [s.nth(k) for k in range(1, len(elements) + 1)] == elements
    for n in range(200):
        assert s.rank_upto(n) == len([e for e in elements if e <= n])


def test_nth_strictly_increasing():
    for s in SETS:
        count = min(s.rank_upto(10**6), 30)
        values = [s.nth(k) for k in range(1, count + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(s.member(v) for v in values)


def test_dyadic_rows_first_elements():
    assert [DyadicRow(1).nth(k) for k in range(1, 5)] == [0, 2, 4, 6]
    assert [DyadicRow(2).nth(k) for k in range(1, 5)] == [1, 5, 9, 13]


def test_dyadic_rows_partition():
    seen = {}
    for j in range(1, 12):
        row = DyadicRow(j)
        for n in range(0, 1001):
            if row.member(n):
                assert n not in seen, (n, j, seen[n])
                seen[n] = j
    assert set(seen) == set(range(0, 1001))  # rows 1..11 cover 0..1000


def test_dyadic_rows_equal_the_brute_force_valuation():
    # row j is n with v2(n+1) = j-1, here read off the lowest set bit of n+1
    for j in range(1, 11):
        row = DyadicRow(j)
        elements = [n for n in range(1 << 12) if ((n + 1) & -(n + 1)).bit_length() == j]
        assert [n for n in range(1 << 12) if row.member(n)] == elements
        assert [row.nth(k) for k in range(1, len(elements) + 1)] == elements
        count = 0
        for n in range(1 << 12):
            count += n in elements[count:count + 1]
            assert row.rank_upto(n) == count
        for n in (*range(-1, 1 << 12, 97), (1 << 12) - 1):
            assert list(row.elements_upto(n)) == [e for e in elements if e <= n]


def test_progressions_miss_exactly_when_brute_force_finds_no_common_element():
    # two progressions meet by 15 + lcm(steps) <= 255 if they meet at all,
    # so their elements below 2**10 decide it
    progressions = [Arith(a, d) for a in range(16) for d in range(1, 17)]
    progressions += [DyadicRow(j) for j in range(1, 5)]
    points = [frozenset(range(s.start, 1 << 10, s.step)) for s in progressions]
    for s, s_points in zip(progressions, points):
        for row, row_points in zip(progressions, points):
            assert s.misses(row, 0) == s_points.isdisjoint(row_points), (s.spec(), row.spec())


def test_finite_flag_and_errors():
    fin = ExplicitFinite([3, 7])
    assert fin.finite_flag
    with pytest.raises(FiniteSupportSet):
        fin.require_infinite()
    with pytest.raises(FiniteSupportSet):
        fin.nth(3)


def test_a_restriction_to_a_finite_mask_has_a_finite_hint():
    finite = [restrict(nat(), ExplicitFinite(elems)).support_hint for elems in ([1, 3], [8])]
    infinite = restrict(nat(), PowersOfTwo()).support_hint
    assert all(hint.finite_flag for hint in finite) and not infinite.finite_flag
    # a union is finite exactly when every one of its hints is
    assert Union(finite).finite_flag
    assert not Union([finite[0], infinite]).finite_flag


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "all"},
        {"kind": "powers-of-two"},
        {"kind": "dyadic-row", "j": 4},
        {"kind": "arith", "start": 3, "step": 5},
        {"kind": "explicit-finite", "elems": [2, 7, 2]},
    ],
)
def test_spec_roundtrip(spec):
    s = support_from_spec(spec)
    again = support_from_spec(s.spec())
    for n in range(100):
        assert s.member(n) == again.member(n)


def test_bad_specs_rejected():
    with pytest.raises(ParseError):
        support_from_spec({"kind": "nope"})
    with pytest.raises(ParseError):
        support_from_spec({"kind": "dyadic-row"})
    with pytest.raises(ParseError):
        support_from_spec("all")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "all", "j": 1},
        {"kind": "powers-of-two", "start": 0},
        {"kind": "dyadic-row", "j": 4, "k": 1},
        {"kind": "arith", "start": 3, "step": 5, "stpe": 3},
        {"kind": "explicit-finite", "elems": [2, 7], "elem": [1]},
    ],
)
def test_a_key_the_support_kind_does_not_have_is_rejected(spec):
    extra = list(spec)[-1]
    with pytest.raises(ParseError, match=f"support spec \\({spec['kind']}\\) has no key '{extra}'"):
        support_from_spec(spec)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=60))
def test_dyadic_row_nth_matches_rank(j, k):
    row = DyadicRow(j)
    n = row.nth(k)
    assert row.member(n)
    assert row.rank_upto(n) == k
    assert row.rank_upto(n - 1) == k - 1
