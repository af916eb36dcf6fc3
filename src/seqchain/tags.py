"""Growth facts attached to sequences at construction time.

Tags are closed-form claims (never numeric estimates); certificate
checkers spot-check them at finitely many indices against interval
evaluations of the terms.  Evidence compares by its data, never by its
callables, and a check reads the checked node's own evidence, so a
certificate re-checks on any node built from the same spec.  Three shapes
cover every out-certificate:

* ``SubseqLowerBound`` : |a_{s(m)}| >= g(m) along a strictly increasing
  subsequence, with an optional certified positive infimum of g;
* ``RootLowerBound``   : |a_{s(m)}|^(1/s(m)) >= rho(m).

``BlockDivergence`` expresses divergence of sum |a_n|^p through disjoint
blocks of support positions whose masses are bounded below by a named
divergent comparator (constant c, or harmonic c/j).  Block positions are
counted through the sequence's support enumeration; a spread moves each
block through the base's enumeration onto its own positions.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .intervals import Frozen, format_rational, setters


class SubseqLowerBound(Frozen):
    __slots__ = _fields = ("label", "s", "g", "g_inf")
    _compare = ("label", "g_inf")

    # s is strictly increasing in m >= 1, g maps m to a rational lower bound,
    # and g_inf is a certified positive infimum of g, if any
    def __init__(self, label: str, s: Callable[[int], int], g: Callable[[int], Fraction],
                 g_inf: Fraction | None = None):
        _set_sub_label(self, label)
        _set_sub_s(self, s)
        _set_sub_g(self, g)
        _set_sub_g_inf(self, g_inf)


class RootLowerBound(Frozen):
    __slots__ = _fields = ("label", "s", "rho")
    _compare = ("label",)

    def __init__(self, label: str, s: Callable[[int], int], rho: Callable[[int], Fraction]):
        _set_root_label(self, label)
        _set_root_s(self, s)
        _set_root_rho(self, rho)


COMPARATORS = ("constant", "harmonic")


class BlockDivergence(Frozen):
    """sum over block j of |a_{support position k}|^p >= beta(j), where
    beta(j) = c ("constant") or c/j ("harmonic"); either family has a
    divergent sum over j >= j_start.  Equal when the fields ``describe()``
    renders are: a check reads the block rule of the node it checks."""

    __slots__ = _fields = ("p", "block", "comparator", "c", "j_start")
    _compare = ("p", "comparator", "c", "j_start")

    # block maps j to (k_lo, k_hi), 1-based, inclusive
    def __init__(self, p: Fraction, block: Callable[[int], tuple[int, int]],
                 comparator: str = "constant", c: Fraction = Fraction(1), j_start: int = 1):
        _set_p(self, p)
        _set_block(self, block)
        _set_comparator(self, comparator)
        _set_c(self, c)
        _set_j_start(self, j_start)

    def beta(self, j: int) -> Fraction:
        if self.comparator == "constant":
            return self.c
        if self.comparator == "harmonic":
            return self.c / j
        raise ValueError(f"unknown comparator {self.comparator!r}")

    def describe(self) -> dict:
        return {
            "exponent": format_rational(self.p),
            "comparator": self.comparator,
            "c": format_rational(self.c),
            "j_start": self.j_start,
        }


_set_sub_label, _set_sub_s, _set_sub_g, _set_sub_g_inf = setters(SubseqLowerBound)
_set_root_label, _set_root_s, _set_root_rho = setters(RootLowerBound)
_set_p, _set_block, _set_comparator, _set_c, _set_j_start = setters(BlockDivergence)


def dyadic_position_block(j: int) -> tuple[int, int]:
    """Support positions [2^j, 2^(j+1) - 1]: the standard block shape."""
    return (1 << j, (1 << (j + 1)) - 1)


def shifted_dyadic_block(j: int) -> tuple[int, int]:
    """Support positions [2^j - 1, 2^(j+1) - 2]: on all naturals, the
    indices n with 2^j <= n + 2 < 2^(j+1)."""
    return ((1 << j) - 1, (1 << (j + 1)) - 2)
