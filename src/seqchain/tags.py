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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .intervals import format_rational


@dataclass(frozen=True)
class SubseqLowerBound:
    label: str
    s: Callable[[int], int] = field(repr=False, compare=False)  # strictly increasing in m >= 1
    g: Callable[[int], Fraction] = field(repr=False, compare=False)  # m -> rational lower bound
    g_inf: Fraction | None = None  # certified positive infimum of g, if any


@dataclass(frozen=True)
class RootLowerBound:
    label: str
    s: Callable[[int], int] = field(repr=False, compare=False)
    rho: Callable[[int], Fraction] = field(repr=False, compare=False)


COMPARATORS = ("constant", "harmonic")


@dataclass(frozen=True)
class BlockDivergence:
    """sum over block j of |a_{support position k}|^p >= beta(j), where
    beta(j) = c ("constant") or c/j ("harmonic"); either family has a
    divergent sum over j >= j_start.  Equal when the fields ``describe()``
    renders are: a check reads the block rule of the node it checks."""

    p: Fraction
    # j -> (k_lo, k_hi), 1-based, inclusive
    block: Callable[[int], tuple[int, int]] = field(repr=False, compare=False)
    comparator: str = "constant"
    c: Fraction = Fraction(1)
    j_start: int = 1

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


def dyadic_position_block(j: int) -> tuple[int, int]:
    """Support positions [2^j, 2^(j+1) - 1]: the standard block shape."""
    return (1 << j, (1 << (j + 1)) - 1)


def shifted_dyadic_block(j: int) -> tuple[int, int]:
    """Support positions [2^j - 1, 2^(j+1) - 2]: on all naturals, the
    indices n with 2^j <= n + 2 < 2^(j+1)."""
    return ((1 << j) - 1, (1 << (j + 1)) - 2)
