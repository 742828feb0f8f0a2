"""Exact continued-fraction arithmetic for rationals greater than 1.

Every rational r > 1 has a unique expansion r = [c1,...,ck] where

    [c1,...,ck] = c1 - 1/(c2 - 1/(... - 1/ck)),   all ci >= 2.

This module computes that expansion and its inverse, and the expansion
of the dual r' defined by 1/r + 1/r' = 1 combinatorially, via the
staircase point diagram.  All arithmetic is exact; floats never appear.
The plus-sign evaluation, the arithmetic dual, reversal and the sequence
order under which expansions compare like values are test references
(``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def neg_cf_expand(value) -> tuple[int, ...]:
    """Expand a rational > 1 into its unique all->=2 minus-sign expansion.

    Each step takes the ceiling c of p/q and continues with the inverted
    defect q/(c*q - p), which strictly decreases the denominator, so the
    expansion has at most ``numerator`` terms.  The pair (p, q) stays in
    lowest terms, so no step needs a gcd.
    """
    rho = Fraction(value)
    if rho <= 1:
        raise ValueError(f"expansion requires a rational > 1, got {rho}")
    p, q = rho.numerator, rho.denominator
    coeffs = []
    while q:
        c = -(-p // q)  # ceil
        coeffs.append(c)
        p, q = q, c * q - p
    return tuple(coeffs)


def neg_cf_eval(coeffs) -> Fraction:
    """Evaluate a minus-sign continued fraction right to left.

    With all coefficients >= 2 every tail is > 1, so no denominator
    vanishes.
    """
    if not coeffs:
        raise ValueError("empty coefficient sequence")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        value = c - 1 / value
    return value


@dataclass(frozen=True)
class PointDiagram:
    """Staircase of dots converting an expansion into its dual's expansion.

    Row i holds ``rows[i]`` dots and starts under the last dot of row i-1.
    Column j then holds (dual coefficient j) - 1 dots.
    """

    rows: tuple[int, ...]

    @classmethod
    def from_cf(cls, coeffs) -> "PointDiagram":
        if not coeffs or any(c < 2 for c in coeffs):
            raise ValueError("point diagram requires coefficients >= 2")
        return cls(tuple(c - 1 for c in coeffs))

    def column_counts(self) -> tuple[int, ...]:
        ncols = sum(self.rows) - (len(self.rows) - 1)
        counts = [0] * ncols
        start = 0
        for length in self.rows:
            for j in range(start, start + length):
                counts[j] += 1
            start += length - 1
        return tuple(counts)


def riemenschneider_dual(coeffs) -> tuple[int, ...]:
    """Dual expansion computed from the point diagram, not by evaluating."""
    counts = PointDiagram.from_cf(coeffs).column_counts()
    return tuple(c + 1 for c in counts)
