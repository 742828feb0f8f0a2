"""Exact continued-fraction arithmetic for rationals greater than 1.

Every rational r > 1 has a unique expansion r = [c1,...,ck] where

    [c1,...,ck] = c1 - 1/(c2 - 1/(... - 1/ck)),   all ci >= 2.

This module computes that expansion and its inverse, evaluates ordinary
(plus-sign) continued fractions, computes the dual r' defined by
1/r + 1/r' = 1 both arithmetically and combinatorially via the staircase
point diagram, and implements the sequence order under which expansion
order coincides with value order.  All arithmetic is exact; floats never
appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

LESS, EQUAL, GREATER = -1, 0, 1


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


def pos_cf_eval(coeffs) -> Fraction:
    """Evaluate a plus-sign continued fraction c1 + 1/(c2 + 1/(...)).

    Coefficients may be arbitrary integers; a tail that evaluates to zero
    makes the next step undefined and raises ValueError.
    """
    if not coeffs:
        raise ValueError("empty coefficient sequence")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        if value == 0:
            raise ValueError(f"zero intermediate denominator in {tuple(coeffs)}")
        value = c + 1 / value
    return value


def dual(value) -> Fraction:
    """Return the unique r' > 1 with 1/r + 1/r' = 1, i.e. r/(r-1).

    The map is an involution fixing 2 and exchanging (1,2) with (2,oo),
    reversing the usual order.
    """
    rho = Fraction(value)
    if rho <= 1:
        raise ValueError(f"dual requires a rational > 1, got {rho}")
    return rho / (rho - 1)


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


def reverse_cf(coeffs) -> tuple[int, ...]:
    """Reverse a coefficient sequence; the value's numerator is preserved."""
    return tuple(reversed(coeffs))


def lex_compare(s, t) -> int:
    """Three-way comparison in the order matching continued-fraction values.

    The first differing entry decides; when one sequence is a strict prefix
    of the other, the prefix is the *greater* one (dropping trailing terms
    increases the value).
    """
    for a, b in zip(s, t):
        if a != b:
            return LESS if a < b else GREATER
    if len(s) == len(t):
        return EQUAL
    return LESS if len(s) > len(t) else GREATER
