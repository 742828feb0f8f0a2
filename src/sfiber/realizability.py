"""Realizability oracle for gamma vectors: the simplest fraction.

A vector (g1,...,gr) of rationals in (0,1) is realizable if r >= 3 and
there are coprime integers m > a > 0 and a permutation s with

    g_{s(1)} < a/m,   g_{s(2)} < (m-a)/m,   g_{s(j)} < 1/m  for j >= 3.

Sorting the entries in descending order is no loss of generality: the
first two slots carry the weakest bounds, so the two largest entries go
there, and the third largest entry bounds all the others.  With the
entries sorted, the first two conditions say that a/m lies strictly
inside the interval (g_(1), 1 - g_(2)), and the rest say m < 1/g_(3).
The last bound only grows harder with m, so a certificate exists exactly
when the fraction of least denominator inside the interval satisfies it.

That fraction is unique: it is the simplest fraction of the interval,
the first of its points met when descending the Stern-Brocot tree
(Graham-Knuth-Patashnik, Concrete Mathematics, section 4.5).  It is
found from the regular continued fractions of the two endpoints: strip
their common integer part, then invert both and repeat.  The number of
steps is the length of those continued fractions, logarithmic in the
denominators.  Among all certificates it is the one with least m, and
then least a, so the answer does not depend on the search strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class RealizabilityCertificate:
    """Witness (m, a) plus the slot assignment, as original indices."""

    m: int
    a: int
    assignment: tuple[int, ...]


def _check_entries(gammas) -> None:
    for g in gammas:
        if not 0 < g < 1:
            raise ValueError(f"gamma entries must lie in (0,1), got {g}")


def _simplest_between(ln: int, ld: int, un: int, ud: int) -> tuple[int, int]:
    """Least-denominator fraction strictly inside (ln/ld, un/ud), as (num, den).

    Requires 0 <= ln/ld < un/ud with positive denominators.  Each step
    writes the answer as c + 1/y with c the common integer part of the
    endpoints, and looks for y between the inverted remainders; the
    partial quotients are then folded into a convergent.  A remainder of
    zero makes the upper end of the next interval infinite (ud = 0).
    """
    # convergents h/k of the continued fraction collected so far
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        c, ln_rem = divmod(ln, ld)
        if ud == 0 or (c + 1) * ud < un:
            c += 1  # the next integer lies inside: the fraction ends here
            return c * h + h_prev, c * k + k_prev
        h, h_prev, k, k_prev = c * h + h_prev, h, c * k + k_prev, k
        ln, ld, un, ud = ud, un - c * ud, ld, ln_rem


def is_realizable(gammas) -> RealizabilityCertificate | None:
    """The least certificate, or None if none exists (or r < 3).

    Least means m smallest, then a smallest; the entries are assigned in
    stable descending order.
    """
    gammas = tuple(Fraction(g) for g in gammas)
    _check_entries(gammas)
    if len(gammas) < 3:
        return None
    order = sorted(range(len(gammas)), key=lambda i: -gammas[i])
    n1, d1 = gammas[order[0]].numerator, gammas[order[0]].denominator
    n2, d2 = gammas[order[1]].numerator, gammas[order[1]].denominator
    n3, d3 = gammas[order[2]].numerator, gammas[order[2]].denominator
    if n1 * d2 >= (d2 - n2) * d1:  # g_(1) >= 1 - g_(2): the interval is empty
        return None
    a, m = _simplest_between(n1, d1, d2 - n2, d2)
    if m * n3 >= d3:  # m >= 1/g_(3)
        return None
    return RealizabilityCertificate(m, a, tuple(order))


def verify_certificate(gammas, cert: RealizabilityCertificate) -> bool:
    """Exact check of the three inequality families under cert.assignment."""
    gammas = tuple(Fraction(g) for g in gammas)
    if sorted(cert.assignment) != list(range(len(gammas))):
        return False
    if len(gammas) < 3:
        return False
    m, a = cert.m, cert.a
    if not (m > a > 0 and gcd(m, a) == 1):
        return False
    slots = [gammas[i] for i in cert.assignment]
    if not slots[0] < Fraction(a, m):
        return False
    if not slots[1] < Fraction(m - a, m):
        return False
    return all(g < Fraction(1, m) for g in slots[2:])
