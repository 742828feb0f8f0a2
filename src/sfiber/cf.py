"""Exact minus-sign (Hirzebruch-Jung) continued fractions of rationals > 1.

Every rational r > 1 has a unique expansion r = [c1,...,ck] where

    [c1,...,ck] = c1 - 1/(c2 - 1/(... - 1/ck)),   all ci >= 2.

This module is the only one that knows it, in run-length form (k0, c1,
k1, ..., cj, kj) for 2 x k0, c1, 2 x k1, ..., cj, 2 x kj: runs of k >= 0
2s at even positions, singles c >= 3 at odd ones.  Reading, evaluation
and the dual r' (1/r + 1/r' = 1) are each written once on that form, in
integers.  The plus-sign evaluation, the arithmetic dual, the point
diagram, reversal and the value order of expansions are test references
(``tests/conftest.py``).
"""

from __future__ import annotations

from fractions import Fraction


def expansion_runs(p: int, q: int) -> tuple[int, ...]:
    """Run-length form of the expansion of p/q > 1 (lowest terms).

    A run of k 2s ahead of a tail t evaluates to ((k+1)t - k)/(kt - k + 1),
    so 1/(p/q - 1) = k + 1/(t-1) with t - 1 > 1 unless the expansion ends:
    one divmod reads the run and a second reads the single c = ceil(t).
    Both steps are those of Euclid's algorithm, so the length is
    logarithmic in p.
    """
    out = []
    while True:
        k, r = divmod(q, p - q)
        out.append(k)
        if r == 0:  # p/q = (k+1)/k: the expansion ends with the run
            return tuple(out)
        u, v = divmod(p - q, r)  # t - 1 = (p-q)/r
        if v == 0:  # t = u + 1 is the last coefficient
            return tuple(out + [u + 1, 0])
        out.append(u + 2)
        p, q = r, r - v  # the tail after c is 1/(c - t)


def eval_runs(runs) -> tuple[int, int]:
    """(numerator, denominator) of the expansion with run-length form runs.

    Evaluated right to left on the pair (x, y) standing for x/y, starting
    from infinity.  A single c maps it by [[c, -1], [1, 0]]; a run of k
    2s by [[2, -1], [1, 0]]^k = [[k+1, -k], [k, 1-k]], which adds k(x-y)
    to both entries.  Every matrix has determinant 1, so the result is in
    lowest terms.
    """
    x, y = 1, 0
    for idx in range(len(runs) - 1, -1, -1):
        if idx % 2 == 0:
            step = runs[idx] * (x - y)
            x, y = x + step, y + step
        else:
            x, y = runs[idx] * x - y, x
    return x, y


def dual_runs(runs) -> tuple[int, ...]:
    """Run-length form of the dual, read off Riemenschneider's point diagram:
    row i holds c_i - 1 dots, starting under the last dot of row i-1, and
    column j holds (dual coefficient j) - 1.  A run of k 2s stacks k dots in
    one column and becomes the single k+3 (k+2 at either end, k+1 alone); a
    single c leaves c-3 one-dot columns, a run of c-3 2s.  An end single of
    2 joins the neighbouring run."""
    last, out = len(runs) - 1, [0]
    for idx, k in enumerate(runs):
        c = k + 3 - (idx == 0) - (idx == last)
        if idx % 2:
            out[-1] += k - 3
        elif c == 2:
            out[-1] += 1
        else:
            out += [c, 0]
    return tuple(out)


def read_runs(coeffs) -> tuple[int, ...]:
    """Run-length form of a written-out expansion (all coefficients >= 2)."""
    if not coeffs or min(coeffs) < 2:
        raise ValueError(f"expected coefficients >= 2, got {tuple(coeffs)}")
    out = [0]
    for c in coeffs:
        if c == 2:
            out[-1] += 1
        else:
            out += [c, 0]
    return tuple(out)


def write_runs(runs) -> tuple[int, ...]:
    """The written-out expansion with run-length form runs."""
    out = []
    for idx, k in enumerate(runs):
        out += [k] if idx % 2 else [2] * k
    return tuple(out)


def neg_cf_expand(value) -> tuple[int, ...]:
    """Expand a rational > 1 into its unique all->=2 minus-sign expansion."""
    rho = Fraction(value)
    if rho <= 1:
        raise ValueError(f"expansion requires a rational > 1, got {rho}")
    return write_runs(expansion_runs(rho.numerator, rho.denominator))


def neg_cf_eval(coeffs) -> Fraction:
    """Evaluate a minus-sign continued fraction with all coefficients >= 2."""
    return Fraction(*eval_runs(read_runs(coeffs)))


def riemenschneider_dual(coeffs) -> tuple[int, ...]:
    """Dual expansion computed from the point diagram, not by evaluating."""
    return write_runs(dual_runs(read_runs(coeffs)))
