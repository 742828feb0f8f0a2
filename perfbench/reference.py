"""Independent integer reference for every answer the benchmark checks.

Nothing here imports sfiber.  Rationals are (numerator, denominator)
pairs of Python integers with a positive denominator, and the decisions
are recomputed clause by clause from the fiber data:

    contact     Main-a  e0 <= -chi
                Main-b  g = 0, r <= 2, e < 0
                Main-c  g = 0, e0 = -1, Gamma(M) realizable
    foliation   Fol-a   e0 <= -chi and e0(-M) <= -chi
                Fol-b   g = 0, e = 0
                Fol-c   g = 0, e0 = -1, Gamma(M) realizable
                Fol-d   g = 0, e0(-M) = -1, Gamma(-M) realizable
    invariant   e<0     e < 0

Realizability does not search: the certificate (m, a) is the fraction of
least denominator strictly inside (gamma_1, 1 - gamma_2), found by
descending the Stern-Brocot tree, and it is a certificate exactly when
m < 1/gamma_3.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations_with_replacement
from math import comb, gcd


def normalize(b: int, fibers) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Move floor(beta/alpha) of every fiber into b; drop alpha = 1 fibers."""
    out = []
    for alpha, beta in fibers:
        k = beta // alpha
        b += k
        if alpha != 1:
            out.append((alpha, beta - k * alpha))
    return b, tuple(out)


def euler(b: int, fibers) -> tuple[int, int]:
    """Reduced e(M) = -b - sum(beta/alpha) of normalized data."""
    den = 1
    for alpha, _ in fibers:
        den = den * alpha // gcd(den, alpha)
    num = -b * den - sum(beta * (den // alpha) for alpha, beta in fibers)
    common = gcd(num, den)
    return num // common, den // common


def chi(g: int) -> int:
    return 2 - 2 * g if g >= 0 else 2 + g


def gammas(fibers) -> tuple[tuple[int, int], ...]:
    """Gamma(M) = (1 - beta/alpha) of normalized fibers, already reduced."""
    return tuple((alpha - beta, alpha) for alpha, beta in fibers)


def simplest_between(ln: int, ld: int, un: int, ud: int) -> tuple[int, int]:
    """Least-denominator fraction strictly inside (ln/ld, un/ud), as (num, den).

    Requires 0 <= ln/ld < un/ud; ud = 0 stands for an infinite upper end.
    Each level strips the common integer part and inverts, so the depth
    is the length of the endpoints' regular continued fractions.
    """
    a = ln // ld
    if ud == 0 or (a + 1) * ud < un:
        return a + 1, 1
    p, q = simplest_between(ud, un - a * ud, ld, ln - a * ld)
    return a * p + q, p


def descending_order(values) -> tuple[int, ...]:
    """Indices by descending value, ties in index order."""
    def cmp(i, j):
        return values[j][0] * values[i][1] - values[i][0] * values[j][1]
    return tuple(sorted(range(len(values)), key=cmp_to_key(cmp)))


def certificate(values) -> tuple[int, int, tuple[int, ...]] | None:
    """(m, a, assignment) of the least certificate, or None if unrealizable."""
    if len(values) < 3:
        return None
    order = descending_order(values)
    (n1, d1), (n2, d2), (n3, d3) = (values[i] for i in order[:3])
    if n1 * d2 >= (d2 - n2) * d1:  # (gamma_1, 1 - gamma_2) is empty
        return None
    a, m = simplest_between(n1, d1, d2 - n2, d2)
    if m * n3 >= d3:
        return None
    return m, a, order


def certificate_holds(values, m: int, a: int, assignment) -> bool:
    """The defining inequalities of a certificate, checked directly."""
    if len(values) < 3 or sorted(assignment) != list(range(len(values))):
        return False
    if not (m > a > 0 and gcd(m, a) == 1):
        return False
    slots = [values[i] for i in assignment]
    bounds = [(a, m), (m - a, m)] + [(1, m)] * (len(slots) - 2)
    return all(n * bd < bn * d for (n, d), (bn, bd) in zip(slots, bounds))


def decide(kind: str, b: int, g: int, fibers) -> dict:
    """Reference verdict: answer, case, certificate, evidence and the number
    of realizability consults (oracle questions with r >= 3) on the way."""
    b, fibers = normalize(b, fibers)
    r = len(fibers)
    e, e0, c = euler(b, fibers), -b - r, chi(g)
    evidence = {"e": e, "e0": e0, "chi": c}
    consults = 0

    def realizable(values):
        nonlocal consults
        if len(values) < 3:
            return None
        consults += 1
        return certificate(values)

    def verdict(case, cert=None, values=None):
        return {"answer": case is not None, "case": case, "certificate": cert,
                "gammas": values, "evidence": evidence, "consults": consults}

    if kind == "contact":
        if e0 <= -c:
            return verdict("Main-a")
        if g == 0 and r <= 2 and e[0] < 0:
            return verdict("Main-b")
        if g == 0 and e0 == -1:
            cert = realizable(gammas(fibers))
            if cert:
                return verdict("Main-c", cert, gammas(fibers))
        return verdict(None)
    if kind == "foliation":
        e0_rev = b  # e0(-M) = -(-b - r) - r
        evidence["e0_rev"] = e0_rev
        if e0 <= -c and e0_rev <= -c:
            return verdict("Fol-a")
        if g == 0 and e[0] == 0:
            return verdict("Fol-b")
        if g == 0 and e0 == -1:
            cert = realizable(gammas(fibers))
            if cert:
                return verdict("Fol-c", cert, gammas(fibers))
        if g == 0 and e0_rev == -1:
            reversed_gammas = tuple((beta, alpha) for alpha, beta in fibers)
            cert = realizable(reversed_gammas)
            if cert:
                return verdict("Fol-d", cert, reversed_gammas)
        return verdict(None)
    if kind == "invariant":
        return verdict("e<0" if e[0] < 0 else None)
    raise ValueError(f"unknown decision kind {kind!r}")


def neg_cf(p: int, q: int) -> tuple[int, ...]:
    """Minus-sign continued fraction of p/q > 1, all coefficients >= 2."""
    out = []
    while True:
        c = -(-p // q)
        out.append(c)
        if c * q == p:
            return tuple(out)
        p, q = q, c * q - p


def plumbing_dot(b: int, g: int, fibers) -> str:
    """DOT text of the star plumbing: center (e0, g), one chain per fiber
    carrying the expansion of alpha/(alpha - beta)."""
    b, fibers = normalize(b, fibers)
    labels = [(-b - len(fibers), g)]
    edges = []
    for alpha, beta in fibers:
        prev = 0
        for coeff in neg_cf(alpha, alpha - beta):
            labels.append((-coeff, 0))
            edges.append((prev, len(labels) - 1))
            prev = len(labels) - 1
    lines = ["graph plumbing {"]
    lines += [f'  v{i} [label="x={x},g={gen}"];' for i, (x, gen) in enumerate(labels)]
    lines += [f'  v{u} -- v{v} [label="1"];' for u, v in sorted(edges)]
    return "\n".join(lines + ["}"]) + "\n"


def fiber_pairs(max_alpha: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(2, max_alpha + 1) for b in range(1, a) if gcd(a, b) == 1]


def multiset_count(kinds: int, max_r: int) -> int:
    """Multisets of size 0..max_r drawn from `kinds` kinds."""
    return sum(comb(kinds + r - 1, r) for r in range(max_r + 1))


def negative_euler_cells(bs, max_alpha: int, max_r: int) -> int:
    """Cells (b, fiber multiset) with e(M) < 0, i.e. b*L + sum(beta*L/alpha) > 0."""
    pairs = fiber_pairs(max_alpha)
    lcm = 1
    for alpha in range(2, max_alpha + 1):
        lcm = lcm * alpha // gcd(lcm, alpha)
    weights = [beta * (lcm // alpha) for alpha, beta in pairs]
    count = 0
    for r in range(max_r + 1):
        for combo in combinations_with_replacement(weights, r):
            s = sum(combo)
            count += sum(1 for b in bs if b * lcm + s > 0)
    return count


def gamma_values(max_denominator: int) -> list[tuple[int, int]]:
    return [(p, q) for q in range(2, max_denominator + 1) for p in range(1, q) if gcd(p, q) == 1]


def realizable_multisets(r: int, max_denominator: int) -> tuple[int, int]:
    """(multisets, realizable ones) over all r-multisets of gamma values."""
    values = gamma_values(max_denominator)
    total = realizable = 0
    for combo in combinations_with_replacement(values, r):
        total += 1
        realizable += certificate(combo) is not None
    return total, realizable
