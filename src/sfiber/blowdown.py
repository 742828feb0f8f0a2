"""Blow-down route deciding realizability of a gamma vector.

Write the reciprocals of the descending entries as d1 <= d2 <= d3 <= ...
For d1 <= 2 < d2 the two smallest reciprocals expand as

    d1 = [2 x (n1+1), n2, 2 x n3, n4, ..., n_{2p}, 2 x n_{2p+1}]
    d2 = [m1, 2 x m2, m3, ..., m_{2q-1}, 2 x m_{2q}]

with interior singles >= 3 and run lengths >= 0, and d is the leading
coefficient of d3's expansion.  Blowing the associated configuration of
spheres down run by run drives an integer state (x, p, q, genus): the top
surface has self-intersection x and genus ``genus`` and meets the two
horizontal chains p and q times.  The combination

    2*genus - 2 - x + p + q  =  d - 1

is invariant under the iteration.  The route reports an obstruction when
a surface with nonnegative square (or square exceeding 2*genus - 2)
appears, and otherwise extracts a realizability certificate from a prefix
of one of the two expansions.  Certificates are always re-validated
against the defining inequalities before being reported.  The sequences
are read off ``cf``'s run-length forms, and ``cf`` evaluates and dualizes
the prefixes that the certificates come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cf import dual_runs, eval_runs, expansion_runs
from .plumbing import SurfaceClass, adjunction_ok
from .realizability import RealizabilityCertificate, verify_certificate


@dataclass(frozen=True)
class IterationInput:
    """Run-length data (n_seq, m_seq) of the two expansions plus d."""

    n_seq: tuple[int, ...]
    m_seq: tuple[int, ...]
    d: int

    def __post_init__(self):
        if len(self.n_seq) % 2 != 1:
            raise ValueError("n_seq must have odd length")
        if not self.m_seq or len(self.m_seq) % 2 != 0:
            raise ValueError("m_seq must have positive even length")
        for idx, value in enumerate(self.n_seq):
            if idx % 2 == 0 and value < 0:
                raise ValueError(f"n_seq run lengths must be >= 0, got {self.n_seq}")
            if idx % 2 == 1 and value < 3:
                raise ValueError(f"n_seq interior entries must be >= 3, got {self.n_seq}")
        for idx, value in enumerate(self.m_seq):
            if idx % 2 == 0 and value < 3:
                raise ValueError(f"m_seq singles must be >= 3, got {self.m_seq}")
            if idx % 2 == 1 and value < 0:
                raise ValueError(f"m_seq run lengths must be >= 0, got {self.m_seq}")
        if self.d < 3:
            raise ValueError(f"d must be >= 3, got {self.d}")

    @property
    def p(self) -> int:
        return (len(self.n_seq) - 1) // 2

    @property
    def q(self) -> int:
        return len(self.m_seq) // 2


@dataclass(frozen=True)
class BlowdownState:
    stage: int
    x: int
    p: int
    q: int
    genus: int


@dataclass(frozen=True)
class RouteVerdict:
    """Realizable with certificate and case tag, obstructed, or inconclusive."""

    kind: str  # "realizable" | "obstructed" | "inconclusive"
    case_tag: str | None = None
    certificate: RealizabilityCertificate | None = None
    reason: str | None = None
    stage: int | None = None
    diagnostic: str | None = None


def parse_delta_sequences(gammas) -> IterationInput:
    """Extract (n_seq, m_seq, d) from a descending gamma vector.

    Requires d1 <= 2 < d2 <= d3 for the reciprocals; callers handle the
    d1 > 2 and d2 <= 2 cases before reaching here.  The run lengths are
    read off the reciprocals; no expansion is written out.
    """
    g = tuple(Fraction(x) for x in gammas)
    if len(g) < 3:
        raise ValueError("need at least three entries")
    if any(g[i] < g[i + 1] for i in range(len(g) - 1)):
        raise ValueError("gamma vector must be sorted descending")
    d1, d2, d3 = 1 / g[0], 1 / g[1], 1 / g[2]
    if not d1 <= 2 < d2 <= d3:
        raise ValueError(f"reciprocals out of range: {d1}, {d2}, {d3}")
    n_seq = expansion_runs(d1.numerator, d1.denominator)
    m_seq = expansion_runs(d2.numerator, d2.denominator)[1:]  # d2 > 2: no leading 2s
    d = -((-d3.numerator) // d3.denominator)  # leading coefficient = ceil(d3)
    return IterationInput((n_seq[0] - 1,) + n_seq[1:], m_seq, d)


def run_trace(inp: IterationInput) -> list[BlowdownState]:
    """Iterate the blow-down state through stage min(2q, 2p+1) + 1.

    Even steps consume a run of the first expansion, odd steps one of the
    second; every state satisfies 2*genus - 2 - x + p + q = d - 1.
    """
    limit = min(2 * inp.q, 2 * inp.p + 1)
    x, p, q, genus = 1 - inp.d, 1, 1, 0
    states = [BlowdownState(0, x, p, q, genus)]
    for i in range(limit + 1):
        if i % 2 == 0:
            c = inp.n_seq[i] + 1
            x += c * q * q
            genus += c * comb(q, 2)
            p += c * q
        else:
            c = inp.m_seq[i] + 1
            x += c * p * p
            genus += c * comb(p, 2)
            q += c * p
        states.append(BlowdownState(i + 1, x, p, q, genus))
    return states


def _rho_from_m_prefix(m_seq, k: int) -> tuple[int, int]:
    """Value of [2 x (m1-2), m2+3, 2 x (m3-3), ..., m_k+3] for even k: the
    dual of [m1, 2 x m2, ..., m_{k-1}, 2 x (m_k+1)]."""
    return eval_runs(dual_runs((0, *m_seq[:k - 1], m_seq[k - 1] + 1)))


def _rho_from_n_prefix(n_seq, k: int) -> tuple[int, int]:
    """Value of [2 x (n1+1), n2, 2 x n3, ..., 2 x (n_k+1)] for odd k; for
    k = 1 the leading and final run coincide and both gain a 2."""
    runs = list(n_seq[:k])
    runs[0] += 1
    runs[-1] += 1
    return eval_runs(runs)


def _validated(gammas, assignment, rho: tuple[int, int], tag: str) -> RouteVerdict:
    cert = RealizabilityCertificate(rho[0], rho[1], assignment)
    if verify_certificate(gammas, cert):
        return RouteVerdict("realizable", case_tag=tag, certificate=cert)
    return RouteVerdict(
        "inconclusive",
        case_tag=tag,
        certificate=cert,
        diagnostic=f"derived certificate ({cert.m},{cert.a}) fails validation",
    )


def decide_route(gammas) -> RouteVerdict:
    """Decide realizability along the blow-down analysis.

    Largest entry below 1/2 gives the certificate (2, 1) outright.  Two
    entries summing to >= 1 force a zero-square sphere.  Otherwise the
    trace is scanned: any surface violating the adjunction bound (the top
    vertex, or a horizontal weight (-1)^i (m_i - n_i) + 2 > -1) is an
    obstruction, a horizontal weight < -1 at stage k yields the prefix
    certificate for that parity, and a full scan ends in one of the two
    short-side certificates.
    """
    g = tuple(Fraction(x) for x in gammas)
    for entry in g:
        if not 0 < entry < 1:
            raise ValueError(f"gamma entries must lie in (0,1), got {entry}")
    if len(g) < 3:
        raise ValueError("route requires at least three entries")
    order = tuple(sorted(range(len(g)), key=lambda i: -g[i]))
    gs = [g[i] for i in order]
    if gs[0] < Fraction(1, 2):
        return _validated(g, order, (2, 1), "gamma1-below-half")
    if gs[0] + gs[1] >= 1:
        return RouteVerdict(
            "obstructed",
            reason="zero-square sphere",
            stage=0,
            diagnostic="two largest entries sum to >= 1",
        )
    inp = parse_delta_sequences(tuple(gs))
    limit = min(2 * inp.q, 2 * inp.p + 1)
    for state in run_trace(inp):
        i = state.stage
        if not adjunction_ok(SurfaceClass(state.x, state.genus)):
            return RouteVerdict(
                "obstructed",
                reason="adjunction violation",
                stage=i,
                diagnostic=f"top surface has square {state.x}, genus {state.genus}",
            )
        if 1 <= i <= limit:
            c = (-1) ** i * (inp.m_seq[i - 1] - inp.n_seq[i - 1]) + 2
            if c > -1:
                return RouteVerdict(
                    "obstructed",
                    reason="adjunction violation",
                    stage=i,
                    diagnostic=f"horizontal sphere has square {c}",
                )
            if c < -1:
                if i % 2 == 0:
                    return _validated(g, order, _rho_from_m_prefix(inp.m_seq, i), "even-k")
                return _validated(g, order, _rho_from_n_prefix(inp.n_seq, i), "odd-k")
    if 2 * inp.q < 2 * inp.p + 1:
        return _validated(g, order, _rho_from_n_prefix(inp.n_seq, 2 * inp.q + 1), "two-q-short")
    return _validated(g, order, _rho_from_m_prefix(inp.m_seq, 2 * inp.p + 2), "two-p-short")
