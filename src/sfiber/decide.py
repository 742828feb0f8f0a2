"""Existence decisions for transverse structures on Seifert manifolds.

A positive contact structure transverse to the fibers exists iff

    (a) e0(M) <= -chi, or
    (b) g = 0, r <= 2 and e(M) < 0, or
    (c) g = 0, e0(M) = -1 and Gamma(M) is realizable,

a transverse foliation iff

    (a) e0(M) <= -chi and e0(-M) <= -chi, or
    (b) g = 0 and e(M) = 0, or
    (c) g = 0, e0(M) = -1 and Gamma(M) is realizable, or
    (d) g = 0, e0(-M) = -1 and Gamma(-M) is realizable,

and an S1-invariant transverse contact structure iff e(M) < 0.  Clauses
are tested in order, so the reported case is deterministic.  Whenever the
realizability oracle is consulted, the blow-down route runs in shadow
mode; a presence disagreement raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import blowdown, realizability
from .realizability import RealizabilityCertificate
from .seifert import (
    SeifertData,
    e_zero,
    euler_char_base,
    euler_number,
    gamma_vector,
    normalize,
    reverse_orientation,
)


class ConsistencyError(RuntimeError):
    """Oracle and blow-down route disagree on a realizability verdict."""


@dataclass(frozen=True)
class Decision:
    answer: bool
    fired_case: str | None
    evidence: dict


# Decisions on distinct gamma vectors kept per process; bounded so that a
# long-lived process (or a forked sweep worker) does not grow without limit.
ORACLE_CACHE_SIZE = 4096


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _oracle_with_shadow(gammas: tuple) -> RealizabilityCertificate | None:
    cert = realizability.is_realizable(gammas)
    verdict = blowdown.decide_route(gammas)
    if verdict.kind == "realizable" and cert is None:
        raise ConsistencyError(f"route found a certificate the oracle missed on {gammas}")
    if verdict.kind == "obstructed" and cert is not None:
        raise ConsistencyError(f"route obstructed a realizable vector {gammas}")
    return cert


def _realizable(data: SeifertData) -> RealizabilityCertificate | None:
    gammas = gamma_vector(data)
    if len(gammas) < 3:
        return None
    return _oracle_with_shadow(gammas)


def admits_transverse_contact(data: SeifertData) -> Decision:
    """Decide existence of a positive transverse contact structure."""
    m = normalize(data)
    e, e0, chi = euler_number(m), e_zero(m), euler_char_base(m.g)
    r = len(m.fibers)
    evidence = {"e": e, "e0": e0, "chi": chi, "certificate": None}
    if e0 <= -chi:
        return Decision(True, "Main-a", evidence)
    if m.g == 0 and r <= 2 and e < 0:
        return Decision(True, "Main-b", evidence)
    if m.g == 0 and e0 == -1:
        cert = _realizable(m)
        if cert is not None:
            return Decision(True, "Main-c", {**evidence, "certificate": cert})
    return Decision(False, None, evidence)


def admits_transverse_foliation(data: SeifertData) -> Decision:
    """Decide existence of a smooth foliation transverse to the fibration."""
    m = normalize(data)
    e, e0 = euler_number(m), e_zero(m)
    e0_rev = -e0 - len(m.fibers)  # e0(-M); -M itself is built only for Fol-d
    chi = euler_char_base(m.g)
    evidence = {"e": e, "e0": e0, "e0_rev": e0_rev, "chi": chi, "certificate": None}
    if e0 <= -chi and e0_rev <= -chi:
        return Decision(True, "Fol-a", evidence)
    if m.g == 0 and e == 0:
        return Decision(True, "Fol-b", evidence)
    if m.g == 0 and e0 == -1:
        cert = _realizable(m)
        if cert is not None:
            return Decision(True, "Fol-c", {**evidence, "certificate": cert})
    if m.g == 0 and e0_rev == -1:
        cert = _realizable(reverse_orientation(m))
        if cert is not None:
            return Decision(True, "Fol-d", {**evidence, "certificate": cert})
    return Decision(False, None, evidence)


def admits_invariant_transverse_contact(data: SeifertData) -> Decision:
    """Decide existence of an S1-invariant transverse contact structure."""
    m = normalize(data)
    e = euler_number(m)
    evidence = {"e": e, "e0": e_zero(m), "chi": euler_char_base(m.g), "certificate": None}
    if e < 0:
        return Decision(True, "e<0", evidence)
    return Decision(False, None, evidence)
