"""Top-level decisions: worked examples, reductions, cross-consistency."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import circle_bundle_contact, circle_bundle_foliation
from sfiber import blowdown, decide
from sfiber.blowdown import RouteVerdict
from sfiber.decide import (
    ConsistencyError,
    admits_invariant_transverse_contact,
    admits_transverse_contact,
    admits_transverse_foliation,
)
from sfiber.realizability import is_realizable, verify_certificate
from sfiber.seifert import (
    SeifertData,
    e_zero,
    euler_char_base,
    euler_number,
    gamma_vector,
    normalize,
    reverse_orientation,
)
from sfiber.sweeps import fiber_pairs, theorem_consistency_sweep

POINCARE = SeifertData(-1, 0, ((2, 1), (3, 1), (5, 1)))
POINCARE_REV = SeifertData(-2, 0, ((2, 1), (3, 2), (5, 4)))


def test_contact_poincare_pair():
    decision = admits_transverse_contact(POINCARE)
    assert decision.answer and decision.fired_case == "Main-a"
    assert decision.evidence["e0"] == -2 and decision.evidence["chi"] == 2

    decision = admits_transverse_contact(POINCARE_REV)
    assert not decision.answer and decision.fired_case is None
    assert decision.evidence["e0"] == -1


def test_contact_trivial_bundles():
    assert admits_transverse_contact(SeifertData(0, 1, ())).fired_case == "Main-a"
    assert not admits_transverse_contact(SeifertData(0, 0, ())).answer


def test_contact_case_b_and_c():
    # r=1, e0=-1 keeps clause (a) out of the way; e=-1/2 decides via (b)
    assert admits_transverse_contact(SeifertData(0, 0, ((2, 1),))).fired_case == "Main-b"
    gammas = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))
    data = SeifertData(1 - 3, 0, tuple((g.denominator, g.denominator - g.numerator)
                                       for g in gammas))
    decision = admits_transverse_contact(data)
    assert decision.fired_case == "Main-c"
    assert verify_certificate(gamma_vector(normalize(data)), decision.evidence["certificate"])


def test_foliation_examples():
    decision = admits_transverse_foliation(SeifertData(0, 1, ()))
    assert decision.answer and decision.fired_case == "Fol-a"
    assert not admits_transverse_foliation(POINCARE).answer
    decision = admits_transverse_foliation(SeifertData(0, 0, ()))
    assert decision.answer and decision.fired_case == "Fol-b"


def test_foliation_realizability_clauses():
    # e0(M) = -1 with Gamma(M) = (1/3, 1/3, 1/4) realizable: clause (c)
    m = SeifertData(-2, 0, ((3, 2), (3, 2), (4, 3)))
    decision = admits_transverse_foliation(m)
    assert decision.answer and decision.fired_case == "Fol-c"
    assert verify_certificate(gamma_vector(m), decision.evidence["certificate"])
    # its reversal has e0(-M) = -1 instead, realizable on the other side: clause (d)
    rev = SeifertData(-1, 0, ((3, 1), (3, 1), (4, 1)))
    decision = admits_transverse_foliation(rev)
    assert decision.answer and decision.fired_case == "Fol-d"


def test_invariant_contact_examples():
    assert admits_invariant_transverse_contact(POINCARE).answer
    assert admits_invariant_transverse_contact(POINCARE).fired_case == "e<0"
    assert not admits_invariant_transverse_contact(POINCARE_REV).answer
    assert not admits_invariant_transverse_contact(SeifertData(0, 1, ())).answer


@pytest.mark.parametrize("e, g, expected", [
    (0, 1, True),
    (-1, 0, True),
    (0, 0, False),
    (2, 2, True),
    (3, 2, False),
])
def test_circle_bundle_contact_examples(e, g, expected):
    assert circle_bundle_contact(e, g) is expected


@pytest.mark.parametrize("e, g, expected", [
    (2, 2, True),
    (1, 1, False),
    (0, 0, True),
    (0, -1, True),
    (3, 2, False),
])
def test_circle_bundle_foliation_examples(e, g, expected):
    assert circle_bundle_foliation(e, g) is expected


def test_r0_reduction_contact_all_cells():
    """For circle bundles the theorem decision equals the classical
    criterion with e(Y) = e(M) = -b, on all 117 cells."""
    cells = 0
    for b in range(-6, 7):
        for g in range(-4, 5):
            decision = admits_transverse_contact(SeifertData(b, g, ()))
            assert decision.answer == circle_bundle_contact(-b, g), (b, g)
            cells += 1
    assert cells == 117


def test_r0_reduction_foliation_single_known_gap():
    """The foliation clauses restrict the flat case to sphere base, so the
    flat bundle over the projective plane ({0; -1;}) is the one cell where
    the implemented decision (False) departs from the classical table
    (True).  Documented behavior; see the acceptance suite."""
    mismatches = []
    for b in range(-6, 7):
        for g in range(-4, 5):
            decision = admits_transverse_foliation(SeifertData(b, g, ()))
            if decision.answer != circle_bundle_foliation(-b, g):
                mismatches.append((b, g))
    assert mismatches == [(0, -1)]


def test_foliation_orientation_symmetric():
    pairs = fiber_pairs(7)
    for r in range(0, 3):
        for fibers in combinations_with_replacement(pairs, r):
            for b in range(-3, 4):
                for g in (-2, -1, 0, 1):
                    m = SeifertData(b, g, fibers)
                    assert (admits_transverse_foliation(m).answer
                            == admits_transverse_foliation(reverse_orientation(m)).answer)


def _foliation_case_reference(data):
    """The foliation clauses read off M and an eagerly built -M."""
    m = normalize(data)
    rev = reverse_orientation(m)
    e, e0, e0_rev, chi = euler_number(m), e_zero(m), e_zero(rev), euler_char_base(m.g)
    if e0 <= -chi and e0_rev <= -chi:
        return "Fol-a"
    if m.g == 0 and e == 0:
        return "Fol-b"
    if m.g == 0 and e0 == -1 and len(m.fibers) >= 3 and is_realizable(gamma_vector(m)):
        return "Fol-c"
    if m.g == 0 and e0_rev == -1 and len(m.fibers) >= 3 and is_realizable(gamma_vector(rev)):
        return "Fol-d"
    return None


def test_foliation_evidence_and_lazy_reverse(monkeypatch):
    """e0(-M) is read off M as -e0(M) - r; -M is built only on reaching
    Fol-d, which fires exactly where the eager reading fires it."""
    reached_d = []
    monkeypatch.setattr(decide, "reverse_orientation",
                        lambda m: reached_d.append(m) or reverse_orientation(m))
    cases = {}
    for r in range(4):
        for fibers in combinations_with_replacement(fiber_pairs(5), r):
            for g in (-1, 0, 1):
                for b in range(-4, 3):
                    data = SeifertData(b, g, fibers)
                    reached_d.clear()
                    decision = admits_transverse_foliation(data)
                    expected = _foliation_case_reference(data)
                    assert decision.fired_case == expected, data
                    assert decision.evidence["e0_rev"] == e_zero(reverse_orientation(normalize(data)))
                    enters_d = (expected in ("Fol-d", None) and g == 0
                                and decision.evidence["e0_rev"] == -1)
                    assert len(reached_d) == enters_d, data
                    cases[expected] = cases.get(expected, 0) + 1
    assert cases["Fol-d"] > 0 and cases["Fol-c"] > 0 and cases[None] > 0


def test_fired_case_iff_answer():
    for b in range(-3, 4):
        for g in (-1, 0, 1):
            for fn in (admits_transverse_contact, admits_transverse_foliation,
                       admits_invariant_transverse_contact):
                decision = fn(SeifertData(b, g, ((2, 1), (5, 2))))
                assert (decision.fired_case is None) == (not decision.answer)


def test_small_consistency_sweep():
    report = theorem_consistency_sweep(gs=(-1, 0, 1), bs=range(-2, 3),
                                       max_alpha=5, max_r=3, jobs=1)
    assert report.ok, report.violations[:5]
    assert report.examined == report.foliations + (report.examined - report.foliations)
    assert report.foliations > 0


@pytest.mark.parametrize("decider, reverse", [
    pytest.param(admits_transverse_contact, False, id="Main-c"),
    pytest.param(admits_transverse_foliation, False, id="Fol-c"),
    pytest.param(admits_transverse_foliation, True, id="Fol-d"),
])
def test_shadow_disagreement_is_surfaced(monkeypatch, decider, reverse):
    """Each consult site runs the route beside the oracle: a route that
    claims a certificate the oracle does not find raises ConsistencyError."""
    gammas = (Fraction(30, 31), Fraction(1, 29), Fraction(1, 31))  # unlikely cached
    consulted = []

    def lying_route(route_gammas):
        consulted.append(route_gammas)
        return RouteVerdict("realizable", case_tag="even-k", certificate=None)

    decide._oracle_with_shadow.cache_clear()
    monkeypatch.setattr(blowdown, "decide_route", lying_route)
    data = SeifertData(-2, 0, tuple(
        (g.denominator, g.denominator - g.numerator) for g in gammas))  # e0 = -1
    if reverse:
        data = reverse_orientation(data)  # e0 = -2 and e0(-M) = -1: only Fol-d consults
    with pytest.raises(ConsistencyError):
        decider(data)
    assert consulted == [gammas]
    decide._oracle_with_shadow.cache_clear()


def test_oracle_cache_is_bounded():
    """Distinct consults beyond the bound evict the oldest entries."""
    decide._oracle_with_shadow.cache_clear()
    for k in range(5000):
        decide._oracle_with_shadow((Fraction(1, 2), Fraction(1, 3), Fraction(1, 4 + k)))
    info = decide._oracle_with_shadow.cache_info()
    assert info.misses == 5000
    assert info.currsize <= 4096 and info.maxsize == decide.ORACLE_CACHE_SIZE == 4096
    decide._oracle_with_shadow.cache_clear()


def test_unnormalized_input_accepted():
    decision = admits_transverse_contact(SeifertData(-4, 0, ((2, 7), (3, 1), (5, 1))))
    # (2,7) normalizes to (2,1) with b absorbing 3
    assert decision.answer == admits_transverse_contact(POINCARE).answer
    assert euler_number(normalize(SeifertData(-4, 0, ((2, 7), (3, 1), (5, 1))))) == Fraction(-1, 30)


@pytest.mark.parametrize("digits", [2151, 4000])
def test_e0_minus_one_family_decides_past_the_digit_limit(digits):
    """The route formats no integer while it decides: the top surface's
    square has about twice the input's digits, past CPython's default
    4,300-digit int->str limit."""
    n = 10 ** (digits - 1) + 7
    decision = admits_transverse_contact(SeifertData(-2, 0, ((n, 1), (n + 1, n), (n + 2, n + 1))))
    assert decision.answer is False and decision.evidence["e0"] == -1
