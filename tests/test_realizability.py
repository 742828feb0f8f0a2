"""Realizability oracle: examples, boundary strictness, agreement with the
brute-force search and the blow-down route."""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import brute_force_certificate
from sfiber.blowdown import decide_route
from sfiber.realizability import RealizabilityCertificate, is_realizable, verify_certificate
from sfiber.sweeps import gamma_values


F = Fraction


def test_example_absent():
    assert is_realizable((F(1, 2), F(1, 3), F(1, 5))) is None


def test_example_all_below_half():
    cert = is_realizable((F(1, 3), F(1, 3), F(1, 4)))
    assert (cert.m, cert.a) == (2, 1)
    assert verify_certificate((F(1, 3), F(1, 3), F(1, 4)), cert)


def test_example_two_fifths():
    cert = is_realizable((F(2, 5), F(1, 3), F(1, 4)))
    assert (cert.m, cert.a) == (2, 1)


def test_example_eight_fifths():
    gammas = (F(3, 5), F(1, 3), F(1, 9))
    cert = is_realizable(gammas)
    assert (cert.m, cert.a) == (8, 5)
    assert verify_certificate(gammas, cert)


def test_fewer_than_three_entries():
    assert is_realizable(()) is None
    assert is_realizable((F(1, 2),)) is None
    assert is_realizable((F(1, 3), F(1, 3))) is None


def test_entries_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        is_realizable((F(1, 2), F(1, 3), F(3, 2)))
    with pytest.raises(ValueError):
        is_realizable((F(0), F(1, 3), F(1, 2)))


def test_verify_boundary_strictness():
    assert verify_certificate((F(1, 3), F(1, 3), F(1, 4)),
                              RealizabilityCertificate(2, 1, (0, 1, 2)))
    # gamma_1 = 1/2 is not strictly below a/m = 1/2
    assert not verify_certificate((F(1, 2), F(1, 3), F(1, 5)),
                                  RealizabilityCertificate(2, 1, (0, 1, 2)))
    # 1/8 is not strictly below 1/8
    assert not verify_certificate((F(3, 5), F(1, 3), F(1, 8)),
                                  RealizabilityCertificate(8, 5, (0, 1, 2)))


def test_verify_rejects_malformed_certificates():
    gammas = (F(1, 3), F(1, 3), F(1, 4))
    assert not verify_certificate(gammas, RealizabilityCertificate(2, 1, (0, 0, 2)))
    assert not verify_certificate(gammas, RealizabilityCertificate(4, 2, (0, 1, 2)))
    assert not verify_certificate(gammas, RealizabilityCertificate(1, 2, (0, 1, 2)))


unit_fracs = st.integers(2, 12).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))


@given(st.lists(unit_fracs, min_size=3, max_size=5), st.randoms())
@settings(max_examples=200)
def test_permutation_invariance(gammas, rnd):
    shuffled = list(gammas)
    rnd.shuffle(shuffled)
    assert (is_realizable(gammas) is None) == (is_realizable(shuffled) is None)


@given(st.lists(unit_fracs.filter(lambda f: f < Fraction(1, 2)), min_size=3, max_size=6))
@settings(max_examples=200)
def test_all_below_half_always_realizable(gammas):
    cert = is_realizable(gammas)
    assert cert is not None
    assert verify_certificate(gammas, cert)


@given(st.lists(unit_fracs, min_size=3, max_size=5))
@settings(max_examples=300)
def test_two_large_entries_block_realizability(gammas):
    top_two = sorted(gammas, reverse=True)[:2]
    if sum(top_two) >= 1:
        assert is_realizable(gammas) is None


def _exhaustive_search(gammas, max_m):
    """Independent oracle: every permutation, every m up to an oversized bound."""
    r = len(gammas)
    if r < 3:
        return None
    pairs = [(g.numerator, g.denominator) for g in gammas]
    slot_orders = sorted(set(permutations(pairs)))
    for m in range(2, max_m + 1):
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            for slots in slot_orders:
                (n1, d1), (n2, d2) = slots[0], slots[1]
                if (n1 * m < a * d1 and n2 * m < (m - a) * d2
                        and all(n * m < d for n, d in slots[2:])):
                    return m, a, slots
    return None


@pytest.mark.parametrize("r", [3, 4])
def test_sorted_search_matches_exhaustive_permutation_search(r):
    """Denominators <= 8: the descending-sort search with the 1/gamma_(3)
    bound finds a certificate exactly when the brute-force search over all
    permutations and a deliberately larger m bound does."""
    values = gamma_values(8)
    max_m = 2 * max(v.denominator for v in values)
    for combo in combinations_with_replacement(values, r):
        cert = is_realizable(combo)
        exhaustive = _exhaustive_search(combo, max_m)
        assert (cert is None) == (exhaustive is None), combo
        if cert is not None:
            assert verify_certificate(combo, cert), combo
            # delta-form equivalence: 1/gamma bounds expressed upside down
            slots = [combo[i] for i in cert.assignment]
            deltas = [1 / g for g in slots]
            assert deltas[0] > Fraction(cert.m, cert.a)
            assert deltas[1] > Fraction(cert.m, cert.m - cert.a)
            assert all(d > cert.m for d in deltas[2:])


def _triple(cert):
    return None if cert is None else (cert.m, cert.a, cert.assignment)


def test_oracle_matches_brute_force_certificates():
    """Every 3-multiset with denominators <= 16: the simplest fraction is the
    certificate the brute-force search finds first, slot for slot."""
    checked = 0
    for combo in combinations_with_replacement(gamma_values(16), 3):
        cert = is_realizable(combo)
        assert _triple(cert) == brute_force_certificate(combo), combo
        checked += 1
    assert checked == 85320


large_fracs = st.integers(2, 10**6).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))


@given(st.lists(large_fracs, min_size=3, max_size=4))
@settings(max_examples=300, deadline=None)
def test_oracle_route_agree_large_denominators(gammas):
    """Denominators up to 10^6: the oracle and the route agree on presence,
    every certificate either reports is valid, and the brute-force search
    joins in wherever 1/gamma_(3) <= 200."""
    cert = is_realizable(gammas)
    verdict = decide_route(gammas)
    assert verdict.kind != "inconclusive", (gammas, verdict)
    assert (verdict.kind == "realizable") == (cert is not None), (gammas, cert, verdict)
    if cert is not None:
        assert verify_certificate(gammas, cert)
        assert verify_certificate(gammas, verdict.certificate)
    if 1 / sorted(gammas)[-3] <= 200:
        assert _triple(cert) == brute_force_certificate(gammas)


@st.composite
def _boundary_vectors(draw):
    """gamma_1 just off a/m on either side, gamma_2 just below (m-a)/m and
    gamma_3 at 1/m or 1/(m+1): denominators up to 10^6, 1/gamma_3 <= 200."""
    m = draw(st.integers(2, 199))
    a = draw(st.integers(1, m - 1))
    assume(gcd(a, m) == 1)
    q1, q2 = (draw(st.integers(2, 10**6 // m)) for _ in range(2))
    gamma1 = Fraction(a, m) + draw(st.sampled_from((-1, 1))) * Fraction(1, m * q1)
    gamma2 = Fraction(m - a, m) - Fraction(1, m * q2)
    gamma3 = Fraction(1, m + draw(st.integers(0, 1)))
    assume(0 < gamma1 < 1 and gamma3 <= min(gamma1, gamma2))
    return draw(st.permutations((gamma1, gamma2, gamma3)))


@given(_boundary_vectors())
@settings(max_examples=300, deadline=None)
def test_oracle_matches_brute_force_near_the_boundary(gammas):
    """Vectors on both sides of the realizability boundary agree with the
    brute-force search certificate for certificate, and with the route."""
    cert = is_realizable(gammas)
    assert _triple(cert) == brute_force_certificate(gammas)
    assert (decide_route(gammas).kind == "realizable") == (cert is not None)
