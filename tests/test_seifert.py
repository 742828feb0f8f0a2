"""Seifert invariants: normalization, orientation reversal, derived numbers."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import cyclic_quotient_euler
from sfiber.seifert import (
    InvalidSeifertError,
    SeifertData,
    e_zero,
    euler_char_base,
    euler_number,
    gamma_vector,
    is_product_sphere,
    normalize,
    orientation_double_cover,
    reverse_orientation,
)

POINCARE = SeifertData(-1, 0, ((2, 1), (3, 1), (5, 1)))


def _raw_euler(data):
    """e(M) straight from possibly unnormalized data (alpha=1 pairs allowed)."""
    return -data.b - sum((Fraction(b, a) for a, b in data.fibers), Fraction(0))


def test_normalize_shifts_beta_and_compensates_b():
    raw = SeifertData(0, 0, ((2, 3),))
    out = normalize(raw)
    assert out == SeifertData(1, 0, ((2, 1),))
    assert euler_number(out) == _raw_euler(raw)


def test_normalize_fixed_point():
    assert normalize(POINCARE) == POINCARE


def test_normalize_folds_alpha_one_and_negative_beta():
    raw = SeifertData(2, 1, ((1, 0), (3, -1)))
    out = normalize(raw)
    assert out == SeifertData(1, 1, ((3, 2),))
    assert euler_number(out) == _raw_euler(raw)


def test_normalize_rejects_bad_pairs():
    with pytest.raises(InvalidSeifertError):
        normalize(SeifertData(0, 0, ((0, 1),)))
    with pytest.raises(InvalidSeifertError):
        normalize(SeifertData(0, 0, ((-2, 1),)))
    with pytest.raises(InvalidSeifertError):
        normalize(SeifertData(0, 0, ((2, 2),)))


fiber_pair = st.integers(2, 10 ** 6).flatmap(
    lambda a: st.integers(1, a - 1).filter(lambda b: gcd(a, b) == 1).map(lambda b: (a, b)))


@given(st.integers(-10 ** 6, 10 ** 6), st.lists(fiber_pair, max_size=6))
def test_euler_number_equals_fraction_sum(b, fibers):
    data = SeifertData(b, 0, tuple(fibers))
    assert euler_number(data) == -b - sum((Fraction(beta, a) for a, beta in fibers), Fraction(0))


def test_normalize_preserves_euler_number_randomized():
    rng = random.Random(987)
    checked = 0
    while checked < 10_000:
        r = rng.randint(0, 5)
        fibers = []
        for _ in range(r):
            alpha = rng.randint(1, 12)
            beta = rng.randint(-30, 30)
            if gcd(alpha, beta) != 1:
                continue
            fibers.append((alpha, beta))
        raw = SeifertData(rng.randint(-10, 10), rng.randint(-3, 3), tuple(fibers))
        out = normalize(raw)
        assert euler_number(out) == _raw_euler(raw)
        assert all(0 < b < a for a, b in out.fibers)
        checked += 1


@pytest.mark.parametrize("data, expected", [
    (SeifertData(0, 1, ()), Fraction(0)),
    (POINCARE, Fraction(-1, 30)),
    (SeifertData(-2, 0, ((2, 1), (3, 2), (5, 4))), Fraction(1, 30)),
])
def test_euler_number_examples(data, expected):
    assert euler_number(data) == expected


@pytest.mark.parametrize("data, expected", [
    (POINCARE, -2),
    (SeifertData(0, 1, ()), 0),
    (SeifertData(-2, 0, ((2, 1), (3, 2), (5, 4))), -1),
])
def test_e_zero_examples(data, expected):
    assert e_zero(data) == expected


def test_gamma_vector_examples():
    assert gamma_vector(SeifertData(0, 0, ((2, 1), (3, 2), (5, 4)))) == (
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    assert gamma_vector(SeifertData(0, 0, ((2, 1),))) == (Fraction(1, 2),)
    assert gamma_vector(SeifertData(0, 0, ((4, 1),))) == (Fraction(3, 4),)


def test_reverse_orientation_examples():
    rev = reverse_orientation(POINCARE)
    assert rev == SeifertData(-2, 0, ((2, 1), (3, 2), (5, 4)))
    assert reverse_orientation(rev) == POINCARE
    assert reverse_orientation(SeifertData(0, 1, ())) == SeifertData(0, 1, ())


def test_reverse_orientation_identities_randomized():
    rng = random.Random(5151)
    for _ in range(2000):
        r = rng.randint(0, 5)
        fibers = []
        while len(fibers) < r:
            alpha = rng.randint(2, 15)
            beta = rng.randint(1, alpha - 1)
            if gcd(alpha, beta) == 1:
                fibers.append((alpha, beta))
        m = SeifertData(rng.randint(-8, 8), rng.randint(-3, 3), tuple(fibers))
        rev = reverse_orientation(m)
        assert euler_number(rev) == -euler_number(m)
        assert e_zero(rev) == -e_zero(m) - r
        assert gamma_vector(rev) == tuple(1 - g for g in gamma_vector(m))
        assert reverse_orientation(rev) == m
        # e = e0 + sum of gammas, both orientations
        assert euler_number(m) == e_zero(m) + sum(gamma_vector(m))
        assert euler_number(rev) == e_zero(rev) + sum(gamma_vector(rev))


@pytest.mark.parametrize("g, chi", [(0, 2), (1, 0), (-2, 0), (-1, 1), (3, -4), (-4, -2)])
def test_euler_char_base(g, chi):
    assert euler_char_base(g) == chi


def test_orientation_double_cover_examples():
    assert orientation_double_cover(SeifertData(1, -1, ())) == SeifertData(2, 0, ())
    assert orientation_double_cover(SeifertData(0, -2, ())) == SeifertData(0, 1, ())
    cover = orientation_double_cover(SeifertData(1, -1, ((3, 1),)))
    assert cover == SeifertData(2, 0, ((3, 1), (3, 1)))
    assert e_zero(cover) == 2 * e_zero(SeifertData(1, -1, ((3, 1),)))


def test_orientation_double_cover_doubles_invariants():
    rng = random.Random(33)
    for _ in range(500):
        g = rng.randint(-4, -1)
        fibers = []
        while len(fibers) < rng.randint(0, 3):
            alpha = rng.randint(2, 9)
            beta = rng.randint(1, alpha - 1)
            if gcd(alpha, beta) == 1:
                fibers.append((alpha, beta))
        m = SeifertData(rng.randint(-5, 5), g, tuple(fibers))
        cover = orientation_double_cover(m)
        assert cover.g == -1 - g
        assert euler_char_base(cover.g) == 2 * euler_char_base(g)
        assert euler_number(cover) == 2 * euler_number(m)
        assert e_zero(cover) == 2 * e_zero(m)


def test_orientation_double_cover_rejects_orientable():
    with pytest.raises(InvalidSeifertError):
        orientation_double_cover(SeifertData(0, 0, ()))


def test_cyclic_quotient_euler_examples():
    assert cyclic_quotient_euler(POINCARE) == -1
    assert cyclic_quotient_euler(SeifertData(3, 2, ())) == -3
    assert cyclic_quotient_euler(SeifertData(0, 0, ((2, 1), (2, 1)))) == -4


def test_is_product_sphere():
    assert is_product_sphere(SeifertData(0, 0, ()))
    assert is_product_sphere(SeifertData(-1, 0, ((3, 1), (3, 2))))
    assert not is_product_sphere(POINCARE)
    assert not is_product_sphere(SeifertData(0, 1, ()))
    assert not is_product_sphere(SeifertData(0, -2, ()))
