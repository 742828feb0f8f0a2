"""Continued-fraction machinery: expansion, duality, orders, identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    EQUAL,
    GREATER,
    LESS,
    PointDiagram,
    dual,
    lex_compare,
    neg_cf_expand_fraction,
    pos_cf_eval,
    reverse_cf,
)
from sfiber.cf import (
    dual_runs,
    eval_runs,
    expansion_runs,
    neg_cf_eval,
    neg_cf_expand,
    riemenschneider_dual,
)


rationals_gt1 = st.tuples(st.integers(2, 400), st.integers(1, 399)).filter(
    lambda t: t[1] < t[0]
).map(lambda t: Fraction(t[0], t[1]))


@pytest.mark.parametrize("value, expected", [
    (Fraction(2), (2,)),
    (Fraction(30, 11), (3, 4, 3)),
    (Fraction(7, 5), (2, 2, 3)),
])
def test_expand_examples(value, expected):
    assert neg_cf_expand(value) == expected


@pytest.mark.parametrize("coeffs, expected", [
    ((2,), Fraction(2)),
    ((2, 3, 2, 3, 2), Fraction(30, 19)),
    ((2, 2, 2, 2), Fraction(5, 4)),
])
def test_eval_examples(coeffs, expected):
    assert neg_cf_eval(coeffs) == expected


@pytest.mark.parametrize("coeffs, expected", [
    ((5,), Fraction(5)),
    ((2, 1, 2), Fraction(8, 3)),
    ((3, 2), Fraction(7, 2)),
])
def test_pos_eval_examples(coeffs, expected):
    assert pos_cf_eval(coeffs) == expected


def test_pos_eval_zero_denominator():
    # tail [1, -1] evaluates to 0, so the next step divides by zero
    with pytest.raises(ValueError):
        pos_cf_eval((2, 1, -1))
    # a zero *final* value is fine as long as no tail vanishes
    assert pos_cf_eval((1, -1)) == 0


@pytest.mark.parametrize("value, expected", [
    (Fraction(2), Fraction(2)),
    (Fraction(30, 11), Fraction(30, 19)),
    (Fraction(3), Fraction(3, 2)),
])
def test_dual_examples(value, expected):
    assert dual(value) == expected


@pytest.mark.parametrize("coeffs, expected", [
    ((3, 4, 3), (2, 3, 2, 3, 2)),
    ((2,), (2,)),
    ((3,), (2, 2)),
])
def test_riemenschneider_examples(coeffs, expected):
    assert riemenschneider_dual(coeffs) == expected


@pytest.mark.parametrize("bad", [(), (1,), (3, 1, 3)])
def test_dual_domain_errors(bad):
    with pytest.raises(ValueError):
        riemenschneider_dual(bad)


def test_eval_empty_sequence():
    with pytest.raises(ValueError):
        neg_cf_eval(())


@given(st.integers(1, 10 ** 6).flatmap(
    lambda q: st.integers(q + 1, 10 ** 7).map(lambda p: Fraction(p, q))))
def test_runs_read_evaluate_and_dualize_large(value):
    """On the run-length form alone: evaluation inverts reading, and the dual
    evaluates to r/(r-1) and is an involution, at sizes whose written-out
    expansions can have up to a million terms."""
    runs = expansion_runs(value.numerator, value.denominator)
    assert eval_runs(runs) == (value.numerator, value.denominator)
    assert Fraction(*eval_runs(dual_runs(runs))) == dual(value)
    assert dual_runs(dual_runs(runs)) == runs


def test_point_diagram_staircase():
    diagram = PointDiagram.from_cf((3, 4, 3))
    assert diagram.rows == (2, 3, 2)
    assert diagram.column_counts() == (1, 2, 1, 2, 1)


@pytest.mark.parametrize("bad", [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3)])
def test_expand_and_dual_domain_errors(bad):
    with pytest.raises(ValueError):
        neg_cf_expand(bad)
    with pytest.raises(ValueError):
        dual(bad)


def test_reverse_examples():
    assert reverse_cf((2, 2, 3)) == (3, 2, 2)
    assert reverse_cf((2, 3, 2)) == (2, 3, 2)
    assert neg_cf_eval((2, 2, 3)).numerator == neg_cf_eval((3, 2, 2)).numerator == 7


def test_lex_examples():
    assert lex_compare((2, 2, 2), (2, 2, 3)) == LESS
    assert lex_compare((2, 2, 3), (2, 2)) == LESS  # the strict prefix is greater
    assert lex_compare((3,), (3,)) == EQUAL
    assert lex_compare((4,), (3, 5)) == GREATER


def test_roundtrip_duality_and_reversal_sweep():
    """Every p/q > 1 with p <= 500: expansion round-trips, is bounded in
    length by p, agrees with the point-diagram dual, and reversal keeps
    the numerator."""
    for p in range(2, 501):
        for q in range(1, p):
            value = Fraction(p, q)
            if value.numerator != p:
                continue  # not in lowest terms; same value seen earlier
            cf = neg_cf_expand(value)
            assert all(c >= 2 for c in cf)
            assert len(cf) <= p
            assert neg_cf_eval(cf) == value
            assert riemenschneider_dual(cf) == neg_cf_expand(dual(value))
            assert neg_cf_eval(reverse_cf(cf)).numerator == p


def test_expand_matches_fraction_reference_exhaustive():
    """The integer (p, q) recurrence gives the Fraction reference's tuple on
    every reduced p/q with q < p < 300."""
    checked = 0
    for p in range(2, 300):
        for q in range(1, p):
            value = Fraction(p, q)
            if value.numerator != p:
                continue
            assert neg_cf_expand(value) == neg_cf_expand_fraction(value), value
            checked += 1
    assert checked == 27317


def _partial_quotient_sum(value):
    """Sum of the regular partial quotients of p/q, a bound on the length of
    the minus-sign expansion."""
    p, q, total = value.numerator, value.denominator, 0
    while q:
        a, rem = divmod(p, q)
        total, p, q = total + a, q, rem
    return total


@given(st.integers(1, 10 ** 6).flatmap(
    lambda q: st.integers(q + 1, 10 ** 7).map(lambda p: Fraction(p, q))))
@settings(max_examples=200)
def test_expand_matches_fraction_reference_large(value):
    assume(_partial_quotient_sum(value) <= 5_000)  # keeps the reference quick
    assert neg_cf_expand(value) == neg_cf_expand_fraction(value)


@given(rationals_gt1)
def test_expand_eval_roundtrip(value):
    assert neg_cf_eval(neg_cf_expand(value)) == value


@given(rationals_gt1)
def test_expansion_steps_shrink_denominators(value):
    denominators = [value.denominator]
    rho = value
    while rho != int(rho):
        c = -((-rho.numerator) // rho.denominator)
        rho = 1 / (c - rho)
        denominators.append(rho.denominator)
    assert all(a > b for a, b in zip(denominators, denominators[1:]))
    assert len(neg_cf_expand(value)) <= value.numerator


@given(rationals_gt1)
def test_dual_involution(value):
    assert dual(dual(value)) == value
    assert 1 / value + 1 / dual(value) == 1


@given(rationals_gt1, rationals_gt1)
def test_dual_reverses_order(a, b):
    if a < b:
        assert dual(b) < dual(a)


@given(st.integers(2, 200).flatmap(
    lambda q: st.integers(q + 1, 2 * q - 1).map(lambda p: Fraction(p, q))))
def test_dual_maps_low_interval_high(value):
    assert 1 < value < 2
    assert dual(value) > 2


def test_lex_order_matches_value_order_sampled():
    """10^4 random pairs with numerators <= 200: value order iff sequence order."""
    rng = random.Random(20260810)
    for _ in range(10_000):
        p1, p2 = rng.randint(2, 200), rng.randint(2, 200)
        a = Fraction(p1, rng.randint(1, p1 - 1))
        b = Fraction(p2, rng.randint(1, p2 - 1))
        cmp = lex_compare(neg_cf_expand(a), neg_cf_expand(b))
        if a < b:
            assert cmp == LESS
        elif a == b:
            assert cmp == EQUAL
        else:
            assert cmp == GREATER


def _plus_form_even(m_seq):
    """[m_k+2, m_{k-1}-2, m_{k-2}+1, ..., m_2+1, m_1-1] for even length."""
    k = len(m_seq)
    out = [m_seq[k - 1] + 2]
    for idx in range(k - 2, 0, -1):
        out.append(m_seq[idx] - 2 if (idx + 1) % 2 == 1 else m_seq[idx] + 1)
    out.append(m_seq[0] - 1)
    return out


def _minus_form_even(m_seq):
    """[m_k+3, 2 x (m_{k-1}-3), m_{k-2}+3, ..., m_2+3, 2 x (m_1-2)]."""
    k = len(m_seq)
    out = [m_seq[k - 1] + 3]
    for idx in range(k - 2, 0, -1):
        if (idx + 1) % 2 == 1:
            out.extend([2] * (m_seq[idx] - 3))
        else:
            out.append(m_seq[idx] + 3)
    out.extend([2] * (m_seq[0] - 2))
    return out


even_m_seqs = st.integers(1, 3).flatmap(
    lambda q: st.tuples(*[
        st.integers(3, 8) if i % 2 == 0 else st.integers(0, 5) for i in range(2 * q)
    ])
)


@given(even_m_seqs)
@settings(max_examples=300)
def test_even_case_plus_minus_identity(m_seq):
    """The plus-sign and minus-sign forms built from an even-length run
    sequence agree exactly."""
    assert pos_cf_eval(_plus_form_even(m_seq)) == neg_cf_eval(_minus_form_even(m_seq))


def _plus_form_odd(n_seq):
    """[n_k+2, n_{k-1}-2, n_{k-2}+1, ..., n_2-2, n_1+2] for odd length k.

    Entries at even 1-based positions appear with -2 (the published
    display shows -1 for the n_2 slot, which already fails at numerator
    level on (0,3,0); the -2 convention below is forced by the trace
    recurrences).
    """
    k = len(n_seq)
    if k == 1:
        return [n_seq[0] + 3]  # leading +2 and trailing +1 land on one entry
    out = [n_seq[k - 1] + 2]
    for idx in range(k - 2, 0, -1):
        out.append(n_seq[idx] - 2 if (idx + 1) % 2 == 0 else n_seq[idx] + 1)
    out.append(n_seq[0] + 2)
    return out


def _minus_form_odd(n_seq):
    """[2 x (n_k+1), n_{k-1}, 2 x n_{k-2}, ..., n_2, 2 x (n_1+1)];
    for k = 1 the two boundary bumps land on the same run."""
    k = len(n_seq)
    if k == 1:
        return [2] * (n_seq[0] + 2)
    out = [2] * (n_seq[k - 1] + 1)
    for idx in range(k - 2, 0, -1):
        if (idx + 1) % 2 == 0:
            out.append(n_seq[idx])
        else:
            out.extend([2] * n_seq[idx])
    out.extend([2] * (n_seq[0] + 1))
    return out


odd_n_seqs = st.integers(0, 3).flatmap(
    lambda p: st.tuples(*[
        st.integers(0, 5) if i % 2 == 0 else st.integers(3, 8) for i in range(2 * p + 1)
    ])
)


@given(odd_n_seqs)
@settings(max_examples=300)
def test_odd_case_numerator_identity(n_seq):
    """Odd-length analogue: only the numerators agree in general; full
    values genuinely differ (e.g. (0,3,0) gives 8/3 vs 8/5)."""
    plus = pos_cf_eval(_plus_form_odd(n_seq))
    minus = neg_cf_eval(_minus_form_odd(n_seq))
    assert plus.numerator == minus.numerator


def test_odd_case_values_differ_diagnostic():
    plus = pos_cf_eval(_plus_form_odd((0, 3, 0)))
    minus = neg_cf_eval(_minus_form_odd((0, 3, 0)))
    assert plus == Fraction(8, 3) and minus == Fraction(8, 5)
