"""Blow-down route: parsing, the (x,p,q,genus) iteration, verdicts."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    blow_down,
    cf_single_led,
    cf_two_led,
    d_bound_check,
    dual_closed_form,
    lex_compare,
    replay_blowdowns,
    reverse_cf,
    rho_from_m_prefix_cf,
    rho_from_n_prefix_cf,
)
from sfiber.blowdown import (
    BlowdownState,
    IterationInput,
    decide_route,
    parse_delta_sequences,
    run_trace,
    _rho_from_m_prefix,
    _rho_from_n_prefix,
)
from sfiber.cf import neg_cf_eval, neg_cf_expand, riemenschneider_dual
from sfiber.realizability import is_realizable, verify_certificate
from sfiber.sweeps import route_oracle_sweep

F = Fraction


def test_parse_examples():
    inp = parse_delta_sequences((F(3, 5), F(1, 3), F(1, 9)))
    assert (inp.n_seq, inp.m_seq, inp.d) == ((0, 3, 0), (3, 0), 9)
    inp = parse_delta_sequences((F(1, 2), F(2, 7), F(1, 4)))
    assert (inp.n_seq, inp.m_seq, inp.d) == ((0,), (4, 1), 4)
    inp = parse_delta_sequences((F(5, 7), F(1, 3), F(1, 3)))
    assert inp.n_seq == (1, 3, 0)


def test_parse_requires_sorted_and_ranged():
    with pytest.raises(ValueError):
        parse_delta_sequences((F(1, 3), F(1, 2), F(1, 5)))  # not descending
    with pytest.raises(ValueError):
        parse_delta_sequences((F(1, 3), F(1, 4), F(1, 5)))  # delta_1 > 2
    with pytest.raises(ValueError):
        parse_delta_sequences((F(1, 2), F(1, 2), F(1, 5)))  # delta_2 <= 2


def test_parse_roundtrips_expansions():
    rng = random.Random(42)
    for _ in range(500):
        p = rng.randint(0, 3)
        n_seq = tuple(rng.randint(0, 4) if i % 2 == 0 else rng.randint(3, 7)
                      for i in range(2 * p + 1))
        q = rng.randint(1, 3)
        m_seq = tuple(rng.randint(3, 7) if i % 2 == 0 else rng.randint(0, 4)
                      for i in range(2 * q))
        d1 = neg_cf_eval(cf_two_led(n_seq))
        d2 = neg_cf_eval(cf_single_led(m_seq))
        d3 = max(d2, F(rng.randint(3, 40)))
        if not d1 <= 2 < d2 <= d3:
            continue
        inp = parse_delta_sequences((1 / d1, 1 / d2, 1 / d3))
        assert inp.n_seq == n_seq and inp.m_seq == m_seq
        assert neg_cf_expand(d3)[0] == inp.d


def _check_runs_against_expansions(d1, d2):
    """The run-length parse rebuilds both expansions, and the closed-form
    dual of the second agrees with the point diagram."""
    inp = parse_delta_sequences((1 / d1, 1 / d2, 1 / d2))
    cf2 = neg_cf_expand(d2)
    assert cf_two_led(inp.n_seq) == neg_cf_expand(d1)
    assert cf_single_led(inp.m_seq) == cf2
    assert riemenschneider_dual(cf2) == dual_closed_form(inp.m_seq)


def test_dual_closed_form_exhaustive():
    """Every reduced d2 = p/q > 2 whose gamma has denominator p < 400."""
    checked = 0
    for p in range(3, 400):
        for q in range(1, (p - 1) // 2 + 1):
            if gcd(p, q) == 1:
                _check_runs_against_expansions(F(p + q, p), F(p, q))
                checked += 1
    assert checked == 24258


@st.composite
def _reciprocal_pairs(draw):
    """(d1, d2) with 1 < d1 <= 2 < d2, gamma denominators up to 10^6."""
    p1 = draw(st.integers(2, 10**6))
    q1 = draw(st.integers((p1 + 1) // 2, p1 - 1))
    p2 = draw(st.integers(3, 10**6))
    q2 = draw(st.integers(1, (p2 - 1) // 2))
    return F(p1, q1), F(p2, q2)


@given(_reciprocal_pairs())
@settings(max_examples=25, deadline=None)
def test_dual_closed_form_large(pair):
    _check_runs_against_expansions(*pair)


def test_iteration_input_validation():
    with pytest.raises(ValueError):
        IterationInput((0, 2, 0), (3, 0), 5)  # interior entry < 3
    with pytest.raises(ValueError):
        IterationInput((0, 3), (3, 0), 5)  # even-length n_seq
    with pytest.raises(ValueError):
        IterationInput((0,), (2, 0), 5)  # single < 3
    with pytest.raises(ValueError):
        IterationInput((0,), (3, 0), 2)  # d too small


def test_run_trace_worked_example():
    trace = run_trace(IterationInput((0, 3, 0), (3, 0), 9))
    assert [(s.x, s.p, s.q, s.genus) for s in trace] == [
        (-8, 1, 1, 0), (-7, 2, 1, 0), (-3, 2, 3, 1), (6, 5, 3, 4)]
    assert all(2 * s.genus - 2 - s.x + s.p + s.q == 8 for s in trace)


def test_run_trace_single_even_step():
    trace = run_trace(IterationInput((0,), (3, 0), 3))
    assert (trace[1].x, trace[1].p, trace[1].q, trace[1].genus) == (-1, 2, 1, 0)


def test_initial_state_invariant():
    for d in range(3, 20):
        state = run_trace(IterationInput((0,), (3, 0), d))[0]
        assert state == BlowdownState(0, 1 - d, 1, 1, 0)
        assert 2 * 0 - 2 - state.x + 2 == d - 1


def _random_input(rng):
    p = rng.randint(0, 3)
    q = rng.randint(1, 3)
    n_seq = tuple(rng.randint(0, 6) if i % 2 == 0 else rng.randint(3, 6)
                  for i in range(2 * p + 1))
    m_seq = tuple(rng.randint(3, 6) if i % 2 == 0 else rng.randint(0, 6)
                  for i in range(2 * q))
    return IterationInput(n_seq, m_seq, rng.randint(3, 50))


def test_conserved_quantity_randomized():
    rng = random.Random(777)
    for _ in range(10_000):
        inp = _random_input(rng)
        for state in run_trace(inp):
            assert 2 * state.genus - 2 - state.x + state.p + state.q == inp.d - 1


def test_d_bound_check():
    trace = run_trace(IterationInput((0, 3, 0), (3, 0), 9))
    assert d_bound_check(trace, 9)
    assert not d_bound_check(trace, 8)
    for state in trace:
        assert (9 > state.p + state.q) == (2 * state.genus - 2 - state.x >= 0)


def _standing_m_seq(n_seq, q, rng):
    """m_seq matching (-1)^i (m_i - n_i) + 2 = -1 wherever both exist."""
    m = []
    for i in range(1, 2 * q + 1):
        if i <= len(n_seq):
            m.append(n_seq[i - 1] + 3 if i % 2 == 1 else n_seq[i - 1] - 3)
        else:
            m.append(rng.randint(3, 6) if i % 2 == 1 else rng.randint(0, 4))
    return tuple(m)


def test_engine_agreement_with_graph_blowdowns():
    """The algebraic trace and literal graph blow-downs agree: top-vertex
    weight and genus at every stage, edge multiplicities to the two leg
    heads while those legs survive."""
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        p = rng.randint(0, 2)
        n_seq = tuple(rng.randint(0, 3) if i % 2 == 0 else rng.randint(3, 5)
                      for i in range(2 * p + 1))
        q = rng.randint(1, 2)
        try:
            m_seq = _standing_m_seq(n_seq, q, rng)
            inp = IterationInput(n_seq, m_seq, rng.randint(3, 12))
        except ValueError:
            continue  # standing relation would need an entry below range
        limit = min(2 * inp.q, 2 * inp.p + 1)
        blows = 1 + sum(
            (n_seq[i] if i % 2 == 0 else m_seq[i]) + 1 for i in range(limit + 1))
        if blows > 30:
            continue
        trace = run_trace(inp)
        graphs, top, m_ids, n_ids, pointers = replay_blowdowns(
            n_seq, m_seq, inp.d, limit + 1)
        for state, graph, (m_ptr, n_ptr) in zip(trace, graphs, pointers):
            cls = graph.vertices[top]
            assert (cls.selfint, cls.genus) == (state.x, state.genus)
            nbrs = graph.neighbors(top)
            if m_ptr < len(m_ids):
                assert nbrs.get(m_ids[m_ptr]) == state.p
            if n_ptr < len(n_ids):
                assert nbrs.get(n_ids[n_ptr]) == state.q
        checked += 1


def test_prefix_fraction_lemma():
    """With the standing relations in force, (p_k+q_k)/p_k equals the
    reversed m-prefix expansion for even k; for odd k the n-prefix
    expansion carries the right numerator p_k+q_k (its full value differs;
    see the odd-case diagnostics in the expansion tests)."""
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        p = rng.randint(0, 2)
        n_seq = tuple(rng.randint(0, 3) if i % 2 == 0 else rng.randint(3, 6)
                      for i in range(2 * p + 1))
        q = rng.randint(1, 3)
        try:
            inp = IterationInput(n_seq, _standing_m_seq(n_seq, q, rng), 3)
        except ValueError:
            continue
        trace = run_trace(inp)
        limit = min(2 * inp.q, 2 * inp.p + 1)
        for k in range(1, limit + 2):
            state = trace[k]
            if k % 2 == 0:
                rho = rho_from_m_prefix_cf(inp.m_seq, k)
                assert neg_cf_eval(reverse_cf(rho)) == F(state.p + state.q, state.p)
            else:
                rho = rho_from_n_prefix_cf(inp.n_seq, k)
                assert neg_cf_eval(rho).numerator == state.p + state.q
        checked += 1


def test_prefix_values_match_expanded_lists():
    """The run-based prefix values equal the written-out expansions,
    evaluated term by term, on every prefix length, with runs up to 10^3."""
    rng = random.Random(12)
    for _ in range(200):
        p = rng.randint(0, 3)
        q = rng.randint(1, 3)
        big = rng.choice((6, 1000))
        n_seq = tuple(rng.randint(0, big) if i % 2 == 0 else rng.randint(3, big)
                      for i in range(2 * p + 1))
        m_seq = tuple(rng.randint(3, big) if i % 2 == 0 else rng.randint(0, big)
                      for i in range(2 * q))
        for k in range(2, 2 * q + 1, 2):
            value = neg_cf_eval(rho_from_m_prefix_cf(m_seq, k))
            assert _rho_from_m_prefix(m_seq, k) == (value.numerator, value.denominator)
        for k in range(1, 2 * p + 2, 2):
            value = neg_cf_eval(rho_from_n_prefix_cf(n_seq, k))
            assert _rho_from_n_prefix(n_seq, k) == (value.numerator, value.denominator)


def test_local_conservation_under_each_blowdown():
    """Across every single blow-down with both legs alive, the top vertex
    conserves 2*genus - 2 - selfint + (sum of incident multiplicities).

    The quantity moves by exactly the multiplicity lost whenever the blown
    vertex is the last of its leg (its pairing survives only as the formal
    p/q bookkeeping), so those final blows are asserted with the deficit
    instead."""
    from conftest import staircase_graph

    for n_seq, m_seq, d in [((1, 4, 0), (4, 1, 3, 0), 7), ((0, 3, 2), (3, 2), 5)]:
        graph, top, m_ids, n_ids = staircase_graph(n_seq, m_seq, d)
        graph = blow_down(graph, 0)

        def top_quantity(g):
            cls = g.vertices[top]
            return 2 * cls.genus - 2 - cls.selfint + sum(g.neighbors(top).values())

        expected = top_quantity(graph)
        assert expected == d - 1
        p, q = (len(n_seq) - 1) // 2, len(m_seq) // 2
        m_ptr = n_ptr = 0
        for i in range(min(2 * q, 2 * p + 1)):
            if i % 2 == 0:
                count = n_seq[i] + 1
                batch, n_ptr = n_ids[n_ptr:n_ptr + count], n_ptr + count
            else:
                count = m_seq[i] + 1
                batch, m_ptr = m_ids[m_ptr:m_ptr + count], m_ptr + count
            for v in batch:
                pairing = graph.neighbors(v)[top]
                leg_final = v in (m_ids[-1], n_ids[-1])
                graph = blow_down(graph, v)
                if leg_final:
                    assert top_quantity(graph) == expected - pairing
                    expected -= pairing
                else:
                    assert top_quantity(graph) == expected


def test_route_worked_examples():
    verdict = decide_route((F(3, 5), F(1, 3), F(1, 9)))
    assert verdict.kind == "realizable" and verdict.case_tag == "two-q-short"
    assert (verdict.certificate.m, verdict.certificate.a) == (8, 5)
    assert verify_certificate((F(3, 5), F(1, 3), F(1, 9)), verdict.certificate)

    verdict = decide_route((F(3, 5), F(1, 3), F(1, 8)))
    assert verdict.kind == "obstructed"
    assert is_realizable((F(3, 5), F(1, 3), F(1, 8))) is None

    verdict = decide_route((F(1, 2), F(1, 2), F(1, 5)))
    assert verdict.kind == "obstructed"
    assert verdict.reason == "zero-square sphere" and verdict.stage == 0


def test_route_case_tags():
    cases = {
        (F(1, 3), F(1, 3), F(1, 4)): "gamma1-below-half",
        (F(1, 2), F(1, 6), F(1, 7)): "odd-k",
        (F(4, 7), F(1, 3), F(1, 7)): "even-k",
        (F(3, 5), F(1, 3), F(1, 9)): "two-q-short",
        (F(1, 2), F(1, 3), F(1, 6)): "two-p-short",
    }
    for gammas, tag in cases.items():
        verdict = decide_route(gammas)
        assert verdict.kind == "realizable", (gammas, verdict)
        assert verdict.case_tag == tag, (gammas, verdict)
        assert verify_certificate(gammas, verdict.certificate)


def test_route_domain_errors():
    with pytest.raises(ValueError):
        decide_route((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        decide_route((F(1, 2), F(1, 3), F(5, 4)))


def test_route_certificates_respect_expansion_order():
    """On certificate verdicts reached through the iteration, the derived
    fraction sits strictly between the dual of the second expansion and
    the first expansion, in value and in sequence order alike."""
    checked = 0
    for combo_kind, gammas in [
        ("two-q-short", (F(3, 5), F(1, 3), F(1, 9))),
        ("two-p-short", (F(1, 2), F(1, 3), F(1, 6))),
        ("even-k", (F(4, 7), F(1, 3), F(1, 7))),
        ("odd-k", (F(1, 2), F(1, 6), F(1, 7))),
    ]:
        verdict = decide_route(gammas)
        assert verdict.case_tag == combo_kind
        cert = verdict.certificate
        rho = F(cert.m, cert.a)
        ordered = sorted(gammas, reverse=True)
        d1, d2 = 1 / ordered[0], 1 / ordered[1]
        d2_dual = d2 / (d2 - 1)
        assert d2_dual < rho < d1
        cf_rho = neg_cf_expand(rho)
        assert lex_compare(riemenschneider_dual(neg_cf_expand(d2)), cf_rho) == -1
        assert lex_compare(cf_rho, neg_cf_expand(d1)) == -1
        checked += 1
    assert checked == 4


def test_route_matches_oracle_mini_sweep():
    report = route_oracle_sweep(3, 10, jobs=1)
    assert report.ok, (report.mismatches[:3], report.inconclusive[:3])
    report = route_oracle_sweep(4, 6, jobs=1)
    assert report.ok
