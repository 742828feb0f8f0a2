"""Plumbing graphs, blow-down calculus, intersection forms."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import blow_down, determinant, fully_blow_down, leading_principal_minors
from sfiber import plumbing
from sfiber.plumbing import (
    PlumbingGraph,
    SurfaceClass,
    adjunction_ok,
    build_plumbing,
    intersection_matrix,
    is_negative_definite,
    leg_contribution,
    star_negative_definite,
    to_dot,
)
from sfiber.seifert import InvalidSeifertError, SeifertData, euler_number
from sfiber.sweeps import fiber_pairs

POINCARE = SeifertData(-1, 0, ((2, 1), (3, 1), (5, 1)))


def test_build_e8():
    graph = build_plumbing(POINCARE)
    assert len(graph.vertices) == 8
    assert graph.vertices[0] == SurfaceClass(-2, 0)
    assert all(c == SurfaceClass(-2, 0) for c in graph.vertices.values())
    # legs of lengths 1, 2, 4 hanging off the center
    assert sorted(graph.neighbors(0)) == [1, 2, 4]
    assert all(m == 1 for m in graph.edges.values())


def test_build_single_vertex():
    graph = build_plumbing(SeifertData(3, 1, ()))
    assert graph.vertices == {0: SurfaceClass(-3, 1)} and not graph.edges


def test_build_three_short_legs():
    graph = build_plumbing(SeifertData(-2, 0, ((2, 1), (3, 2), (5, 4))))
    assert graph.vertices[0] == SurfaceClass(-1, 0)
    legs = sorted(c.selfint for v, c in graph.vertices.items() if v != 0)
    assert legs == [-5, -3, -2]


def test_build_rejects_nonorientable():
    with pytest.raises(InvalidSeifertError):
        build_plumbing(SeifertData(1, -1, ()))


def test_blow_down_triangle_with_multiplicity():
    graph = PlumbingGraph(
        {0: SurfaceClass(-4, 0), 1: SurfaceClass(-1, 0), 2: SurfaceClass(-3, 0)},
        {(0, 1): 2, (1, 2): 1, (0, 2): 1},
    )
    out = blow_down(graph, 1)
    assert out.vertices == {0: SurfaceClass(0, 1), 2: SurfaceClass(-2, 0)}
    assert out.edges == {(0, 2): 3}


def test_blow_down_classical_chain():
    graph = PlumbingGraph(
        {0: SurfaceClass(-2, 0), 1: SurfaceClass(-1, 0), 2: SurfaceClass(-2, 0)},
        {(0, 1): 1, (1, 2): 1},
    )
    out = blow_down(graph, 1)
    assert out.vertices == {0: SurfaceClass(-1, 0), 2: SurfaceClass(-1, 0)}
    assert out.edges == {(0, 2): 1}


def test_blow_down_isolated_vertex():
    graph = PlumbingGraph({0: SurfaceClass(-1, 0)}, {})
    out = blow_down(graph, 0)
    assert out.vertices == {} and out.edges == {}


def test_blow_down_preconditions():
    graph = PlumbingGraph({0: SurfaceClass(-2, 0), 1: SurfaceClass(-1, 1)}, {(0, 1): 1})
    with pytest.raises(ValueError):
        blow_down(graph, 0)  # not a -1
    with pytest.raises(ValueError):
        blow_down(graph, 1)  # genus > 0
    with pytest.raises(ValueError):
        blow_down(graph, 7)  # absent


@pytest.mark.parametrize("surface, ok", [
    (SurfaceClass(0, 0), False),
    (SurfaceClass(-1, 0), True),
    (SurfaceClass(0, 1), True),
    (SurfaceClass(1, 1), False),
    (SurfaceClass(6, 4), True),
    (SurfaceClass(7, 4), False),
])
def test_adjunction_examples(surface, ok):
    assert adjunction_ok(surface) is ok


def test_fully_blow_down_e8_untouched():
    graph = build_plumbing(POINCARE)
    out, violation = fully_blow_down(graph)
    assert out == graph and violation is None


def test_fully_blow_down_zero_square_sphere():
    graph = build_plumbing(SeifertData(-1, 0, ((2, 1), (2, 1))))
    assert graph.vertices[0] == SurfaceClass(-1, 0)
    out, violation = fully_blow_down(graph)
    assert violation == SurfaceClass(0, 0)
    assert len(out.vertices) == 1


def test_fully_blow_down_single_minus_one():
    out, violation = fully_blow_down(PlumbingGraph({0: SurfaceClass(-1, 0)}, {}))
    assert out.vertices == {} and violation is None


def test_fully_blow_down_order_independent_verdicts():
    """Blowing largest-id first instead must not change the verdict."""
    for fibers in [((2, 1), (2, 1)), ((2, 1), (3, 1)), ((2, 1), (3, 2), (5, 4))]:
        graph = build_plumbing(SeifertData(-1, 0, fibers))
        _, violation = fully_blow_down(graph)

        g = graph
        while True:
            bad = [v for v in sorted(g.vertices) if not adjunction_ok(g.vertices[v])]
            if bad:
                alt = g.vertices[bad[0]]
                break
            blowable = [v for v in sorted(g.vertices, reverse=True)
                        if g.vertices[v] == SurfaceClass(-1, 0)]
            if not blowable:
                alt = None
                break
            g = blow_down(g, blowable[0])
        assert (violation is None) == (alt is None)


def test_intersection_matrix_examples():
    assert intersection_matrix(build_plumbing(SeifertData(3, 0, ()))) == [[-3]]
    chain = PlumbingGraph(
        {0: SurfaceClass(-2, 0), 1: SurfaceClass(-2, 0)}, {(0, 1): 1})
    assert intersection_matrix(chain) == [[-2, 1], [1, -2]]


def test_e8_matrix_unimodular_negative_definite():
    matrix = intersection_matrix(build_plumbing(POINCARE))
    assert determinant(matrix) == 1
    minors = leading_principal_minors(matrix)
    assert all((-1) ** (k + 1) * m > 0 for k, m in enumerate(minors))
    assert is_negative_definite(matrix)


def test_is_negative_definite_examples():
    assert is_negative_definite([[-1]])
    assert not is_negative_definite([[0]])
    assert is_negative_definite([])
    assert not is_negative_definite([[-2, 1], [1, 0]])
    with pytest.raises(ValueError):
        is_negative_definite([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        is_negative_definite([[1, 2, 3], [4, 5, 6]])


def test_is_negative_definite_cycles_and_bigints():
    assert is_negative_definite([[-3, 1, 1], [1, -3, 1], [1, 1, -3]])
    assert not is_negative_definite([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])  # determinant 0
    n = 10 ** 40
    assert is_negative_definite([[-n, 1], [1, -n]])
    assert not is_negative_definite([[n]])


def test_is_negative_definite_non_index_ordered_forest():
    # vertex 2 has two lower-indexed neighbors, so eliminating it first
    # (highest id first) couples vertices 0 and 1: the V shape fills in
    v_shape = [[-2, 0, 1], [0, -2, 1], [1, 1, -2]]
    assert leading_principal_minors(v_shape) == [-2, 4, -4]
    assert is_negative_definite(v_shape)
    assert not is_negative_definite([[-2, 0, 1], [0, -2, 2], [1, 2, -2]])
    assert not is_negative_definite([[-1, 0, 0], [0, 0, 1], [0, 1, -2]])


def _dense_reference_negative_definite(matrix):
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for k in range(n):
        if a[k][k] >= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / a[k][k]
    return True


def test_is_negative_definite_matches_dense_reference():
    import random
    rng = random.Random(2024)
    for _ in range(1500):
        n = rng.randint(1, 7)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = rng.randint(-6, 2)
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    matrix[i][j] = matrix[j][i] = rng.randint(-3, 3)
        assert is_negative_definite(matrix) == _dense_reference_negative_definite(matrix), matrix


def test_blow_down_determinant_sign_flip():
    """det(Q) = -det(Q') across a blow-down, vertex count drops by one."""
    cases = [
        PlumbingGraph(
            {0: SurfaceClass(-2, 0), 1: SurfaceClass(-1, 0), 2: SurfaceClass(-2, 0)},
            {(0, 1): 1, (1, 2): 1}),
        PlumbingGraph(
            {0: SurfaceClass(-4, 0), 1: SurfaceClass(-1, 0), 2: SurfaceClass(-3, 0)},
            {(0, 1): 2, (1, 2): 1, (0, 2): 1}),
        PlumbingGraph(
            {0: SurfaceClass(-3, 0), 1: SurfaceClass(-1, 0)}, {(0, 1): 3}),
    ]
    for graph in cases:
        out = blow_down(graph, 1)
        assert len(out.vertices) == len(graph.vertices) - 1
        assert determinant(intersection_matrix(out)) == -determinant(intersection_matrix(graph))


def test_negative_definite_iff_negative_euler_small_sweep():
    pairs = fiber_pairs(6)
    for r in range(0, 4):
        for fibers in combinations_with_replacement(pairs, r):
            for b in range(-2, 3):
                data = SeifertData(b, 0, fibers)
                nd = is_negative_definite(intersection_matrix(build_plumbing(data)))
                assert nd == (euler_number(data) < 0), data


def test_leg_contribution_is_gamma():
    """Eliminating the leg of (alpha, beta) from its tip adds
    1 - beta/alpha to the centre pivot, in lowest terms."""
    for alpha, beta in fiber_pairs(40):
        assert leg_contribution(alpha, beta) == (alpha - beta, alpha)


def test_star_negative_definite_matches_elimination_and_euler():
    """Leg-once elimination with one centre pivot per b agrees with the
    full elimination of the plumbing's matrix and with e(M) < 0 on every
    cell with alpha <= 7, r <= 3 and b in -4..4."""
    bs = range(-4, 5)
    legs = {}
    cells = 0
    for r in range(4):
        for fibers in combinations_with_replacement(fiber_pairs(7), r):
            for b, nd in zip(bs, star_negative_definite(fibers, bs, legs)):
                data = SeifertData(b, 0, fibers)
                assert nd == is_negative_definite(intersection_matrix(build_plumbing(data))), data
                assert nd == (euler_number(data) < 0), data
                cells += 1
    assert cells == 9 * 1140
    assert set(legs) == set(fiber_pairs(7))


def test_star_negative_definite_refuted_by_a_leg_pivot(monkeypatch):
    """A leg whose elimination meets a pivot >= 0 refutes definiteness for
    every b, as the full elimination does."""
    monkeypatch.setattr(plumbing, "_leg_chain", lambda alpha, beta: (1, 1))
    monkeypatch.setattr(plumbing, "_leg_classes", lambda alpha, beta: (SurfaceClass(-1, 0),) * 2)
    assert leg_contribution(3, 1) is None
    fibers = ((2, 1), (3, 1))
    assert star_negative_definite(fibers, range(-9, 2), {}) == [False] * 11
    for b in (-9, 0):
        assert not is_negative_definite(intersection_matrix(build_plumbing(SeifertData(b, 0, fibers))))


def test_to_dot_shape():
    dot = to_dot(build_plumbing(SeifertData(3, 1, ())))
    assert dot == 'graph plumbing {\n  v0 [label="x=-3,g=1"];\n}\n'
    dot = to_dot(PlumbingGraph(
        {0: SurfaceClass(-2, 1), 1: SurfaceClass(-3, 0)}, {(0, 1): 2}))
    assert 'v0 [label="x=-2,g=1"];' in dot
    assert 'v0 -- v1 [label="2"];' in dot
