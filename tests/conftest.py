"""Shared test references: a brute-force realizability search, a
Fraction-based minus-sign expansion, the expanded-list forms of the
route's run-length computations, and the staircase graphs of the triangle
blow-down replays."""

from fractions import Fraction
from math import gcd

from sfiber.plumbing import PlumbingGraph, SurfaceClass, blow_down


def brute_force_certificate(gammas, max_inverse_gamma3=200):
    """Realizability by direct search, as (m, a, assignment) or None.

    Entries are assigned in stable descending order; m runs upwards below
    1/gamma_(3) and a upwards below m, so the first hit is the least
    certificate.  The search is quadratic in 1/gamma_(3), so vectors with
    1/gamma_(3) above ``max_inverse_gamma3`` are refused.
    """
    gammas = tuple(Fraction(g) for g in gammas)
    if len(gammas) < 3:
        return None
    order = sorted(range(len(gammas)), key=lambda i: -gammas[i])
    (n1, d1), (n2, d2), (n3, d3) = (
        (gammas[i].numerator, gammas[i].denominator) for i in order[:3])
    if d3 > max_inverse_gamma3 * n3:
        raise ValueError(f"1/gamma_3 = {Fraction(d3, n3)} is beyond the search bound")
    m = 2
    while m * n3 < d3:  # m < 1/g_(3), exclusive
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            if n1 * m < a * d1 and n2 * m < (m - a) * d2:
                return m, a, tuple(order)
        m += 1
    return None


def neg_cf_expand_fraction(value):
    """Minus-sign expansion of a rational > 1 by Fraction steps: take the
    ceiling c, continue with 1/(c - rho)."""
    rho = Fraction(value)
    if rho <= 1:
        raise ValueError(f"expansion requires a rational > 1, got {rho}")
    coeffs = []
    while True:
        c = -((-rho.numerator) // rho.denominator)  # ceil
        coeffs.append(c)
        if rho == c:
            return tuple(coeffs)
        rho = 1 / (c - rho)


def dual_closed_form(m_seq):
    """Expansion of the dual of [m1, 2 x m2, ...]: runs m1-2, m_odd-3; singles m_even+3, last +2."""
    cf = [2] * (m_seq[0] - 2)
    last = len(m_seq) - 1
    for idx in range(1, len(m_seq)):
        if idx % 2 == 1:  # 1-based even position: single entry
            cf.append(m_seq[idx] + (2 if idx == last else 3))
        else:
            cf.extend([2] * (m_seq[idx] - 3))
    return tuple(cf)


def rho_from_m_prefix_cf(m_seq, k):
    """[2 x (m1-2), m2+3, 2 x (m3-3), ..., m_k+3] for even k, written out."""
    cf = [2] * (m_seq[0] - 2)
    for idx in range(1, k):
        if idx % 2 == 1:
            cf.append(m_seq[idx] + 3)
        else:
            cf.extend([2] * (m_seq[idx] - 3))
    return tuple(cf)


def rho_from_n_prefix_cf(n_seq, k):
    """[2 x (n1+1), n2, 2 x n3, ..., 2 x (n_k+1)] for odd k, written out.

    The final run gains one extra 2; for k = 1 the leading and final run
    coincide and both adjustments apply.
    """
    if k == 1:
        return (2,) * (n_seq[0] + 2)
    cf = [2] * (n_seq[0] + 1)
    for idx in range(1, k - 1):
        if idx % 2 == 1:
            cf.append(n_seq[idx])
        else:
            cf.extend([2] * n_seq[idx])
    cf.extend([2] * (n_seq[k - 1] + 1))
    return tuple(cf)


def cf_two_led(n_seq):
    """Rebuild [2 x (n1+1), n2, 2 x n3, n4, ...] from run-length data."""
    cf = [2] * (n_seq[0] + 1)
    for idx in range(1, len(n_seq)):
        if idx % 2 == 1:
            cf.append(n_seq[idx])
        else:
            cf.extend([2] * n_seq[idx])
    return tuple(cf)


def cf_single_led(m_seq):
    """Rebuild [m1, 2 x m2, m3, ...] from run-length data."""
    cf = []
    for idx, value in enumerate(m_seq):
        if idx % 2 == 0:
            cf.append(value)
        else:
            cf.extend([2] * value)
    return tuple(cf)


def staircase_graph(n_seq, m_seq, d):
    """Star with a (-1) center and the three legs the route iterates on.

    Returns (graph, top, m_ids, n_ids): blowing the center produces the
    triangle configuration whose top vertex has weight -d+1.
    """
    vertices = {0: SurfaceClass(-1, 0), 1: SurfaceClass(-d, 0)}
    edges = {(0, 1): 1}
    next_id = 2
    m_ids, n_ids = [], []
    for cf, ids in ((cf_single_led(m_seq), m_ids), (cf_two_led(n_seq), n_ids)):
        prev = 0
        for coeff in cf:
            vertices[next_id] = SurfaceClass(-coeff, 0)
            edges[(prev, next_id) if prev < next_id else (next_id, prev)] = 1
            ids.append(next_id)
            prev = next_id
            next_id += 1
    return PlumbingGraph(vertices, edges), 1, m_ids, n_ids


def replay_blowdowns(n_seq, m_seq, d, stages):
    """Blow the staircase down through the given number of stage transitions.

    Stage transition i blows n_{i+1}+1 vertices of the two-led leg when i
    is even and m_{i+1}+1 vertices of the single-led leg when i is odd.
    Returns (graphs, top, m_ids, n_ids, pointers): graphs[k] is the
    configuration after k transitions (graphs[0] the initial triangle) and
    pointers[k] = (m_ptr, n_ptr) indexes the leg heads surviving in it.
    """
    graph, top, m_ids, n_ids = staircase_graph(n_seq, m_seq, d)
    graph = blow_down(graph, 0)
    graphs = [graph]
    m_ptr = n_ptr = 0
    pointers = [(m_ptr, n_ptr)]
    for i in range(stages):
        if i % 2 == 0:
            count = n_seq[i] + 1
            ids, n_ptr = n_ids[n_ptr:n_ptr + count], n_ptr + count
        else:
            count = m_seq[i] + 1
            ids, m_ptr = m_ids[m_ptr:m_ptr + count], m_ptr + count
        for v in ids:
            graph = blow_down(graph, v)
        graphs.append(graph)
        pointers.append((m_ptr, n_ptr))
    return graphs, top, m_ids, n_ids, pointers
