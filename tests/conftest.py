"""Shared test references: a brute-force realizability search, a
Fraction-based minus-sign expansion, the staircase point diagram,
plus-sign evaluation, the arithmetic dual and the value order of
expansions, blow-downs and determinants of plumbings, the circle-bundle
criteria, the expanded-list forms of the route's run-length computations,
and the staircase graphs of the triangle blow-down replays."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod

from sfiber.plumbing import PlumbingGraph, SurfaceClass, adjunction_ok
from sfiber.seifert import euler_char_base, euler_number


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


@dataclass(frozen=True)
class PointDiagram:
    """Staircase of dots converting an expansion into its dual's expansion.

    Row i holds ``rows[i]`` dots and starts under the last dot of row i-1.
    Column j then holds (dual coefficient j) - 1 dots.
    """

    rows: tuple[int, ...]

    @classmethod
    def from_cf(cls, coeffs) -> "PointDiagram":
        if not coeffs or any(c < 2 for c in coeffs):
            raise ValueError("point diagram requires coefficients >= 2")
        return cls(tuple(c - 1 for c in coeffs))

    def column_counts(self) -> tuple[int, ...]:
        ncols = sum(self.rows) - (len(self.rows) - 1)
        counts = [0] * ncols
        start = 0
        for length in self.rows:
            for j in range(start, start + length):
                counts[j] += 1
            start += length - 1
        return tuple(counts)


def pos_cf_eval(coeffs):
    """Evaluate a plus-sign continued fraction c1 + 1/(c2 + 1/(...)).

    Coefficients may be arbitrary integers; a tail that evaluates to zero
    makes the next step undefined and raises ValueError.
    """
    if not coeffs:
        raise ValueError("empty coefficient sequence")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        if value == 0:
            raise ValueError(f"zero intermediate denominator in {tuple(coeffs)}")
        value = c + 1 / value
    return value


def dual(value):
    """Return the unique r' > 1 with 1/r + 1/r' = 1, i.e. r/(r-1).

    The map is an involution fixing 2 and exchanging (1,2) with (2,oo),
    reversing the usual order.
    """
    rho = Fraction(value)
    if rho <= 1:
        raise ValueError(f"dual requires a rational > 1, got {rho}")
    return rho / (rho - 1)


def reverse_cf(coeffs):
    """Reverse a coefficient sequence; the value's numerator is preserved."""
    return tuple(reversed(coeffs))


LESS, EQUAL, GREATER = -1, 0, 1


def lex_compare(s, t):
    """Three-way comparison in the order matching continued-fraction values.

    The first differing entry decides; when one sequence is a strict prefix
    of the other, the prefix is the *greater* one (dropping trailing terms
    increases the value).
    """
    for a, b in zip(s, t):
        if a != b:
            return LESS if a < b else GREATER
    if len(s) == len(t):
        return EQUAL
    return LESS if len(s) > len(t) else GREATER


def _edge_key(u, v):
    if u == v:
        raise ValueError("self-loops are not allowed")
    return (u, v) if u < v else (v, u)


def blow_down(graph, v):
    """Remove a (-1)-sphere, pushing its intersections onto the neighbors.

    A neighbor met p times gains p^2 in self-intersection and binom(p,2)
    in genus (double points are smoothed immediately); neighbors met p and
    q times gain p*q in multiplicity.  Returns a fresh graph.
    """
    cls = graph.vertices.get(v)
    if cls is None:
        raise ValueError(f"no vertex {v}")
    if cls.selfint != -1 or cls.genus != 0:
        raise ValueError(f"vertex {v} is not a (-1)-sphere: {cls}")
    incident = graph.neighbors(v)
    vertices = {}
    for u, c in graph.vertices.items():
        if u == v:
            continue
        if u in incident:
            p = incident[u]
            c = SurfaceClass(c.selfint + p * p, c.genus + comb(p, 2))
        vertices[u] = c
    edges = {k: m for k, m in graph.edges.items() if v not in k}
    nbrs = sorted(incident)
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            key = _edge_key(a, b)
            edges[key] = edges.get(key, 0) + incident[a] * incident[b]
    return PlumbingGraph(vertices, edges)


def fully_blow_down(graph):
    """Blow down (-1)-spheres (smallest id first) as far as possible.

    Stops early if any vertex class violates the adjunction bound and
    returns (terminal graph, first violating class or None).
    """
    while True:
        violating = [v for v in sorted(graph.vertices) if not adjunction_ok(graph.vertices[v])]
        if violating:
            return graph, graph.vertices[violating[0]]
        blowable = [
            v for v in sorted(graph.vertices)
            if graph.vertices[v] == SurfaceClass(-1, 0)
        ]
        if not blowable:
            return graph, None
        graph = blow_down(graph, blowable[0])


def determinant(matrix):
    """Integer determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def leading_principal_minors(matrix):
    """Determinants of the top-left k x k blocks, k = 1..n."""
    return [determinant([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)]


def cyclic_quotient_euler(data):
    """Euler number of the quotient circle bundle: (prod alpha_i) * e(M)."""
    return prod(alpha for alpha, _ in data.fibers) * euler_number(data)


def circle_bundle_contact(e, g):
    """Transverse contact criterion for a genuine circle bundle with Euler number e."""
    chi = euler_char_base(g)
    return (chi <= 0 and e <= -chi) or (chi > 0 and e < 0)


def circle_bundle_foliation(e, g):
    """Transverse foliation criterion for a genuine circle bundle with Euler number e."""
    chi = euler_char_base(g)
    return (chi <= 0 and abs(e) <= -chi) or (chi >= 0 and e == 0)


def d_bound_check(trace, d):
    """d > p_i + q_i at every stage; by the invariant this is 2g_i - 2 - x_i >= 0."""
    return all(d > s.p + s.q for s in trace)


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
