"""Decorated plumbing graphs and the intersection form.

Vertices represent embedded surfaces (self-intersection, genus), edges
carry geometric intersection multiplicities.  A Seifert manifold with
orientable base bounds the star-shaped plumbing whose central vertex has
weight e0(M) and genus g and whose legs are the minus-sign expansions of
alpha/(alpha-beta), one chain per exceptional fiber.  Graphs are treated
as immutable values.

Negative definiteness of a matrix is decided by exact symmetric
elimination, highest id first; on the stars built here that eliminates
every leg from its tip, so no fill appears.  The sweeps take a shorter
path: every leg is eliminated once with integer-pair pivots and its
contribution to the centre reused for every central weight.  Blow-downs,
determinants and leading principal minors are test references
(``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cf import neg_cf_expand
from .seifert import SeifertData, InvalidSeifertError, is_normalized


@dataclass(frozen=True)
class SurfaceClass:
    """Homology class of an embedded oriented surface."""

    selfint: int
    genus: int


@dataclass(frozen=True)
class PlumbingGraph:
    """Intersection graph: vertex id -> SurfaceClass, edge pair -> multiplicity."""

    vertices: dict
    edges: dict

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of neighbor id -> edge multiplicity."""
        out: dict[int, int] = {}
        for (a, b), mult in self.edges.items():
            if a == v:
                out[b] = mult
            elif b == v:
                out[a] = mult
        return out


def _leg_chain(alpha: int, beta: int) -> tuple[int, ...]:
    return neg_cf_expand(Fraction(alpha, alpha - beta))


@lru_cache(maxsize=None)
def _leg_classes(alpha: int, beta: int) -> tuple[SurfaceClass, ...]:
    return tuple(SurfaceClass(-c, 0) for c in _leg_chain(alpha, beta))


def build_plumbing(data: SeifertData) -> PlumbingGraph:
    """Star-shaped plumbing bounded by the given Seifert manifold.

    Requires an orientable base (g >= 0); pass through the orientation
    double cover first otherwise.  The center gets id 0; leg i occupies
    the next consecutive ids, attached to the center at its first
    coefficient.
    """
    if not is_normalized(data):
        raise InvalidSeifertError(f"expected normalized invariants, got {data}")
    if data.g < 0:
        raise InvalidSeifertError("plumbing requires an orientable base (g >= 0)")
    vertices = {0: SurfaceClass(-data.b - len(data.fibers), data.g)}
    edges: dict[tuple[int, int], int] = {}
    next_id = 1
    for alpha, beta in data.fibers:
        prev = 0
        for cls in _leg_classes(alpha, beta):
            vertices[next_id] = cls
            edges[(prev, next_id)] = 1  # prev < next_id by construction
            prev = next_id
            next_id += 1
    return PlumbingGraph(vertices, edges)


def adjunction_ok(surface: SurfaceClass) -> bool:
    """Adjunction bound: spheres need square <= -1, genus g > 0 needs <= 2g-2."""
    if surface.genus == 0:
        return surface.selfint <= -1
    return surface.selfint <= 2 * surface.genus - 2


def intersection_matrix(graph: PlumbingGraph) -> list[list[int]]:
    """Symmetric matrix: diagonal self-intersections, off-diagonal multiplicities."""
    ids = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    matrix = [[0] * n for _ in range(n)]
    for v, i in index.items():
        matrix[i][i] = graph.vertices[v].selfint
    for (a, b), mult in graph.edges.items():
        i, j = index[a], index[b]
        matrix[i][j] = mult
        matrix[j][i] = mult
    return matrix


def _sparse_rows(matrix):
    """Validate a square symmetric matrix, return sparse row dicts."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for row, col in zip(matrix, zip(*matrix)):
        if list(row) != list(col):
            raise ValueError("matrix is not symmetric")
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _absorb(pivot, w, child):
    """The pivot num/den after eliminating a child met w times whose own
    pivot cn/cd is negative: num/den - w^2 cd/cn, again an integer pair
    with a positive denominator."""
    (num, den), (cn, cd) = pivot, child
    return w * w * cd * den - num * cn, -den * cn


def leg_contribution(alpha: int, beta: int) -> tuple[int, int] | None:
    """Eliminate the leg of the fiber (alpha, beta) from its tip.

    The leg is the chain ``build_plumbing`` hangs off the centre.  Its
    pivots are integer pairs (``_absorb``), each checked < 0; the result
    is what the leg adds to the centre's pivot, num/den with den > 0.
    None means some leg pivot is >= 0, so no plumbing carrying this leg is
    negative definite.
    """
    pivot = None
    for c in reversed(_leg_chain(alpha, beta)):
        pivot = (-c, 1) if pivot is None else _absorb((-c, 1), 1, pivot)
        if pivot[0] >= 0:
            return None
    return _absorb((0, 1), 1, pivot)


def star_negative_definite(fibers, bs, legs: dict) -> list[bool]:
    """For each b in bs, whether the star plumbing of {b; g; fibers} is
    negative definite (normalized fibers; the genus does not enter).

    Every leg is eliminated once, through ``leg_contribution`` memoized in
    ``legs`` by (alpha, beta); the legs' contributions are summed as one
    integer pair num/den, after which each b costs only the centre pivot
    e0 + num/den = (-b - r) + num/den.
    """
    r = len(fibers)
    num, den = 0, 1
    for fiber in fibers:
        if fiber not in legs:
            legs[fiber] = leg_contribution(*fiber)
        leg = legs[fiber]
        if leg is None:
            return [False] * len(bs)
        num, den = num * leg[1] + leg[0] * den, den * leg[1]
    return [(-b - r) * den + num < 0 for b in bs]


def _general_pivots_negative(rows) -> bool:
    """Sparse symmetric elimination (highest id first) with exact rationals."""
    n = len(rows)
    work: list[dict[int, Fraction]] = [
        {j: Fraction(x) for j, x in r.items()} for r in rows
    ]
    for v in range(n - 1, -1, -1):
        pivot = work[v].pop(v, Fraction(0))
        if pivot >= 0:
            return False
        coupled = [(u, w) for u, w in work[v].items() if u < v and w != 0]
        for u, _ in coupled:
            work[u].pop(v, None)
        for idx, (u, wu) in enumerate(coupled):
            for t, wt in coupled[idx:]:
                delta = wu * wt / pivot
                work[u][t] = work[u].get(t, Fraction(0)) - delta
                if t != u:
                    work[t][u] = work[t].get(u, Fraction(0)) - delta
    return True


def is_negative_definite(matrix) -> bool:
    """Exact negative-definiteness decision for a symmetric integer matrix.

    Equivalent to strict sign alternation of the leading principal minors;
    implemented as symmetric elimination with exact arithmetic (a zero or
    nonnegative pivot in any symmetric elimination order refutes
    definiteness).
    """
    return _general_pivots_negative(_sparse_rows(matrix))


def to_dot(graph: PlumbingGraph) -> str:
    """Graphviz rendering; vertex labels x=<selfint>,g=<genus>, edge labels multiplicities."""
    lines = ["graph plumbing {"]
    for v in sorted(graph.vertices):
        c = graph.vertices[v]
        lines.append(f'  v{v} [label="x={c.selfint},g={c.genus}"];')
    for (a, b) in sorted(graph.edges):
        lines.append(f'  v{a} -- v{b} [label="{graph.edges[(a, b)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
