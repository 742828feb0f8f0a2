"""Seifert invariants of oriented Seifert fibered 3-manifolds.

A manifold is described by ``{b; g; (a1,b1),...,(ar,br)}`` where g >= 0
means an orientable base of genus g and g < 0 a non-orientable base, so
that chi = 2 - 2g in the first case and 2 + g in the second.  Normalized
data has 0 < beta < alpha for every exceptional fiber.  The derived
invariants are

    e(M)  = -b - sum(beta_i / alpha_i)        (rational Euler number)
    e0(M) = -b - r                            (central plumbing weight)
    Gamma(M) = (1 - beta_1/alpha_1, ...)      (entries in (0,1))

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InvalidSeifertError(ValueError):
    """Raised when fiber data violates gcd/positivity requirements."""


@dataclass(frozen=True)
class SeifertData:
    """Possibly unnormalized Seifert invariants."""

    b: int
    g: int
    fibers: tuple[tuple[int, int], ...] = ()


def validate(data: SeifertData) -> None:
    for alpha, beta in data.fibers:
        if alpha <= 0:
            raise InvalidSeifertError(f"fiber multiplicity must be positive, got alpha={alpha}")
        if gcd(alpha, beta) != 1:
            raise InvalidSeifertError(f"fiber pair ({alpha},{beta}) is not coprime")


def is_normalized(data: SeifertData) -> bool:
    for a, b in data.fibers:
        if not 0 < b < a:  # alpha >= 2 follows
            return False
    return True


def normalize(data: SeifertData) -> SeifertData:
    """Shift every beta into (0, alpha), folding alpha=1 pairs into b.

    The integer b absorbs floor(beta/alpha) per fiber, which keeps e(M)
    unchanged.  Fiber order is preserved.
    """
    validate(data)
    b = data.b
    fibers = []
    for alpha, beta in data.fibers:
        if alpha == 1:
            b += beta
            continue
        k = beta // alpha
        b += k
        fibers.append((alpha, beta - k * alpha))
    return SeifertData(b, data.g, tuple(fibers))


def _require_normalized(data: SeifertData) -> None:
    if not is_normalized(data):
        raise InvalidSeifertError(f"expected normalized invariants, got {data}")


def beta_sum(fibers) -> tuple[int, int]:
    """sum(beta/alpha) as an integer pair (num, den), den the lcm of the alphas."""
    num, den = 0, 1
    for a, b in fibers:
        common = gcd(den, a)
        num, den = num * (a // common) + b * (den // common), den // common * a
    return num, den


def euler_number(data: SeifertData) -> Fraction:
    """e(M) = -b - sum(beta/alpha), summed in integers and reduced once."""
    _require_normalized(data)
    num, den = beta_sum(data.fibers)
    return Fraction(-data.b * den - num, den)


def e_zero(data: SeifertData) -> int:
    """e0(M) = -b - r."""
    _require_normalized(data)
    return -data.b - len(data.fibers)


def gamma_vector(data: SeifertData) -> tuple[Fraction, ...]:
    """Gamma(M): one entry 1 - beta/alpha in (0,1) per exceptional fiber."""
    _require_normalized(data)
    return tuple(1 - Fraction(b, a) for a, b in data.fibers)


def reverse_orientation(data: SeifertData) -> SeifertData:
    """Normalized invariants of -M: {-b-r, g; (alpha, alpha-beta), ...}.

    Consequently e(-M) = -e(M), e0(-M) = -e0(M) - r and
    Gamma(-M) = 1 - Gamma(M) componentwise.
    """
    _require_normalized(data)
    r = len(data.fibers)
    return SeifertData(-data.b - r, data.g, tuple((a, a - b) for a, b in data.fibers))


def euler_char_base(g: int) -> int:
    """Euler characteristic of the base: 2-2g if orientable, 2+g if not."""
    return 2 - 2 * g if g >= 0 else 2 + g


def orientation_double_cover(data: SeifertData) -> SeifertData:
    """Pull the fibration back over the orientable double cover of the base.

    The base genus becomes -1-g (so chi doubles), b doubles and every
    exceptional fiber appears twice; hence e and e0 both double.
    """
    _require_normalized(data)
    if data.g >= 0:
        raise InvalidSeifertError("double cover applies only to non-orientable bases (g < 0)")
    doubled = tuple(f for f in data.fibers for _ in range(2))
    return SeifertData(2 * data.b, -1 - data.g, doubled)


def is_product_sphere(data: SeifertData) -> bool:
    """Recognize S1 x S2 among normalized invariants.

    This is the trivial bundle over the sphere together with the r=2,
    e=0, e0=-1 family {-1; 0; (a,b),(a,a-b)}.
    """
    _require_normalized(data)
    if data.g != 0 or euler_number(data) != 0:
        return False
    r = len(data.fibers)
    return r == 0 or (r == 2 and e_zero(data) == -1)
