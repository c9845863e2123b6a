"""Finite formula for zeta values of real quadratic fields.

The power sums e_j(m) count representations b^2 + 4ac = m with a, c > 0
and b running over all integers; combined with the Kronecker character
of the field and the weights b_j(4k) from the auxiliary q-expansions,
they give exact values of zeta_K(1-2k).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import divisor_sum, divisors, factor_small, kronecker
from .qseries import siegel_coeffs
from .values import Value


def is_fundamental_discriminant(d: int) -> bool:
    """True for discriminants of real quadratic fields: d > 1 with
    d = 1 mod 4 squarefree, or d = 4m for squarefree m = 2, 3 mod 4."""
    return d > 1 and is_kronecker_discriminant(d)


def is_kronecker_discriminant(d: int) -> bool:
    """True for d = 1 and the fundamental discriminants of either sign,
    the d whose Kronecker symbol (d|.) is a primitive character mod |d|:
    d = 1 mod 4 squarefree, or d = 4m for squarefree m = 2, 3 mod 4."""
    if d % 4 == 1:
        return _squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(abs(m))
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor_small(n))


class QuadraticDiscriminant(Value):
    """A positive fundamental discriminant, verified at construction."""

    __slots__ = ("value",)
    value: int

    def __post_init__(self) -> None:
        if not is_fundamental_discriminant(self.value):
            raise ValueError(f"{self.value} is not a fundamental discriminant > 1")

    def __int__(self) -> int:
        return self.value


def as_discriminant(disc: QuadraticDiscriminant | int) -> QuadraticDiscriminant:
    """disc as a QuadraticDiscriminant, checking it only if it is not
    one already."""
    if isinstance(disc, QuadraticDiscriminant):
        return disc
    return QuadraticDiscriminant(int(disc))


def fundamental_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for a squarefree m > 1."""
    if m <= 1 or not _squarefree(m):
        raise ValueError("fundamental_discriminant needs squarefree m > 1")
    return m if m % 4 == 1 else 4 * m


def e_sum(m: int, j: int) -> int:
    """e_j(m) = sum of a^j over b^2 + 4ac = m with a, c > 0, b in Z.

    Evaluated as the b = 0 term plus twice the b >= 1 terms, each term
    being sigma_j((m - b^2)/4); zero when m = 2, 3 mod 4.
    """
    if m < 1:
        raise ValueError("e_sum requires m >= 1")
    if j < 1 or j % 2 == 0:
        raise ValueError("e_sum requires positive odd j")
    if m % 4 in (2, 3):
        return 0
    total = divisor_sum(m // 4, j) if m % 4 == 0 else 0
    start = 2 if m % 4 == 0 else 1
    side = 0
    for b in range(start, isqrt(m - 1) + 1, 2):
        side += divisor_sum((m - b * b) // 4, j)
    return total + 2 * side


def chi_weighted_sum(disc: QuadraticDiscriminant | int, l: int, k: int) -> int:
    """sum over m | l of (D|m) * m^(2k-1) * e_{2k-1}((l/m)^2 * D)."""
    d = int(as_discriminant(disc))
    if l < 1 or k < 1:
        raise ValueError("chi_weighted_sum requires l, k >= 1")
    j = 2 * k - 1
    return sum(
        kronecker(d, m) * m**j * e_sum((l // m) ** 2 * d, j) for m in divisors(l)
    )


def zeta_quadratic(disc: QuadraticDiscriminant | int, k: int) -> Fraction:
    """Exact zeta_K(1-2k) for the real quadratic field of discriminant D:

        4 * sum_{j=1}^{floor(k/3)+1} b_j(4k) * S(D, j, k)

    where S is chi_weighted_sum.
    """
    disc = as_discriminant(disc)
    if k < 1:
        raise ValueError("zeta_quadratic requires k >= 1")
    weights = siegel_coeffs(4 * k)
    terms = k // 3 + 1
    if len(weights) != terms:
        raise AssertionError(f"expected {terms} weights for h={4 * k}")
    total = Fraction(0)
    for j in range(1, terms + 1):
        total += weights[j - 1] * chi_weighted_sum(disc, j, k)
    return 4 * total
