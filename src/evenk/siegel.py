"""Finite formula for zeta values of real quadratic fields.

The power sums e_j(m) count representations b^2 + 4ac = m with a, c > 0
and b running over all integers; combined with the Kronecker character
of the field and the weights b_j(4k) from the auxiliary q-expansions,
they give exact values of zeta_K(1-2k).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import divisor_sum, factor_small, kronecker
from .qseries import siegel_coeffs


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


def check_discriminant(d: int) -> None:
    """Raise ValueError unless d is a fundamental discriminant > 1."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant > 1")


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


def zeta_quadratic(d: int, k: int) -> Fraction:
    """Exact zeta_K(1-2k) for the real quadratic field K of fundamental
    discriminant D = d, a plain int that check_discriminant checks.

    With T = floor(k/3) + 1 and j = 2k - 1, the paper's form is

        4 * sum_{l=1}^{T} b_l(4k) * sum_{m | l} (D|m) m^j e_j((l/m)^2 D);

    written l = s*m, it is evaluated as

        4 * sum_{s=1}^{T} e_j(s^2 D) * sum_{m <= T/s} b_{sm}(4k) (D|m) m^j,

    which reads each power sum e_j(s^2 D) once.
    """
    check_discriminant(d)
    if k < 1:
        raise ValueError("zeta_quadratic requires k >= 1")
    weights = siegel_coeffs(4 * k)
    terms = k // 3 + 1
    if len(weights) != terms:
        raise AssertionError(f"expected {terms} weights for h={4 * k}")
    j = 2 * k - 1
    total = Fraction(0)
    for s in range(1, terms + 1):
        inner = sum(weights[s * m - 1] * kronecker(d, m) * m**j for m in range(1, terms // s + 1))
        total += e_sum(s * s * d, j) * inner
    return 4 * total
