"""The weights b_j(h) of the finite zeta formula for real quadratic
fields, read off integer power series.

The weights are the principal part of the auxiliary form
T_h = G_{12r-h+2} Delta^(-r) (Siegel 1969, Zagier 1976), where
G_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n is the Eisenstein series and
Delta = q prod (1-q^n)^24.  So q^r T_h is a power series, and its
r + 1 coefficients at q^0 .. q^r carry every weight.  By Jacobi's
identity prod (1-q^n)^3 = sum_i (-1)^i (2i+1) q^(i(i+1)/2), the power
prod (1-q^n)^(-24r) is that sparse series to the power -8r, taken by
J.C.P. Miller's recurrence on plain integer lists; the one rational
number is the Eisenstein scale -2k/B_k.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .arith import bernoulli, divisor_sum


class DegenerateConstantTerm(ArithmeticError):
    """The constant term of T_h vanished; this cannot happen for a
    correct expansion, so it flags an implementation bug."""


# Integer kernels on coefficient lists of q^0 .. q^(prec-1).


def _int_mul(a, b, prec: int) -> list[int]:
    """Product of two integer power series of length prec, truncated
    at q^prec."""
    out = [0] * prec
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: prec - i], i):
                out[j] += x * y
    return out


def _int_power(a, alpha: int, prec: int) -> list[int]:
    """a^alpha truncated at q^prec, for an integer series with a[0] = 1
    and any integer alpha: J.C.P. Miller's recurrence
    n b_n = sum_{k=1..n} ((alpha+1)k - n) a_k b_{n-k} (Knuth, TAOCP
    vol. 2, 4.7), run over the nonzero a_k only.  The division by n is
    exact, because b is an integer series."""
    terms = [(k, x) for k, x in enumerate(a[1:prec], 1) if x]
    b = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        b[n] = sum(((alpha + 1) * k - n) * x * b[n - k] for k, x in terms if k <= n) // n
    return b


def t_series_pole_order(h: int) -> int:
    """The r in T_h: floor(h/12) when h = 2 mod 12, else floor(h/12)+1."""
    if h % 2 or h < 4:
        raise ValueError("h must be an even integer >= 4")
    return h // 12 if h % 12 == 2 else h // 12 + 1


def siegel_coeffs(h: int) -> list[Fraction]:
    """The weights b_j(h) = -c_{h,j} / c_{h,0} for j = 1..r, where
    c_{h,j} is the coefficient of q^-j in T_h, read off
    c = q^r T_h = G_k J^(-8r) at q^0 .. q^r, where Jacobi's series
    J = sum_i (-1)^i (2i+1) q^(i(i+1)/2) is prod (1-q^n)^3.  The
    weight k = 12r - h + 2 is 0 when h = 2 mod 12, and then G_k = 1."""
    r = t_series_pole_order(h)
    k = 12 * r - h + 2
    n = r + 1
    if n > sys.maxsize // 8:
        raise ValueError(f"b_j({h}) needs a series of {n} coefficients, more than a list can hold")
    jacobi = [0] * n
    i = 0
    while (t := i * (i + 1) // 2) < n:
        jacobi[t] = (-1) ** i * (2 * i + 1)
        i += 1
    c = _int_power(jacobi, -8 * r, n)
    if k > 0:
        scale = Fraction(-2 * k) / bernoulli(k)
        sigma = [0] + [divisor_sum(i, k - 1) for i in range(1, n)]
        c = [a + scale * b for a, b in zip(c, _int_mul(c, sigma, n))]
    if c[0] != 1:
        raise AssertionError(f"T_{h} does not start with q^-{r}")
    if c[r] == 0:
        raise DegenerateConstantTerm(f"constant term of T_{h} vanished")
    return [Fraction(-c[r - j], c[r]) for j in range(1, r + 1)]
