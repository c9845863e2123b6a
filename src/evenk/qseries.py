"""Truncated Laurent q-expansions with exact rational coefficients.

Provides the two generators needed downstream - the Eisenstein series
G_k and the discriminant cusp form Delta - plus the auxiliary forms
T_h = G_{12r-h+2} Delta^(-r) whose principal parts carry the weights
b_j(h) of the finite zeta formula for real quadratic fields.  The
integral factors (the eta product and Delta^(-r)) are computed on
plain integer lists; only the Eisenstein factor is rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import bernoulli, divisor_sum


class DegenerateConstantTerm(ArithmeticError):
    """The constant term of T_h vanished; this cannot happen for a
    correct expansion, so it flags an implementation bug."""


class LaurentSeries:
    """Coefficients for exponents valuation .. precision-1; anything at
    q^precision and beyond is unknown (O(q^precision)).

    Arithmetic tracks the tightest precision consistent with its
    inputs and never silently widens it.
    """

    __slots__ = ("valuation", "coeffs", "precision")

    def __init__(self, valuation: int, coeffs, precision: int) -> None:
        coeffs = [Fraction(c) for c in coeffs]
        if precision - valuation != len(coeffs):
            raise ValueError("coefficient span must equal precision - valuation")
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            valuation += 1
        if not coeffs:
            valuation = precision
        self.valuation = valuation
        self.coeffs = tuple(coeffs)
        self.precision = precision

    def __repr__(self) -> str:
        terms = [
            f"{c}*q^{self.valuation + i}"
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(q^{self.precision})>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def __hash__(self) -> int:
        return hash((self.valuation, self.coeffs, self.precision))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of q^exponent; exponents at or past the
        precision bound are unknown and rejected."""
        if exponent >= self.precision:
            raise ValueError(
                f"coefficient of q^{exponent} unknown at precision {self.precision}"
            )
        if exponent < self.valuation:
            return Fraction(0)
        return self.coeffs[exponent - self.valuation]

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        prec = min(self.precision, other.precision)
        val = min(self.valuation, other.valuation)
        coeffs = [Fraction(0)] * (prec - val)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.valuation + i
                if e < prec:
                    coeffs[e - val] += c
        return LaurentSeries(val, coeffs, prec)

    def __neg__(self) -> LaurentSeries:
        return LaurentSeries(
            self.valuation, [-c for c in self.coeffs], self.precision
        )

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            return LaurentSeries(
                self.valuation, [c * other for c in self.coeffs], self.precision
            )
        if self.is_zero() or other.is_zero():
            prec = min(
                self.precision + other.valuation, other.precision + self.valuation
            )
            return LaurentSeries(prec, [], prec)
        prec = min(
            self.precision + other.valuation, other.precision + self.valuation
        )
        val = self.valuation + other.valuation
        coeffs = [Fraction(0)] * (prec - val)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                e = val + i + j
                if e >= prec:
                    break
                if b:
                    coeffs[i + j] += a * b
        return LaurentSeries(val, coeffs, prec)

    __rmul__ = __mul__

    def truncate(self, precision: int) -> LaurentSeries:
        """Forget coefficients at q^precision and beyond."""
        if precision > self.precision:
            raise ValueError("cannot widen precision by truncating")
        val = min(self.valuation, precision)
        return LaurentSeries(
            val,
            [self.coefficient(e) for e in range(val, precision)],
            precision,
        )


def eisenstein(weight: int, prec: int) -> LaurentSeries:
    """G_weight = 1 - (2*weight/B_weight) * sum sigma_{weight-1}(n) q^n,
    truncated at q^prec."""
    if weight % 2 or weight < 4:
        raise ValueError("eisenstein requires an even weight >= 4")
    if prec < 1:
        raise ValueError("eisenstein requires prec >= 1")
    scale = Fraction(-2 * weight) / bernoulli(weight)
    coeffs = [Fraction(1)] + [
        scale * divisor_sum(n, weight - 1) for n in range(1, prec)
    ]
    return LaurentSeries(0, coeffs, prec)


def delta(prec: int) -> LaurentSeries:
    """Delta = q * prod (1-q^n)^24, truncated at q^prec (valuation 1)."""
    if prec < 2:
        raise ValueError("delta requires prec >= 2")
    return LaurentSeries(1, _eta24(prec - 1), prec)


# Integer kernels: prod (1-q^n)^24 and its inverse powers have integer
# coefficients and constant term 1, so they are computed on plain int
# lists (coefficients of q^0 .. q^(prec-1)) and wrapped once.


def _int_mul(a, b, prec: int) -> list[int]:
    """Product of two integer power series of length prec, truncated
    at q^prec."""
    out = [0] * prec
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: prec - i], i):
                out[j] += x * y
    return out


@lru_cache(maxsize=None)
def _eta24(prec: int) -> tuple[int, ...]:
    """prod_{n>=1} (1-q^n)^24 truncated at q^prec: Jacobi's identity
    prod (1-q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2), squared three
    times."""
    e = [0] * prec
    k = 0
    while k * (k + 1) // 2 < prec:
        e[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    for _ in range(3):
        e = _int_mul(e, e, prec)
    return tuple(e)


def _int_inverse_power(a, r: int, prec: int) -> list[int]:
    """a^(-r) truncated at q^prec, for an integer series with a[0] = 1."""
    inv = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        inv[n] = -sum(a[i] * inv[n - i] for i in range(1, n + 1))
    result = [1] + [0] * (prec - 1)
    while r:
        if r & 1:
            result = _int_mul(result, inv, prec)
        r >>= 1
        if r:
            inv = _int_mul(inv, inv, prec)
    return result


def t_series_pole_order(h: int) -> int:
    """The r in T_h: floor(h/12) when h = 2 mod 12, else floor(h/12)+1."""
    if h % 2 or h < 4:
        raise ValueError("t_series requires an even h >= 4")
    return h // 12 if h % 12 == 2 else h // 12 + 1


def t_series(h: int, extra_prec: int = 0) -> LaurentSeries:
    """T_h = G_{12r-h+2} * Delta^(-r) (just Delta^(-r) when the weight
    comes out 0), with coefficients reported for q^(-r) .. q^0.

    The working precision is r+2 terms past the pole, which always
    covers the constant term; extra_prec widens it for cross-checks.
    """
    r = t_series_pole_order(h)
    k = 12 * r - h + 2
    rel = r + 2 + extra_prec
    core = LaurentSeries(-r, _int_inverse_power(_eta24(rel), r, rel), rel - r)
    if k > 0:
        core = core * eisenstein(k, rel)
    return core.truncate(1)


def siegel_coeffs(h: int) -> list[Fraction]:
    """The weights b_j(h) = -c_{h,j} / c_{h,0} for j = 1..r, read off
    the principal part of T_h."""
    r = t_series_pole_order(h)
    t = t_series(h)
    if t.valuation != -r or t.coefficient(-r) != 1:
        raise AssertionError(f"T_{h} does not start with q^-{r}")
    c0 = t.coefficient(0)
    if c0 == 0:
        raise DegenerateConstantTerm(f"constant term of T_{h} vanished")
    return [-t.coefficient(-j) / c0 for j in range(1, r + 1)]
