"""Slow, independent reference implementations for the tests.

Each is a plain transcription of a definition, or earlier code that a
kernel in `evenk` replaced (Fraction arithmetic in Q(zeta_n) reduced
modulo Phi_n, the list-based trial division, the unbounded trial
division factor_small once was, w_2k(Q) over every prime up to 2k + 1
and |K_n(Z)| from B_2s and a doubling, orbit numbering by
building and sorting every character, the conductors of cyclic fields
read off their factorization, a character's coordinates read
off its values, Galois orbits keyed by their scaled coordinates and
closed pair by pair, an orbit's norm taken one conjugate at a time,
its values read off
discrete-log tables, its conductor, primitive part and Kronecker
symbol read off its value at every unit, the weights b_j(h) read off
precision-tracking Laurent series from the eta product by three
squarings and its inverse by binary powering, the power sums e_j(m) by
enumerating b^2 + 4ac = m, zeta_quadratic's sum in the paper's indexing, multiples of a point on a Montgomery curve by
affine double-and-add, ECM's stage 2 on projective points); the tests
require the kernels to agree with them exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, gcd, isqrt, lcm, prod

from evenk.arith import (
    _ECM_BABY_STEPS,
    _ECM_D,
    _ecm_stage1_scalar,
    _ecm_stage2_plan,
    _ladder,
    _xadd,
    _xdbl,
    bernoulli,
    divisor_sum,
    divisors,
    is_prime,
    kronecker,
    valuation,
)
from evenk.cyclodirichlet import (
    CharacterOrbit,
    DirichletCharacter,
    NotRational,
    _conductor_of,
    _conjugate,
    _cyclic_product,
    _local_generators,
    _primitive_orbit_coordinates,
    _primitive_root,
    characters_of_order_dividing,
    euler_phi,
)
from evenk.kgroups import _as_positive_int
from evenk.qseries import DegenerateConstantTerm, _int_mul, t_series_pole_order
from evenk.siegel import check_discriminant, e_sum
from evenk.winv import _valuation_of_w


# -- Bernoulli polynomials ----------------------------------------------------

def bernoulli_poly_value(n: int, a: int, f: int) -> Fraction:
    """B_n(a/f), the n-th Bernoulli polynomial at the rational a/f.

    B_n(x) = sum_{i=0}^{n} C(n, i) B_i x^(n-i).
    """
    if n < 0:
        raise ValueError("bernoulli_poly_value requires n >= 0")
    if f < 1:
        raise ValueError("bernoulli_poly_value requires f >= 1")
    if not 0 <= a <= f:
        raise ValueError("bernoulli_poly_value requires 0 <= a <= f")
    x = Fraction(a, f)
    total = Fraction(0)
    power = Fraction(1)
    for i in range(n, -1, -1):
        total += comb(n, i) * bernoulli(i) * power
        power *= x
    return total


# -- primes and trial division -----------------------------------------------

@lru_cache(maxsize=None)
def sieve_primes(x: int) -> tuple[int, ...]:
    """All primes <= x: the sieve of Eratosthenes over every integer up
    to x, the prime list built in full."""
    sieve = bytearray([1]) * (x + 1)
    sieve[: min(x + 1, 2)] = bytes(min(x + 1, 2))
    for p in range(2, isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(x + 1), sieve))


def trial_division(n: int, trial_limit: int) -> tuple[dict[int, int], int, int]:
    """The trial-division stage of factorize, walking a precomputed list
    of the primes up to min(trial_limit, 10^6) (2 at least).

    Returns (found, m, tested_to): the prime powers divided out of n,
    what is left of n, and the last prime tried, which is the first
    prime p with p^2 > m if the walk stopped there.
    """
    found: dict[int, int] = {}
    m = n
    tested_to = 1
    for p in sieve_primes(max(min(trial_limit, 10**6), 2)):
        if p * p > m:
            tested_to = p
            break
        tested_to = p
        while m % p == 0:
            m //= p
            found[p] = found.get(p, 0) + 1
    return found, m, tested_to


@lru_cache(maxsize=None)
def factor_by_trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """The complete factorization of n >= 1 by trial division over 2 and
    the odd numbers up to the square root of what is left, with no bound:
    the earlier factor_small."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def factorization_value(result) -> int:
    """The integer a PartialFactorization stands for: its listed prime
    powers times its cofactor."""
    n = result.cofactor
    for p, e in result.factored:
        n *= p**e
    return n


def prime_power_root(n: int) -> tuple[int, int] | None:
    """(b, e) with n = b^e, b prime and e >= 2, or None; for n below
    2^53, from rounded floating-point roots."""
    for e in range(n.bit_length(), 1, -1):
        b = round(n ** (1 / e))
        for c in (b - 1, b, b + 1):
            if c > 1 and c**e == n:
                return (c, e) if is_prime(c) else None
    return None


# -- Montgomery curves ---------------------------------------------------------

def montgomery_add(P, Q, a: int, b: int, p: int):
    """P + Q on b y^2 = x^3 + a x^2 + x over F_p, p an odd prime, by the
    affine chord-and-tangent formulas; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + 2 * a * x1 + 1) * pow(2 * b * y1, -1, p)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (b * lam * lam - a - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def montgomery_multiple(k: int, P, a: int, b: int, p: int):
    """kP for k >= 0 by double-and-add over montgomery_add."""
    out, addend = None, P
    while k:
        if k & 1:
            out = montgomery_add(out, addend, a, b, p)
        addend = montgomery_add(addend, addend, a, b, p)
        k >>= 1
    return out


def ecm_stage2_projective(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """ECM's stage 2 for Q = (x : z) on projective points, as evenk once
    ran it: the product over the pairs (m, j) of the plan of
    X(mDQ) Z(jQ) - X(jQ) Z(mDQ) mod n, each term as
    (X_m - X_j)(Z_m + Z_j) - X_m Z_m + X_j Z_j; and the product of
    Z(mDQ) Z(jQ) over the same pairs, the unit (when it is one) by
    which it exceeds the affine product."""
    q = (x, z)
    q2 = _xdbl(x, z, a24, n)
    odd = [q, _xadd(q2, q, q, n)]  # odd[i] = (2i + 1) Q, up to (D/2) Q
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(odd[-1], q2, odd[-2], n))
    baby: list[tuple[int, int, int]] = [(0, 0, 0)] * (_ECM_D // 2)
    for j in _ECM_BABY_STEPS:
        xj, zj = odd[j // 2]
        baby[j] = xj, zj, xj * zj % n
    r = _xdbl(*odd[-1], a24, n)
    prev, cur = r, _xdbl(*r, a24, n)
    xm, zm = cur
    xzm = xm * zm % n
    acc = scale = 1
    for j in _ecm_stage2_plan():
        if j:
            xj, zj, xzj = baby[j]
            acc = acc * (((xm - xj) * (zm + zj) - xzm + xzj) % n) % n
            scale = scale * zm * zj % n
        else:
            prev, cur = cur, _xadd(cur, r, prev, n)
            xm, zm = cur
            xzm = xm * zm % n
    return acc, scale


def ecm_curve_projective(n: int, sigma: int) -> int | None:
    """One ECM curve as evenk once ran it: Suyama's curve at sigma, the
    stage-1 ladder from the base point (u^3 : v^3), stage 2 by
    ecm_stage2_projective."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x, z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x * v % n
    g = gcd(den, n)
    if g == 1:
        a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
        x, z, _, _ = _ladder(_ecm_stage1_scalar(), x, z, a24, n)
        g = gcd(z, n)
        if g == 1:
            g = gcd(ecm_stage2_projective(x, z, a24, n)[0], n)
    return g if 1 < g < n else None


# -- cyclotomic polynomials ----------------------------------------------------

def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of exact integer polynomial division (monic divisor)."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


_cyclotomic_cache: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n(x), constant term first.

    Built by exact division of x^n - 1 by the Phi_d for proper
    divisors d; memoized.
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    if n in _cyclotomic_cache:
        return _cyclotomic_cache[n]
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
    result = tuple(num)
    if len(result) - 1 != euler_phi(n):
        raise ArithmeticError(f"Phi_{n} has wrong degree")
    _cyclotomic_cache[n] = result
    return result


# -- cyclotomic elements with Fraction coordinates ----------------------------

class FractionCyclotomic:
    """An element of Q(zeta_n): phi(n) rational coordinates in the
    power basis 1, zeta, ..., zeta^(phi(n)-1), each a Fraction,
    reduced modulo Phi_n; the element type evenk used before it held
    cyclotomic numbers as lifts to Z[x]/(x^n - 1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_rational(cls, value, order: int = 1) -> FractionCyclotomic:
        coeffs = [Fraction(value)] + [Fraction(0)] * (euler_phi(order) - 1)
        return cls(order, coeffs)

    @classmethod
    def from_lift(cls, lift, den: int = 1) -> FractionCyclotomic:
        """The image sum_e lift[e] zeta^e / den of a lift to
        Z[x]/(x^n - 1), n = len(lift)."""
        raw = [Fraction(c, den) for c in lift]
        return cls(len(lift), _reduce_mod_cyclotomic(raw, len(lift)))

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> FractionCyclotomic:
        """zeta_order^exponent, fully reduced."""
        exponent %= order
        raw = [Fraction(0)] * (exponent + 1)
        raw[exponent] = Fraction(1)
        return cls(order, _reduce_mod_cyclotomic(raw, order))

    def __repr__(self) -> str:
        return f"FractionCyclotomic(order={self.order}, coeffs={self.coeffs})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, FractionCyclotomic):
            return NotImplemented
        if self.order != other.order:
            n = lcm(self.order, other.order)
            return self.embed(n) == other.embed(n)
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def _check_order(self, other: FractionCyclotomic) -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch ({self.order} vs {other.order}); "
                "embed explicitly first"
            )

    def __add__(self, other) -> FractionCyclotomic:
        other = _coerce(other, self.order)
        self._check_order(other)
        return FractionCyclotomic(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self) -> FractionCyclotomic:
        return FractionCyclotomic(self.order, [-a for a in self.coeffs])

    def __sub__(self, other) -> FractionCyclotomic:
        return self + (-_coerce(other, self.order))

    def __rsub__(self, other) -> FractionCyclotomic:
        return (-self) + _coerce(other, self.order)

    def __mul__(self, other) -> FractionCyclotomic:
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.order, [a * other for a in self.coeffs])
        self._check_order(other)
        raw = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[i + j] += a * b
        return FractionCyclotomic(self.order, _reduce_mod_cyclotomic(raw, self.order))

    __rmul__ = __mul__

    def __truediv__(self, other) -> FractionCyclotomic:
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("cyclotomic division only by rational scalars")

    def __pow__(self, exponent: int) -> FractionCyclotomic:
        if exponent < 0:
            raise ValueError("negative cyclotomic powers unsupported")
        result = FractionCyclotomic.from_rational(1, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def embed(self, new_order: int) -> FractionCyclotomic:
        """Image in Q(zeta_new_order); requires order | new_order."""
        if new_order % self.order:
            raise ValueError("can only embed into a multiple of the order")
        if new_order == self.order:
            return self
        step = new_order // self.order
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, a in enumerate(self.coeffs):
            raw[i * step] = a
        return FractionCyclotomic(new_order, _reduce_mod_cyclotomic(raw, new_order))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"element of Q(zeta_{self.order}) is irrational")
        return self.coeffs[0]


def _coerce(value, order: int) -> FractionCyclotomic:
    if isinstance(value, FractionCyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return FractionCyclotomic.from_rational(value, order)
    raise TypeError(f"cannot coerce {type(value).__name__}")


def _reduce_mod_cyclotomic(raw: list[Fraction], order: int) -> list[Fraction]:
    """Remainder of the polynomial `raw` (constant term first) modulo
    Phi_order, after folding exponents with zeta^order = 1."""
    phi = euler_phi(order)
    if len(raw) > order:
        folded = [Fraction(0)] * order
        for k, c in enumerate(raw):
            folded[k % order] += c
        raw = folded
    else:
        raw = list(raw)
    mod = cyclotomic_polynomial(order)
    for i in range(len(raw) - 1, phi - 1, -1):
        c = raw[i]
        if c:
            for j in range(phi + 1):
                raw[i - phi + j] -= c * mod[j]
    out = raw[:phi]
    out += [Fraction(0)] * (phi - len(out))
    return out



# -- w invariants by per-class case analysis ----------------------------------

def w_case_analysis(p: int, conductors, k: int) -> dict[int, int]:
    """{l: v_l(w_2k)} of the field whose cyclic degree-p subfields have
    these conductors (discriminants for p = 2; none gives Q), by the
    per-prime case analysis evenk used before its character formula:
    sqrt(2) adds one to the 2-part, a subfield in Q(zeta_l) relaxes
    (l-1) | 2k to (l-1)/p | 2k, one in Q(zeta_{p^2}) adds one at p."""
    sqrt2 = p == 2 and 8 in conductors
    zeta_prime = {f for f in conductors if is_prime(f)}
    zeta_p_squared = p if p * p in conductors else None
    two_k = 2 * k
    parts = {2: 2 + valuation(two_k, 2) + (1 if sqrt2 else 0)}
    candidates = set(sieve_primes(two_k + 1)) | zeta_prime | {zeta_p_squared}
    for ell in sorted(candidates - {2, None}):
        exponent = 0
        if two_k % (ell - 1) == 0 or (
            ell in zeta_prime and two_k % ((ell - 1) // p) == 0
        ):
            exponent = 1 + valuation(k, ell)
        if ell == zeta_p_squared and two_k % (ell - 1) == 0:
            exponent = 2 + valuation(k, ell)
        if exponent:
            parts[ell] = exponent
    return parts


# -- w_2k(Q) and |K_n(Z)| by their own arithmetic ------------------------------

def w_rational_by_all_primes(k: int) -> dict[int, int]:
    """{l: v_l(w_2k(Q))} with v_l from the character formula at every
    prime l up to 2k + 1, the zero ones dropped."""
    if k < 1:
        raise ValueError("w invariants need k >= 1")
    parts = {ell: _valuation_of_w(ell, (), k) for ell in sieve_primes(2 * k + 1)}
    return {ell: e for ell, e in parts.items() if e}


def kz_by_bernoulli(n: int) -> int:
    """|K_n(Z)| for n = 2 or 6 mod 8.

    n = 2 mod 8: s = 2(n-2)/8 + 1 and the order is |2 B_2s w_2s(Q)/(4s)|;
    n = 6 mod 8: s = 2(n-6)/8 + 2 and the order is |B_2s w_2s(Q)/(4s)|.
    """
    if n % 8 == 2:
        s = (n - 2) // 4 + 1
        doubling = 2
    elif n % 8 == 6:
        s = (n - 6) // 4 + 2
        doubling = 1
    else:
        raise ValueError("kz requires n = 2 or 6 (mod 8)")
    w = prod(ell**e for ell, e in w_rational_by_all_primes(s).items())
    c = doubling * bernoulli(2 * s) * w / (4 * s)
    return _as_positive_int(abs(c), f"kz({n})")


# -- truncated Laurent series, Eisenstein series, Delta and T_h ----------------

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
    """a^(-r) truncated at q^prec, for an integer series with a[0] = 1:
    the series inverse, then binary powering."""
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


def siegel_coeffs_by_laurent_series(h: int) -> list[Fraction]:
    """The weights b_j(h) = -c_{h,j} / c_{h,0} for j = 1..r, read off
    the principal part of t_series(h)."""
    r = t_series_pole_order(h)
    t = t_series(h)
    if t.valuation != -r or t.coefficient(-r) != 1:
        raise AssertionError(f"T_{h} does not start with q^-{r}")
    c0 = t.coefficient(0)
    if c0 == 0:
        raise DegenerateConstantTerm(f"constant term of T_{h} vanished")
    return [-t.coefficient(-j) / c0 for j in range(1, r + 1)]


# -- Laurent series inverse and powers -----------------------------------------

def series_shift(s: LaurentSeries, k: int) -> LaurentSeries:
    """s * q^k."""
    return LaurentSeries(s.valuation + k, list(s.coeffs), s.precision + k)


def series_invert(s: LaurentSeries) -> LaurentSeries:
    """1/s by the recursive coefficient formula.

    Needs a nonzero leading coefficient; the result keeps the same
    relative precision (absolute precision p - 2v for valuation v).
    """
    if s.is_zero():
        raise ZeroDivisionError("cannot invert a series with no known terms")
    rel = s.precision - s.valuation
    a0 = s.coeffs[0]
    inv = [Fraction(1) / a0]
    for n in range(1, rel):
        acc = Fraction(0)
        for i in range(1, n + 1):
            ai = s.coeffs[i] if i < len(s.coeffs) else Fraction(0)
            if ai:
                acc += ai * inv[n - i]
        inv.append(-acc / a0)
    return LaurentSeries(-s.valuation, inv, -s.valuation + rel)


def series_power(s: LaurentSeries, n: int) -> LaurentSeries:
    """s^n by repeated squaring (through 1/s for negative n)."""
    if n < 0:
        return series_power(series_invert(s), -n)
    rel = s.precision - s.valuation
    result = LaurentSeries(0, [Fraction(1)] + [Fraction(0)] * (rel - 1), rel)
    base = s
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


# -- conductors of cyclic fields by their factorization ---------------------------

def cyclic_conductor_by_factorization(p: int, f: int) -> bool:
    """Whether f is the conductor of some real cyclic degree-p field (p
    an odd prime): v_p(f) is 0 or 2, and every other prime factor is
    simple and = 1 mod p."""
    if f < 3:
        return False
    for q, e in factor_by_trial_division(f):
        if q == p:
            if e != 2:
                return False
        elif e != 1 or (q - 1) % p != 0 or q == 2:
            return False
    return True


# -- Galois orbits and local coordinates ----------------------------------------

def conjugates(chi: DirichletCharacter) -> tuple[DirichletCharacter, ...]:
    """The Galois conjugates chi^i, gcd(i, order) = 1, i = 1 first, by
    scaling chi's exponents."""
    n = chi.order
    return tuple(
        DirichletCharacter.from_values(chi.modulus, n, {a: e * i % n for a, e in chi.units()})
        for i in range(1, n + 1)
        if gcd(i, n) == 1
    )


def galois_orbits(chars) -> list[CharacterOrbit]:
    """Partition a Galois-stable set of characters into its orbits, each
    represented by its member whose exponents, in residue order, are
    smallest."""
    orbits: list[CharacterOrbit] = []
    seen: set = set()
    for chi in sorted(chars, key=lambda c: sorted(c.units())):
        if chi in seen:
            continue
        seen.update(conjugates(chi))
        orbits.append(CharacterOrbit(chi))
    return orbits


@lru_cache(maxsize=None)
def primitive_orbits_by_sorting(f: int, p: int) -> tuple[CharacterOrbit, ...]:
    """The Galois orbits of the order-p characters of conductor exactly
    f, found by building every character mod f of order dividing p and
    sorting them: the numbering primitive_orbits_of_order must keep."""
    chars = characters_of_order_dividing(f, p)
    return tuple(galois_orbits(c for c in chars if c.order == p and c.conductor() == f))


def local_coordinates(chi: DirichletCharacter, n: int) -> tuple:
    """chi at local generators, as ((q, g), e) pairs with e != 0: for
    each q^d exactly dividing the modulus m and generator g of (Z/q^d)^*
    (a primitive root mod q^2 for odd q; -1 and 5 for q = 2),
    chi(x) = zeta_n^e for x = g mod q^d, x = 1 mod m/q^d (n a multiple
    of chi.order).  The generators do not depend on m, so chi and its
    primitive part agree and a product of characters adds coordinates."""
    out = []
    m = chi.modulus
    table = exponent_table(chi)
    for q, e in factor_by_trial_division(m):
        qe = q**e
        rest = m // qe
        for g in ((-1, 5) if q == 2 else (_primitive_root(q),)):
            x = (1 + rest * ((g - 1) * pow(rest, -1, qe) % qe)) % m
            exponent = table[x] * (n // chi.order) % n
            if exponent:
                out.append(((q, g), exponent))
    return tuple(out)


def character_product(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    """a * b (equal moduli), by adding the two characters' exponents at
    every unit over the lcm of their orders."""
    n = lcm(a.order, b.order)
    table = exponent_table(b)
    return DirichletCharacter.from_values(
        a.modulus,
        n,
        {u: e * (n // a.order) + table[u] * (n // b.order) for u, e in a.units()},
    )


def orbit_key(coords, p: int) -> tuple:
    """The Galois orbit of an order-p character (p prime) from its
    ((q, g), exponent) coordinates, where repeated generators add (the
    coordinates of a product): the sorted nonzero coordinates mod p
    scaled so that the first is 1 (the trivial character gives ())."""
    total: dict[tuple[int, int], int] = {}
    for g, x in coords:
        total[g] = (total.get(g, 0) + x) % p
    items = sorted((g, x) for g, x in total.items() if x)
    if not items:
        return ()
    scale = pow(items[0][1], -1, p)
    return tuple((g, x * scale % p) for g, x in items)


def primitive_orbit_index(key, p: int) -> tuple[int, int]:
    """(f, i): the conductor of the even order-p orbit with this
    orbit_key and its index in primitive_orbits_of_order(f, p), found
    among _primitive_orbit_coordinates(f, p) without building characters
    mod f (for p = 2 there is one orbit per conductor)."""
    f = _conductor_of(key, p)
    if p == 2:
        return f, 0
    keys = [orbit_key(coords, p) for coords in _primitive_orbit_coordinates(f, p)]
    return f, keys.index(key)


def closed_under_products(coords, p: int) -> bool:
    """Whether the orbits of order-p characters with these coordinates
    are closed under products, pair by pair: every chi_a * chi_b^e of
    two of them lies in one of them.  This is the check Elementary made
    before it compared one rank over F_p."""
    keys = [orbit_key(c, p) for c in coords]
    return all(
        orbit_key(a + tuple((g, e * x) for g, x in b), p) in keys
        for i, a in enumerate(keys)
        for b in keys[i + 1:]
        for e in range(1, p)
    )


def galois_norm_by_conjugates(lift: list[int]) -> list[int]:
    """The product of sigma_i(lift) over the units i mod n = len(lift),
    one conjugate at a time, as orbit_l_product took it before it
    doubled along the local generators."""
    n = len(lift)
    total = lift
    for i in range(2, n):
        if gcd(i, n) == 1:
            total = _cyclic_product(total, _conjugate(lift, i))
    return total


# -- characters read off their values at every unit ------------------------------

def exponent_table(chi: DirichletCharacter) -> dict[int, int]:
    """chi's exponent at every unit, as chi.units() walks them, in a
    table for checks that look values up.  Build it once per character;
    the package itself keeps no such table."""
    return dict(chi.units())


def walked_values(chi: DirichletCharacter) -> dict[int, int]:
    """chi's exponent at every unit mod m, found by walking (Z/mZ)^* from
    1 along the lifts x of the local generators, stepping the exponent
    by chi's coordinate at x (0 at generators it does not list)."""
    m = chi.modulus
    at = dict(chi.coords)
    steps = [(x, at.get(g, 0)) for g, _, _, x in _local_generators(m)]
    values = {1 % m: 0}
    frontier = [1 % m]
    while frontier:
        a = frontier.pop()
        for x, c in steps:
            b = a * x % m
            if b not in values:
                values[b] = (values[a] + c) % chi.order
                frontier.append(b)
    return values


@lru_cache(maxsize=None)
def unit_group_dlogs(m: int):
    """Cyclic decomposition of (Z/mZ)^* with discrete-log tables, the
    way the package once tabled it for every modulus.

    Returns (gens, units): units are the residues in [0, m) prime to m,
    in increasing order ([0] for m = 1), and gens lists (x, order, dlog)
    for each of the _local_generators(m), in their order, where dlog
    maps each unit to its exponent along x.  A unit mod 2^e is -1 to the
    power (u mod 4) // 2 times a power of 5."""
    units = [0] if m == 1 else [a for a in range(1, m) if gcd(a, m) == 1]
    gens = []
    for (q, g), qe, order, x in _local_generators(m):
        if g == -1:
            dlog = {u: u % 4 // 2 for u in units}
        else:
            powers = {}
            y = 1
            for i in range(order):
                powers[y] = i
                y = y * g % qe
            if q == 2:
                powers.update({qe - r: i for r, i in powers.items()})
            dlog = {u: powers[u % qe] for u in units}
        gens.append((x, order, dlog))
    return gens, units


def dlog_values(chi: DirichletCharacter) -> dict[int, int]:
    """chi's exponent at every unit, in increasing order, as the sum of
    its coordinates times the unit's discrete logs (unit_group_dlogs)."""
    gens, units = unit_group_dlogs(chi.modulus)
    at = dict(chi.coords)
    terms = [
        (at.get(g, 0), dlog)
        for (g, *_), (_, _, dlog) in zip(_local_generators(chi.modulus), gens)
    ]
    return {u: sum(c * dlog[u] for c, dlog in terms) % chi.order for u in units}


def conductor_by_divisors(chi: DirichletCharacter) -> int:
    """The least divisor f of the modulus with chi(a) = 1 at every unit
    a = 1 mod f."""
    table = exponent_table(chi)
    for f in divisors(chi.modulus):
        if all(e == 0 for a, e in table.items() if a % f == 1 % f):
            return f
    raise AssertionError("the modulus itself always qualifies")


def primitive_part_by_units(chi: DirichletCharacter) -> DirichletCharacter:
    """The character mod f = conductor_by_divisors(chi) inducing chi: at
    each unit b mod f, chi's value at the least a = b mod f prime to
    the modulus."""
    f, m = conductor_by_divisors(chi), chi.modulus
    table = exponent_table(chi)
    exps = {}
    for b in range(f):
        if gcd(b, f) == 1:
            a = b if b else 1
            while gcd(a, m) != 1:
                a += f
            exps[b] = table[a % m]
    return DirichletCharacter.from_values(f, chi.order, exps)


def kronecker_character_by_units(d: int) -> DirichletCharacter:
    """a -> (d|a) as a character mod |d|, its value taken at every unit."""
    m = abs(d)
    exps = {a: int(kronecker(d, a if a else 1) < 0) for a in range(m) if gcd(a, m) == 1}
    return DirichletCharacter.from_values(m, 2, exps)


# -- power sums by enumeration --------------------------------------------------

def e_sum_brute_force(m: int, j: int) -> int:
    """Direct triple-loop enumeration of b^2 + 4ac = m; the oracle
    against which e_sum is checked."""
    total = 0
    for a in range(1, m + 1):
        for c in range(1, m + 1):
            rem = m - 4 * a * c
            if rem < 0:
                break
            b = isqrt(rem)
            if b * b == rem:
                total += a**j * (1 if b == 0 else 2)
    return total


def chi_weighted_sum(d: int, l: int, k: int) -> int:
    """sum over m | l of (D|m) * m^(2k-1) * e_{2k-1}((l/m)^2 * D): the
    inner sum of zeta_quadratic as the paper indexes it, before the
    reindexing l = s*m that reads each power sum once."""
    check_discriminant(d)
    j = 2 * k - 1
    return sum(kronecker(d, m) * m**j * e_sum((l // m) ** 2 * d, j) for m in divisors(l))


# -- closed forms for quadratic K_2 and K_6 -----------------------------------

def quadratic_k2_closed_form(d: int) -> int:
    """|K_2| of a real quadratic field: (4/5) e_1(8) over Q(sqrt 2),
    2 e_1(5) over Q(sqrt 5), (2/5) e_1(D) otherwise."""
    check_discriminant(d)
    if d == 8:
        value = Fraction(4, 5) * e_sum(8, 1)
    elif d == 5:
        value = Fraction(2 * e_sum(5, 1))
    else:
        value = Fraction(2, 5) * e_sum(d, 1)
    return _as_positive_int(value, f"closed-form |K_2| for D={d}")


def quadratic_k6_closed_form(d: int) -> int:
    """|K_6| of a real quadratic field: e_3(8) over Q(sqrt 2), else
    e_3(D)/2."""
    check_discriminant(d)
    if d == 8:
        value = Fraction(e_sum(8, 3))
    else:
        value = Fraction(e_sum(d, 3), 2)
    return _as_positive_int(value, f"closed-form |K_6| for D={d}")
