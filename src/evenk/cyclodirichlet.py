"""Exact cyclotomic arithmetic and Dirichlet characters.

Elements of Q(zeta_n) are polynomials reduced modulo the n-th
cyclotomic polynomial, held as integer numerators over one common
denominator; they carry only what L-values need (products, Galois
conjugates, the rational value of a norm).  A Dirichlet character is
its local coordinates: its values, as root-of-unity exponents, at the
local generators of (Z/mZ)^*, which determine it (Washington,
Introduction to Cyclotomic Fields, ch. 3).  Its exponent at every unit
is walked once from those values, by multiplying out the powers of the
generators' lifts, so the sums of L-values stay in integer arithmetic;
expansion into a CyclotomicElement happens only when a generalized
Bernoulli number or an L-value is assembled.

A field's characters are built one per Galois orbit, from the orbit's
coordinates (CharacterOrbit.of).  Coordinates are checked in O(rank):
each must be killed by its generator's order, and that is the whole
homomorphism condition.  A map of values, as a character file gives,
is checked once, at that boundary (DirichletCharacter.from_values): it
must be the character its values at the generators give, that is, a
linear form in the discrete logs of the cyclic decomposition of
(Z/mZ)^*; comparing it with that character's walked exponents costs
O(phi(m)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm

from .arith import bernoulli, factor_small, is_prime, kronecker, valuation
from .siegel import is_kronecker_discriminant
from .values import Value
from .winv import cyclic_conductor_is_valid


class NotRational(ArithmeticError):
    """A cyclotomic element expected to be rational is not."""


class ImprimitiveCharacter(ValueError):
    """Operation requires a primitive character."""


class CharacterFileError(ValueError):
    """A character file is malformed or describes a non-character."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factor_small(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


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


class CyclotomicElement:
    """An element of Q(zeta_n): phi(n) rational coordinates in the
    power basis 1, zeta, ..., zeta^(phi(n)-1).

    The coordinates are stored as integer numerators `_num` over one
    positive common denominator `_den`, in lowest terms (the gcd of
    `_den` and every numerator is 1), so equal elements of one field
    have equal fields and arithmetic never builds a Fraction.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}")
        den = lcm(*(c.denominator for c in coeffs))
        self.order = order
        self._num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den = den

    @classmethod
    def _make(cls, order: int, num, den: int) -> CyclotomicElement:
        """The element with coordinates num[i] / den (den != 0), brought
        to lowest terms."""
        g = gcd(den, *num)
        if den < 0:
            g = -g
        self = object.__new__(cls)
        self.order = order
        self._num = tuple(num) if g == 1 else tuple(c // g for c in num)
        self._den = den // g
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as rationals."""
        return tuple(Fraction(c, self._den) for c in self._num)

    def __repr__(self) -> str:
        return f"CyclotomicElement(order={self.order}, coeffs={self.coeffs})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return (self.order, self._den, self._num) == (other.order, other._den, other._num)

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __mul__(self, other) -> CyclotomicElement:
        """The product with a rational scalar or an element of the same field."""
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            p = other.numerator
            return CyclotomicElement._make(
                self.order, [a * p for a in self._num], self._den * other.denominator
            )
        if self.order != other.order:
            raise ValueError(f"order mismatch ({self.order} vs {other.order})")
        raw = [0] * (len(self._num) + len(other._num) - 1)
        for i, a in enumerate(self._num):
            if a:
                for j, b in enumerate(other._num, i):
                    if b:
                        raw[j] += a * b
        return CyclotomicElement._make(
            self.order,
            _reduce_mod_cyclotomic(raw, self.order),
            self._den * other._den,
        )

    def conjugate(self, i: int) -> CyclotomicElement:
        """sigma_i(self), where sigma_i is the automorphism of
        Q(zeta_order) with zeta -> zeta^i; needs gcd(i, order) = 1."""
        n = self.order
        if gcd(i, n) != 1:
            raise ValueError(f"{i} is not a unit mod {n}")
        raw = [0] * n
        for j, a in enumerate(self._num):
            raw[i * j % n] = a
        return CyclotomicElement._make(n, _reduce_mod_cyclotomic(raw, n), self._den)

    def as_rational(self) -> Fraction:
        if any(self._num[1:]):
            raise NotRational(f"element of Q(zeta_{self.order}) is irrational")
        return Fraction(self._num[0], self._den)


def _reduce_mod_cyclotomic(raw: list[int], order: int) -> list[int]:
    """Remainder of the integer polynomial `raw` (constant term first)
    modulo the monic Phi_order, after folding exponents with
    zeta^order = 1; `raw` may be overwritten."""
    phi = euler_phi(order)
    if len(raw) > order:
        folded = raw[:order]
        for k in range(order, len(raw)):
            folded[k % order] += raw[k]
        raw = folded
    mod = cyclotomic_polynomial(order)
    for i in range(len(raw) - 1, phi - 1, -1):
        c = raw[i]
        if c:
            base = i - phi
            for j in range(phi):
                if mod[j]:
                    raw[base + j] -= c * mod[j]
    if len(raw) < phi:
        return raw + [0] * (phi - len(raw))
    del raw[phi:]
    return raw


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


class DirichletCharacter:
    """A character of (Z/mZ)^*, held as its local coordinates: ((q, g), c)
    pairs meaning chi(x) = zeta_order^c at the lift x of the local
    generator (q, g) (see _local_generators), and chi(x) = 1 at the
    lifts of the others.

    A coordinate must be killed by its generator's order o
    (c * o = 0 mod order), which is the whole homomorphism condition,
    so construction checks it in O(rank); a coordinate that fails, or
    that names no local generator of m, or twice, raises ValueError.
    The stated order is divided by gcd(order, *c), so the stored order
    is exact, and only the nonzero coordinates are kept, in
    _local_generators order: equal characters have equal fields.  The
    exponent at every unit is walked once: from {1: 0}, each generator's
    lift x of order o multiplies every unit reached so far by x^j,
    j < o, and adds j * c to its exponent.  The table is kept in residue
    order.  A map of values goes through from_values.
    """

    __slots__ = ("modulus", "order", "coords", "_exp")

    def __init__(self, modulus: int, order: int, coords=()):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if order < 1:
            raise ValueError("order must be >= 1")
        coords = tuple(coords)
        at = dict(coords)
        if len(at) != len(coords):
            raise ValueError(f"a generator is given twice in {coords}")
        gens = _local_generators(modulus)
        lifts = {g: (o, x) for g, _, o, x in gens}
        for g, c in coords:
            if g not in lifts:
                raise ValueError(f"{g} is not a local generator mod {modulus}")
            o, x = lifts[g]
            if c * o % order:
                raise ValueError(f"chi({x})^{o} != 1, but {x} has order {o} mod {modulus}")
        d = gcd(order, *at.values())
        n = order // d
        kept = []
        exp = {1 % modulus: 0}
        for g, _, o, x in gens:
            c = at.get(g, 0) // d % n
            if c:
                kept.append((g, c))
            for u in list(exp):
                e = exp[u]
                for _ in range(o - 1):
                    u = u * x % modulus
                    e = (e + c) % n
                    exp[u] = e
        self.modulus = modulus
        self.order = n
        self.coords = tuple(kept)
        self._exp = {u: exp[u] for u in sorted(exp)}

    @classmethod
    def from_values(
        cls, modulus: int, order: int, value_exponents: dict[int, int]
    ) -> DirichletCharacter:
        """The character with chi(a) = zeta_order^value_exponents[a] at
        each unit a in [0, modulus): its values at the lifts of the
        local generators are its coordinates, and _check_homomorphism
        holds the map to the character they give, in O(phi(m)) once
        the units are walked.  A map that does not cover exactly the
        units (those the trivial character mod m walks), or is no
        homomorphism, raises ValueError.  This is the only path that
        takes values."""
        if modulus < 1 or order < 1:
            raise ValueError("modulus and order must be >= 1")
        # phi(m) >= sqrt(m / 2), so a map too short for its modulus is
        # rejected before m is factored or its units are walked
        count = len(value_exponents)
        if (
            2 * count * count < modulus
            or count != euler_phi(modulus)
            or value_exponents.keys() != cls(modulus, 1)._exp.keys()
        ):
            raise ValueError("residues must be exactly the units mod m")
        coords = [(g, value_exponents[x]) for g, _, _, x in _local_generators(modulus)]
        chi = cls(modulus, order, coords)
        _check_homomorphism(chi, order, value_exponents)
        return chi

    def __repr__(self) -> str:
        return (
            f"DirichletCharacter(modulus={self.modulus}, order={self.order}, "
            f"coords={self.coords})"
        )

    def _key(self) -> tuple:
        return self.modulus, self.order, self.coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def exponent(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta_order^e, or None when
        gcd(a, modulus) > 1 (i.e. chi(a) = 0)."""
        return self._exp.get(a % self.modulus)

    def exponent_items(self) -> tuple[tuple[int, int], ...]:
        """(residue, exponent) pairs in residue order."""
        return tuple(self._exp.items())

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_even(self) -> bool:
        if self.modulus <= 2:
            return True
        return self._exp[self.modulus - 1] == 0

    def conductor(self) -> int:
        """Smallest modulus f through which chi factors: the lcm, over
        the coordinates, of 4 for a value at -1, 4 o for a value of
        order o at 5, and q^(1 + v_q(o)) at an odd q."""
        f = 1
        for (q, g), c in self.coords:
            o = self.order // gcd(self.order, c)
            f = lcm(f, 4 if g == -1 else 4 * o if q == 2 else q ** (1 + valuation(o, q)))
        return f

    def primitive_part(self) -> DirichletCharacter:
        """The primitive character mod conductor(chi) inducing chi: the
        same coordinates, at the local generators mod the conductor."""
        f = self.conductor()
        return self if f == self.modulus else DirichletCharacter(f, self.order, self.coords)

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus


def _primitive_root(q: int) -> int:
    """A primitive root mod q^2, and so mod every q^e, for odd prime q."""
    phi = q - 1
    prime_parts = [p for p, _ in factor_small(phi)]
    g = 2
    while True:
        if all(pow(g, phi // p, q) != 1 for p in prime_parts):
            break
        g += 1
    if pow(g, q - 1, q * q) == 1:
        g += q
    return g


def _local_generators(m: int) -> list[tuple[tuple[int, int], int, int, int]]:
    """The local generators of (Z/mZ)^*, as ((q, g), q^e, order, x) for
    each q^e exactly dividing m: g generates (Z/q^e)^* (a primitive root
    mod q^2 for odd q; -1 and 5 for q = 2), order is its order mod q^e,
    and x is g lifted by CRT to 1 modulo m / q^e.  Generators of order 1
    (5 when 8 does not divide m, -1 when 4 does not) are left out."""
    out = []
    for q, e in factor_small(m):
        qe = q**e
        rest = m // qe
        if q == 2:
            local = [(-1, 2), (5, qe // 4)][: e - 1]
        else:
            local = [(_primitive_root(q), euler_phi(qe))]
        for g, order in local:
            x = (1 + rest * ((g - 1) * pow(rest, -1, qe) % qe)) % m
            out.append(((q, g), qe, order, x))
    return out


def _check_homomorphism(chi: DirichletCharacter, n: int, exps: dict[int, int]) -> None:
    """Raise ValueError unless a -> exps[a] (mod n) is chi, the character
    read off exps at the lifts of the local generators.

    With b_i the generator of component i, of order o_i, and
    t_i = exps[b_i], the map is a homomorphism iff o_i * t_i = 0 (mod n)
    for every i, which DirichletCharacter checks, and
    exps[u] = sum_i t_i * dlog_i(u) (mod n) for every unit u, which is
    chi's walked exponent at u (Washington, Introduction to Cyclotomic
    Fields, ch. 3).  Costs O(phi(m)) once chi is built; the first
    failing unit in residue order is reported.
    """
    scale = n // chi.order
    for u, e in chi.exponent_items():
        if (e * scale - exps[u]) % n:
            raise ValueError(
                f"multiplicativity fails at {u} mod {chi.modulus}: chi({u}) disagrees "
                "with the generators' values"
            )


def characters_of_order_dividing(m: int, p: int) -> list[DirichletCharacter]:
    """The subgroup of characters mod m whose order divides p, built
    from their coordinates: chi(x) = zeta_n^c at each generator of
    order o, where n is the lcm of the gcd(o, p) and c runs over the
    multiples of n / gcd(o, p)."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    gens = _local_generators(m)
    n = lcm(1, *(gcd(order, p) for _, _, order, _ in gens))
    choices = [range(0, n, n // gcd(order, p)) for _, _, order, _ in gens]
    labels = [g for g, *_ in gens]
    return [DirichletCharacter(m, n, zip(labels, c)) for c in product(*choices)]


def character_group(m: int) -> list[DirichletCharacter]:
    """All phi(m) Dirichlet characters mod m."""
    if m < 1:
        raise ValueError("character_group requires m >= 1")
    return characters_of_order_dividing(m, euler_phi(m))


def kronecker_coordinates(d: int) -> tuple:
    """The Kronecker symbol (d|.) in local coordinates mod |d|: ((q, g), 1)
    at each local generator whose lift x has (d|x) = -1.  Only for d = 1
    and fundamental discriminants of either sign is (d|.) a character
    mod |d|; any other d is rejected."""
    if not is_kronecker_discriminant(d):
        raise ValueError(f"{d} is not 1 or a fundamental discriminant")
    return tuple((g, 1) for g, _, _, x in _local_generators(abs(d)) if kronecker(d, x) < 0)


@lru_cache(maxsize=None)
def quadratic_character(d: int) -> DirichletCharacter:
    """The Kronecker character a -> (d|a), as a character mod |d|, for a
    fundamental discriminant d (or d = 1)."""
    return DirichletCharacter(abs(d), 2, kronecker_coordinates(d))


class CharacterOrbit(Value):
    """The Galois orbit {chi^i : gcd(i, order) = 1} of a character,
    held as its representative chi."""

    __slots__ = ("representative",)
    representative: DirichletCharacter

    @classmethod
    @lru_cache(maxsize=None)
    def of(cls, m: int, coords, n: int) -> CharacterOrbit:
        """The orbit of DirichletCharacter(m, n, coords).  Memoized, so a
        field queried at several k builds each of its orbits once."""
        return cls(DirichletCharacter(m, n, coords))


@lru_cache(maxsize=None)
def _primitive_orbit_coordinates(f: int, p: int) -> tuple[tuple, ...]:
    """For each Galois orbit of the order-p characters of conductor
    exactly f (p an odd prime, f such a conductor), the coordinates
    ((q, g), c) of its first member at the local generators of
    _local_generators(f), in index order: the characters sorted by
    their exponents at the units 2, 3, ... mod f, each orbit placed
    where its first member falls.  The exponent at a is
    sum_q c_q log_q(a) mod p, read off a^(phi(q^e)/p) mod q^e; the units
    are walked only until the characters all differ."""
    logs = []
    for (q, g), qe, order, _ in _local_generators(f):
        step = order // p
        h = pow(g, step, qe)
        logs.append(((q, g), qe, step, [pow(h, j, qe) for j in range(p)]))
    chars = list(product(range(1, p), repeat=len(logs)))
    prefixes: list[list[int]] = [[] for _ in chars]
    a = 1
    while len(set(map(tuple, prefixes))) < len(chars):
        a += 1
        if gcd(a, f) == 1:
            ls = [powers.index(pow(a, step, qe)) for _, qe, step, powers in logs]
            for c, prefix in zip(chars, prefixes):
                prefix.append(sum(x * y for x, y in zip(c, ls)) % p)
    firsts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for _, c in sorted(zip(prefixes, chars)):
        scale = pow(c[0], -1, p)
        firsts.setdefault(tuple(x * scale % p for x in c), c)
    return tuple(
        tuple((g, x) for (g, *_), x in zip(logs, c)) for c in firsts.values()
    )


def primitive_orbits_of_order(f: int, p: int) -> tuple[CharacterOrbit, ...]:
    """Galois orbits of the order-p characters with conductor exactly f,
    for an odd prime p (empty when f is not such a conductor), each
    built from its _primitive_orbit_coordinates: orbit i is the i-th in
    the order of its members' exponents at the units 2, 3, ... mod f.
    The field specs build only their own orbit; this builds all."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"primitive_orbits_of_order needs an odd prime, got {p}")
    if not cyclic_conductor_is_valid(p, f):
        return ()
    return tuple(CharacterOrbit.of(f, c, p) for c in _primitive_orbit_coordinates(f, p))


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
    primes = sorted({q for (q, _), _ in key})
    f = 1
    for q in primes:  # for p = 2, a character moving 5 has 2-part 8, else 4
        f *= (8 if ((2, 5), 1) in key else 4) if q == 2 else q * q if q == p else q
    if p == 2:
        return f, 0
    keys = [orbit_key(coords, p) for coords in _primitive_orbit_coordinates(f, p)]
    return f, keys.index(key)


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and L-values
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_poly_int_coeffs(n: int, f: int) -> tuple[tuple[int, ...], int]:
    """Integers (c_0..c_n, d) with d * f^(n-1) * B_n(a/f) =
    (1/f) * sum_i c_i a^(n-i), i.e. the numerator polynomial of the
    generalized Bernoulli summand, evaluated by Horner."""
    bs = [bernoulli(i) for i in range(n + 1)]
    d = lcm(*(b.denominator for b in bs))
    coeffs = tuple(
        comb(n, i) * (b.numerator * (d // b.denominator)) * f**i
        for i, b in enumerate(bs)
    )
    return coeffs, d


def gen_bernoulli(chi: DirichletCharacter, n: int) -> CyclotomicElement:
    """Generalized Bernoulli number B_{n,chi} for primitive chi:

        B_{n,chi} = f^(n-1) * sum_{a=1..f} chi(a) B_n(a/f).

    Exact, as an element of Q(zeta_order).  Imprimitive input is
    rejected: the same sum over a non-minimal modulus is a different
    (Euler-factor-deflated) quantity.  The summands, one per unit a in
    1..f, are added in integers, one bucket per root of unity, and
    reduced once.
    """
    if n < 1:
        raise ValueError("gen_bernoulli requires n >= 1")
    if not chi.is_primitive():
        raise ImprimitiveCharacter(
            f"character mod {chi.modulus} has conductor {chi.conductor()}"
        )
    f = chi.modulus
    coeffs, d = _bernoulli_poly_int_coeffs(n, f)
    buckets = [0] * chi.order
    for a, e in chi.exponent_items():
        a = a or f  # residue 0 is a unit only for f = 1, where a runs to f
        acc = 0
        for c in coeffs:
            acc = acc * a + c
        buckets[e] += acc
    return CyclotomicElement._make(
        chi.order, _reduce_mod_cyclotomic(buckets, chi.order), d * f
    )


def l_value(chi: DirichletCharacter, k: int) -> CyclotomicElement:
    """L(chi, 1-2k) = -B_{2k,chi} / (2k) for a primitive even chi."""
    if k < 1:
        raise ValueError("l_value requires k >= 1")
    if not chi.is_even():
        raise ValueError("odd characters do not belong to totally real fields")
    return gen_bernoulli(chi, 2 * k) * Fraction(-1, 2 * k)


def orbit_l_product(orbit: CharacterOrbit, k: int) -> Fraction:
    """Product of L(chi^i, 1-2k) over the orbit; Galois-stable, so the
    result must be rational (NotRational signals an arithmetic bug).

    L(chi^i, 1-2k) is sigma_i(L(chi, 1-2k)) for the automorphism
    zeta -> zeta^i, so one generalized Bernoulli number per orbit
    suffices; each conjugate only permutes the powers of zeta.
    """
    chi = orbit.representative
    if chi.is_trivial():
        raise ValueError("orbit_l_product requires a nontrivial orbit")
    value = l_value(chi.primitive_part(), k)
    total = value
    for i in range(2, chi.order):
        if gcd(i, chi.order) == 1:
            total = total * value.conjugate(i)
    return total.as_rational()


# ---------------------------------------------------------------------------
# Character files
# ---------------------------------------------------------------------------


def parse_character_file(path) -> list[DirichletCharacter]:
    """Read characters from a UTF-8 JSON file.

    One object per file: {"modulus": m, "order": n, "values":
    [[a, e], ...]} where the pairs list every residue coprime to m in
    increasing order and chi(a) = zeta_n^e with 0 <= e < n.  Every
    number must be a JSON integer (not a float, string or boolean).
    """
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CharacterFileError(f"cannot read character file: {exc}") from exc
    if not isinstance(data, dict):
        raise CharacterFileError("top-level JSON object expected")
    try:
        m, n, values = data["modulus"], data["order"], data["values"]
    except KeyError as exc:
        raise CharacterFileError(f"missing or bad field: {exc}") from exc
    if type(m) is not int or type(n) is not int:
        raise CharacterFileError("modulus and order must be integers")
    if m < 1 or n < 1:
        raise CharacterFileError("modulus and order must be positive")
    if not isinstance(values, list):
        raise CharacterFileError("values must be a list of [residue, exponent]")
    seen: dict[int, int] = {}
    for item in values:
        if not isinstance(item, list) or len(item) != 2 or any(type(x) is not int for x in item):
            raise CharacterFileError(f"bad value entry {item!r}")
        a, e = item
        if not 0 <= e < n:
            raise CharacterFileError(f"exponent {e} out of range for order {n}")
        if a in seen:
            raise CharacterFileError(f"duplicate residue {a}")
        seen[a] = e
    if list(seen) != sorted(seen):
        raise CharacterFileError("residues must be listed in increasing order")
    try:
        return [DirichletCharacter.from_values(m, n, seen)]
    except ValueError as exc:
        raise CharacterFileError(str(exc)) from exc
