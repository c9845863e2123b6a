"""Exact cyclotomic arithmetic and Dirichlet characters.

Elements of Q(zeta_n) are polynomials reduced modulo the n-th
cyclotomic polynomial, held as integer numerators over one common
denominator; they carry only what L-values need (products, Galois
conjugates, the rational value of a norm).  Dirichlet characters store
their values as root-of-unity exponents, so the character check and
equality stay in integer arithmetic; expansion into a
CyclotomicElement happens only when a generalized Bernoulli number or
an L-value is assembled.

A field's characters are built one per Galois orbit, from the orbit's
coordinates at the local generators of (Z/mZ)^* (CharacterOrbit.of).
Every character, whether read from a file or built here (from local
coordinates, powers, products, primitive parts, Kronecker characters,
discrete-log tuples), passes the same check at construction: its
exponents must be a linear form in the discrete logs of the cyclic
decomposition of (Z/mZ)^*, whose generator values are killed by the
component orders.  That is exactly multiplicativity, at
O(phi(m) * rank) cost.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm

from .arith import bernoulli, divisors, factor_small, is_prime
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


def _canonical_units(m: int) -> list[int]:
    """Unit residues of Z/mZ as the integers a in [1, m] with
    gcd(a, m) = 1, reduced mod m (so m = 1 yields [0])."""
    if m == 1:
        return [0]
    return [a for a in range(1, m) if gcd(a, m) == 1]


class DirichletCharacter:
    """A character of (Z/mZ)^* with values recorded as exponents:
    chi(a) = zeta_order^exponent(a).

    The stored order is the exact multiplicative order of chi: a
    stated order that is a multiple of it is normalized down.  Complete
    multiplicativity is verified at construction against the
    discrete-log tables of _unit_group_data(modulus), in O(phi(m) *
    rank) (see _check_homomorphism); a map that fails raises
    ValueError.
    """

    __slots__ = ("modulus", "order", "_exp", "_conductor")

    def __init__(self, modulus: int, order: int, value_exponents: dict[int, int]):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if order < 1:
            raise ValueError("order must be >= 1")
        if sorted(value_exponents) != _canonical_units(modulus):
            raise ValueError("value map must cover exactly the units")
        exps = {a: e % order for a, e in value_exponents.items()}
        # normalize to the exact order of the character
        g = order
        for e in exps.values():
            g = gcd(g, e)
            if g == 1:
                break
        if g > 1:
            order //= g
            exps = {a: e // g for a, e in exps.items()}
        _check_homomorphism(modulus, order, exps)
        self.modulus = modulus
        self.order = order
        self._exp = exps
        self._conductor: int | None = None

    def __repr__(self) -> str:
        return (
            f"DirichletCharacter(modulus={self.modulus}, order={self.order}, "
            f"exponents={self._exp})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.order == other.order
            and self._exp == other._exp
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.order, tuple(sorted(self._exp.items()))))

    def exponent(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta_order^e, or None when
        gcd(a, modulus) > 1 (i.e. chi(a) = 0)."""
        return self._exp.get(a % self.modulus)

    def exponent_items(self) -> tuple[tuple[int, int], ...]:
        """(residue, exponent) pairs in residue order; a canonical key."""
        return tuple(sorted(self._exp.items()))

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_even(self) -> bool:
        if self.modulus <= 2:
            return True
        return self._exp[self.modulus - 1] == 0

    def __pow__(self, j: int) -> DirichletCharacter:
        j %= self.order
        return DirichletCharacter(
            self.modulus,
            self.order,
            {a: e * j % self.order for a, e in self._exp.items()},
        )

    def __mul__(self, other: DirichletCharacter) -> DirichletCharacter:
        if self.modulus != other.modulus:
            raise ValueError("character product needs equal moduli")
        n = lcm(self.order, other.order)
        return DirichletCharacter(
            self.modulus,
            n,
            {
                a: (e * (n // self.order) + other._exp[a] * (n // other.order)) % n
                for a, e in self._exp.items()
            },
        )

    def conductor(self) -> int:
        """Smallest modulus f through which chi factors."""
        if self._conductor is None:
            for f in divisors(self.modulus):
                if all(
                    e == 0 for a, e in self._exp.items() if a % f == 1 % f
                ):
                    self._conductor = f
                    break
        return self._conductor

    def primitive_part(self) -> DirichletCharacter:
        """The primitive character mod conductor(chi) inducing chi."""
        f = self.conductor()
        if f == self.modulus:
            return self
        exps: dict[int, int] = {}
        for b in _canonical_units(f):
            a = b if b else 1
            while gcd(a, self.modulus) != 1:
                a += f
            exps[b] = self._exp[a % self.modulus]
        return DirichletCharacter(f, self.order, exps)

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


@lru_cache(maxsize=None)
def _unit_group_data(m: int):
    """Cyclic decomposition of (Z/mZ)^* with discrete-log tables.

    Returns (gens, units) where gens lists (x, order, dlog) for each of
    the _local_generators(m), in their order, and dlog maps each unit
    residue mod m to its exponent along x; x has the basis vector as its
    dlogs.  A unit mod 2^e is -1 to the power (u mod 4) // 2 times a
    power of 5."""
    units = _canonical_units(m)
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


def _check_homomorphism(m: int, n: int, exps: dict[int, int]) -> None:
    """Raise ValueError unless a -> exps[a] (mod n) is a homomorphism
    from (Z/mZ)^* to Z/nZ.

    With b_i the generator of component i, of order o_i, and
    t_i = exps[b_i], the map is a homomorphism iff o_i * t_i = 0 (mod n)
    for every i and exps[u] = sum_i t_i * dlog_i(u) (mod n) for every
    unit u (Washington, Introduction to Cyclotomic Fields, ch. 3).
    Costs O(phi(m) * rank).
    """
    gens, units = _unit_group_data(m)
    t = [exps[b] for b, _, _ in gens]
    for (b, order, _), ti in zip(gens, t):
        if order * ti % n:
            raise ValueError(
                f"chi({b})^{order} != 1, but {b} has order {order} mod {m}"
            )
    for u in units:
        e = 0
        for (_, _, dlog), ti in zip(gens, t):
            e += ti * dlog[u]
        if (e - exps[u]) % n:
            raise ValueError(
                f"multiplicativity fails at {u} mod {m}: chi({u}) disagrees "
                "with the generators' values"
            )


def _character_from_tuple(m: int, t: tuple[int, ...]) -> DirichletCharacter:
    gens, units = _unit_group_data(m)
    if not gens:
        return DirichletCharacter(m, 1, {a: 0 for a in _canonical_units(m)})
    n = lcm(*(order for _, order, _ in gens))
    exps = {}
    for u in units:
        e = 0
        for (_, order, dlog), ti in zip(gens, t):
            e += ti * dlog[u] * (n // order)
        exps[u] = e % n
    return DirichletCharacter(m, n, exps)


def character_group(m: int) -> list[DirichletCharacter]:
    """All phi(m) Dirichlet characters mod m."""
    if m < 1:
        raise ValueError("character_group requires m >= 1")
    gens, _ = _unit_group_data(m)
    if not gens:
        return [DirichletCharacter(m, 1, {a: 0 for a in _canonical_units(m)})]
    ranges = [range(order) for _, order, _ in gens]
    return [_character_from_tuple(m, t) for t in product(*ranges)]


def characters_of_order_dividing(m: int, p: int) -> list[DirichletCharacter]:
    """The subgroup of characters mod m whose order divides p."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    gens, _ = _unit_group_data(m)
    if not gens:
        return [DirichletCharacter(m, 1, {a: 0 for a in _canonical_units(m)})]
    choices = []
    for _, order, _ in gens:
        step = order // gcd(order, p)
        choices.append(range(0, order, step))
    return [_character_from_tuple(m, t) for t in product(*choices)]


@lru_cache(maxsize=None)
def quadratic_character(d: int) -> DirichletCharacter:
    """The Kronecker character a -> (d|a), as a character mod |d|."""
    from .arith import kronecker

    m = abs(d)
    exps = {}
    for a in _canonical_units(m):
        v = kronecker(d, a if a else 1)
        exps[a] = 0 if v == 1 else 1
    order = 2 if any(exps.values()) else 1
    return DirichletCharacter(m, order, exps)


class CharacterOrbit(Value):
    """The Galois orbit {chi^i : gcd(i, order) = 1} of a character,
    held as its representative chi."""

    __slots__ = ("representative",)
    representative: DirichletCharacter

    @classmethod
    @lru_cache(maxsize=None)
    def of(cls, m: int, coords, n: int) -> CharacterOrbit:
        """The orbit of the character mod m with chi(x) = zeta_n^c at the
        lift x of each local generator (q, g) listed as ((q, g), c) in
        coords, and chi(x) = 1 at the others (see _local_generators).
        Memoized, so a field queried at several k builds each of its
        orbits once."""
        at = dict(coords)
        t = tuple(at.get(g, 0) * order // n for g, _, order, _ in _local_generators(m))
        return cls(_character_from_tuple(m, t))


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
    (Euler-factor-deflated) quantity.  The summands are added in
    integers, one bucket per root of unity, and reduced once.
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
    for a in range(1, f + 1):
        e = chi.exponent(a)
        if e is None:
            continue
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
    increasing order and chi(a) = zeta_n^e with 0 <= e < n.
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
        m = int(data["modulus"])
        n = int(data["order"])
        values = data["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CharacterFileError(f"missing or bad field: {exc}") from exc
    if m < 1 or n < 1:
        raise CharacterFileError("modulus and order must be positive")
    if not isinstance(values, list):
        raise CharacterFileError("values must be a list of [residue, exponent]")
    seen: dict[int, int] = {}
    listed = []
    for item in values:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) for x in item)
        ):
            raise CharacterFileError(f"bad value entry {item!r}")
        a, e = item
        if not 0 <= e < n:
            raise CharacterFileError(f"exponent {e} out of range for order {n}")
        if a in seen:
            raise CharacterFileError(f"duplicate residue {a}")
        seen[a] = e
        listed.append(a)
    if listed != sorted(listed):
        raise CharacterFileError("residues must be listed in increasing order")
    if sorted(seen) != _canonical_units(m):
        raise CharacterFileError("residues must be exactly the units mod m")
    try:
        chi = DirichletCharacter(m, n, seen)
    except ValueError as exc:
        raise CharacterFileError(str(exc)) from exc
    return [chi]
