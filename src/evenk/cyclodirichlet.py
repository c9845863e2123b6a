"""Dirichlet characters and the L-products of their Galois orbits.

A Dirichlet character is its local coordinates: its values, as
root-of-unity exponents, at the local generators of (Z/mZ)^*, which
determine it (Washington, Introduction to Cyclotomic Fields, ch. 3),
and nothing else is stored.  Its conductor, primitive part and parity
are read off them; its exponent at each unit is walked from them where
the units are summed, in O(rank) memory, so the sums of L-values stay
in integer arithmetic, and characters of prime order p are vectors
over F_p (basis_indices).  A generalized Bernoulli number B_{n,chi} is
held as a lift to the group ring Z[x]/(x^order - 1): one integer per
power of zeta_order, over one denominator.  An orbit's L-product, the
norm of L(chi, 1-2k) from Q(zeta_order) to Q, is doubled up in that
ring, where each Galois conjugate permutes the coordinates.

A field's characters are built one per Galois orbit, from the orbit's
coordinates (CharacterOrbit.of).  Coordinates are checked in O(rank):
each must be killed by its generator's order, and that is the whole
homomorphism condition.  A map of values, as a character file gives,
is checked once, at that boundary (DirichletCharacter.from_values),
against the character its values at the generators give, in O(phi(m))
time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, isqrt, lcm

from .arith import bernoulli, factor_small, factorize, is_prime, kronecker, valuation
from .siegel import is_kronecker_discriminant
from .values import Value


class NotRational(ArithmeticError):
    """An orbit's L-product, which must be rational, is not."""


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


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


class DirichletCharacter(Value):
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
    modulus, the order and the coordinates are all that is stored; the
    exponent at each unit is walked by units().  A map of values goes
    through from_values.
    """

    __slots__ = ("modulus", "order", "coords")

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
        coords = tuple((g, at[g] // d % n) for g, *_ in gens if at.get(g, 0) // d % n)
        super().__init__(modulus, n, coords)

    @classmethod
    def from_values(
        cls, modulus: int, order: int, value_exponents: dict[int, int]
    ) -> DirichletCharacter:
        """The character with chi(a) = zeta_order^value_exponents[a] at
        each unit a in [0, modulus): its values at the lifts of the
        local generators are its coordinates, and _check_homomorphism
        holds the map to the character they give, in O(phi(m)) time as
        its units are walked.  A map that does not cover exactly the
        units (phi(m) distinct residues in [0, m), each prime to m), or
        is no homomorphism, raises ValueError.  This is the only path
        that takes values."""
        if modulus < 1 or order < 1:
            raise ValueError("modulus and order must be >= 1")
        # phi(m) >= sqrt(m / 2), so a map too short for its modulus is
        # rejected before m is factored or its units are walked
        count = len(value_exponents)
        if (
            2 * count * count < modulus
            or count != euler_phi(modulus)
            or not all(0 <= a < modulus and gcd(a, modulus) == 1 for a in value_exponents)
        ):
            raise ValueError("residues must be exactly the units mod m")
        coords = [(g, value_exponents[x]) for g, _, _, x in _local_generators(modulus)]
        chi = cls(modulus, order, coords)
        _check_homomorphism(chi, order, value_exponents)
        return chi

    def units(self):
        """(u, e) for every unit u in [0, m), chi(u) = zeta_order^e, in no set
        order: the products of powers x^j (j below x's order) of the local
        generators' lifts x, e adding j times x's coordinate, with the
        largest order innermost.  Holds one step per generator."""
        m, n = self.modulus, self.order
        at = dict(self.coords)
        walk = iter([(1 % m, 0)])
        for o, x, c in sorted((o, x, at.get(g, 0)) for g, _, o, x in _local_generators(m)):
            walk = _times_powers(walk, o, x, c, m, n)
        return walk

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_even(self) -> bool:
        """chi(-1) = 1.  -1 is the lift of (2, -1) at 2 and g^(o/2) at an
        odd q (o = phi(q^e)), so a coordinate's value there is -1 when it
        sits at (2, -1), or at an odd q with an order (dividing o) that
        has the 2-part of o, that is, of q - 1."""
        odd = 0
        for (q, g), c in self.coords:
            o = self.order // gcd(self.order, c)
            odd += g == -1 or (q != 2 and (o & -o) == ((q - 1) & -(q - 1)))
        return odd % 2 == 0

    def conductor(self) -> int:
        """Smallest modulus f through which chi factors."""
        return _conductor_of(self.coords, self.order)

    def primitive_part(self) -> DirichletCharacter:
        """The primitive character mod conductor(chi) inducing chi: the
        same coordinates, at the local generators mod the conductor."""
        f = self.conductor()
        return self if f == self.modulus else DirichletCharacter(f, self.order, self.coords)

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus


def _times_powers(walk, o: int, x: int, c: int, m: int, n: int):
    """(u x^j, e + j c) for each (u, e) of walk and j < o, mod m and n."""
    for u, e in walk:
        for _ in range(o):
            yield u, e
            u = u * x % m
            e = (e + c) % n


def _conductor_of(coords, order: int) -> int:
    """The conductor of the character with these ((q, g), c) coordinates
    and values zeta_order^c: the lcm, over the coordinates, of 4 for a
    value at -1, 4 o for a value of order o at 5, and q^(1 + v_q(o)) at
    an odd q."""
    f = 1
    for (q, g), c in coords:
        o = order // gcd(order, c)
        f = lcm(f, 4 if g == -1 else 4 * o if q == 2 else q ** (1 + valuation(o, q)))
    return f


@lru_cache(maxsize=None)
def _primitive_root(q: int) -> int:
    """A primitive root mod q^2, and so mod every q^e, for odd prime q.
    ValueError names q when the default budget leaves q - 1 incomplete."""
    phi = q - 1
    # q came out of factor_small, so q < 3.3e24, below which is_prime is
    # exact: every prime factorize lists for q - 1 is proved
    whole = factorize(phi)
    if not whole.complete:
        raise ValueError(f"cannot find a primitive root mod {q}: q - 1 = {whole.format()}")
    prime_parts = [p for p, _ in whole.factored]
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
    Fields, ch. 3).  The smallest failing unit is reported."""
    scale = n // chi.order
    bad = min((u for u, e in chi.units() if (e * scale - exps[u]) % n), default=None)
    if bad is not None:
        raise ValueError(
            f"multiplicativity fails at {bad} mod {chi.modulus}: chi({bad}) disagrees "
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


@lru_cache(maxsize=None)
def kronecker_coordinates(d: int) -> tuple:
    """The Kronecker symbol (d|.) in local coordinates mod |d|: ((q, g), 1)
    at each local generator whose lift x has (d|x) = -1.  Only for d = 1
    and fundamental discriminants of either sign is (d|.) a character
    mod |d|; any other d is rejected."""
    if not is_kronecker_discriminant(d):
        raise ValueError(f"{d} is not 1 or a fundamental discriminant")
    return tuple((g, 1) for g, _, _, x in _local_generators(abs(d)) if kronecker(d, x) < 0)


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
    def of(cls, m: int, coords, n: int) -> CharacterOrbit:
        """The orbit of DirichletCharacter(m, n, coords), built in
        O(rank): nothing is worth keeping between queries."""
        return cls(DirichletCharacter(m, n, coords))


def cyclic_conductor_is_valid(p: int, f: int) -> bool:
    """Whether f is the conductor of some real cyclic degree-p field (p
    an odd prime): f >= 3, every local generator mod f has order
    divisible by p, and a character of order p that is nontrivial at
    each of them has conductor f."""
    if f < 3:
        return False
    gens = _local_generators(f)
    coords = [(g, 1) for g, *_ in gens]
    return all(o % p == 0 for _, _, o, _ in gens) and _conductor_of(coords, p) == f


def _subgroup_log(h: int, p: int, modulus: int):
    """x -> the j in [0, p) with h^j = x mod modulus, for h of prime
    order p: baby-step giant-step, in O(sqrt(p)) steps and memory, so a
    large p costs no table of p powers."""
    m = isqrt(p) + 1
    baby = {pow(h, j, modulus): j for j in range(m)}
    giant = pow(h, -m, modulus)

    def log(x: int) -> int:
        for i in range(m):
            if x in baby:
                return i * m + baby[x]
            x = x * giant % modulus
        raise ArithmeticError(f"{x} is not a power of {h} mod {modulus}")

    return log


@lru_cache(maxsize=None)
def _primitive_orbit_coordinates(f: int, p: int) -> tuple[tuple, ...]:
    """For each Galois orbit of the order-p characters of conductor
    exactly f (p an odd prime), the coordinates ((q, g), c) of its first
    member at the local generators of _local_generators(f), in index
    order: the characters sorted by their exponents at the units
    2, 3, ... mod f, each orbit placed where its first member falls.
    Empty when f is not such a conductor: the length of the numbering
    is the number of fields of conductor f.

    The exponent at a is sum_q c_q log_q(a) mod p, with log_q(a) the
    discrete log of a^(phi(q^e)/p) mod q^e.  Only one member r of each
    orbit is walked, the one with c = 1 at the first generator: the
    member t r has t times its exponents, so the first member is the t r
    whose first nonzero exponent is 1.  The units are walked only until
    every orbit has a nonzero exponent and the first members' exponents
    all differ."""
    if not cyclic_conductor_is_valid(p, f):
        return ()
    logs = []
    for (q, g), qe, order, _ in _local_generators(f):
        step = order // p
        logs.append(((q, g), qe, step, _subgroup_log(pow(g, step, qe), p, qe)))
    reps = [(1, *c) for c in product(range(1, p), repeat=len(logs) - 1)]
    scales = [0] * len(reps)  # the t of each orbit's first member t r, once known
    keys: list[list[int]] = [[] for _ in reps]  # the first members' exponents
    a = 1
    while not all(scales) or len(set(map(tuple, keys))) < len(reps):
        a += 1
        if gcd(a, f) == 1:
            ls = [log(pow(a, step, qe)) for _, qe, step, log in logs]
            for i, r in enumerate(reps):
                e = sum(x * y for x, y in zip(r, ls)) % p
                if e and not scales[i]:
                    scales[i] = pow(e, -1, p)
                keys[i].append(e * scales[i] % p)
    return tuple(
        tuple((g, x * t % p) for (g, *_), x in zip(logs, r))
        for _, t, r in sorted(zip(keys, scales, reps))
    )


def primitive_orbits_of_order(f: int, p: int) -> tuple[CharacterOrbit, ...]:
    """Galois orbits of the order-p characters with conductor exactly f,
    for an odd prime p (empty when f is not such a conductor), each
    built from its _primitive_orbit_coordinates: orbit i is the i-th in
    the order of its members' exponents at the units 2, 3, ... mod f.
    The field specs build only their own orbit; this builds all."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"primitive_orbits_of_order needs an odd prime, got {p}")
    return tuple(CharacterOrbit.of(f, c, p) for c in _primitive_orbit_coordinates(f, p))


def basis_indices(vectors, p: int):
    """Yield, in order, each index whose ((q, g), c) coordinates raise the
    rank over F_p (p prime) of the vectors before it, by Gaussian
    elimination.  The labels (q, g) do not depend on the modulus, so
    order-p characters of any conductors span the group they generate."""
    basis = []  # (pivot, row): row is zero at the pivots before its own
    for i, coords in enumerate(vectors):
        row = dict(coords)
        for pivot, b in basis:
            c = row.get(pivot, 0) * pow(b[pivot], -1, p)
            for g, x in b.items():
                row[g] = (row.get(g, 0) - c * x) % p
        row = {g: x % p for g, x in row.items() if x % p}
        if row:
            basis.append((min(row), row))
            yield i


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and L-values
# ---------------------------------------------------------------------------


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


def gen_bernoulli(chi: DirichletCharacter, n: int) -> tuple[list[int], int]:
    """Generalized Bernoulli number B_{n,chi} for primitive chi:

        B_{n,chi} = f^(n-1) * sum_{a=1..f} chi(a) B_n(a/f).

    Exact, as (lift, den): B_{n,chi} = sum_e lift[e] zeta_order^e / den,
    the summands added in integers as chi.units() walks them, one bucket
    per root of unity.  A lift to Z[x]/(x^order - 1) is not unique, so
    compare images in Q(zeta_order), not lifts.  Imprimitive input is
    rejected: the same sum over a non-minimal modulus is a different
    (Euler-factor-deflated) quantity.
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
    for a, e in chi.units():
        a = a or f  # residue 0 is a unit only for f = 1, where a runs to f
        acc = 0
        for c in coeffs:
            acc = acc * a + c
        buckets[e] += acc
    return buckets, d * f


def _cyclic_product(a: list[int], b: list[int]) -> list[int]:
    """a * b in Z[x]/(x^n - 1), n = len(a) = len(b)."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] += x * y
    return out


def _conjugate(lift: list[int], i: int) -> list[int]:
    """sigma_i(lift), x^j -> x^(i j), for i prime to n = len(lift)."""
    n = len(lift)
    inverse = pow(i, -1, n)
    return [lift[j * inverse % n] for j in range(n)]


def _galois_norm(lift: list[int]) -> list[int]:
    """The product of sigma_a(lift) over (Z/n)^*, n = len(lift), taken
    along each local generator's lift x, of order o, in turn: with P_t
    the product of sigma_{x^j}(lift) for j < t, P_2t = P_t sigma_{x^t}(P_t)
    and P_(t+1) = P_t sigma_{x^t}(lift), about 2 log2(o) products each."""
    n = len(lift)
    for _, _, o, x in _local_generators(n):
        total, t = lift, 1
        for bit in bin(o)[3:]:
            total = _cyclic_product(total, _conjugate(total, pow(x, t, n)))
            if bit == "1":
                total = _cyclic_product(total, _conjugate(lift, pow(x, 2 * t, n)))
            t = 2 * t + int(bit)
        lift = total
    return lift


def _fixed_value(t: list[int]) -> int:
    """sum_j t[j] zeta_n^j (n = len(t)) for t fixed by every sigma_i,
    that is, t[j] depends only on gcd(j, n): the primitive m-th roots
    of unity sum to mu(m), so this is sum_{d | n} t[d mod n] mu(n/d).
    Raises NotRational when t is not fixed."""
    n = len(t)
    if any(t[j] != t[gcd(j, n) % n] for j in range(n)):
        raise NotRational(f"an orbit product in Z[x]/(x^{n} - 1) is not Galois-fixed")
    terms = [(n, 1)]  # (n/s, mu(s)) for the squarefree divisors s of n
    for q, _ in factor_small(n):
        terms += [(d // q, -sign) for d, sign in terms]
    return sum(sign * t[d % n] for d, sign in terms)


def orbit_l_product(orbit: CharacterOrbit, k: int) -> Fraction:
    """Product of L(chi^i, 1-2k) over the orbit of an even chi of order
    n: the norm from Q(zeta_n) to Q of L(chi, 1-2k) = -B_{2k,chi}/(2k)
    (Washington, Introduction to Cyclotomic Fields, ch. 4).

    L(chi^i, 1-2k) is sigma_i(L(chi, 1-2k)) for zeta -> zeta^i, so one
    generalized Bernoulli number per orbit suffices: its lift, in lowest
    terms, times its conjugates (_galois_norm).  Every sigma_i fixes
    that product; NotRational if it is not fixed (an arithmetic bug).
    """
    chi = orbit.representative
    if chi.is_trivial():
        raise ValueError("orbit_l_product requires a nontrivial orbit")
    if k < 1:
        raise ValueError("orbit_l_product requires k >= 1")
    if not chi.is_even():
        raise ValueError("odd characters do not belong to totally real fields")
    lift, den = gen_bernoulli(chi.primitive_part(), 2 * k)
    g = -gcd(2 * k * den, *lift)  # so that den = -2k den / g > 0
    lift = [c // g for c in lift]
    norm = _fixed_value(_galois_norm(lift))
    return Fraction(norm, (-2 * k * den // g) ** euler_phi(len(lift)))


# ---------------------------------------------------------------------------
# Character files
# ---------------------------------------------------------------------------


def parse_character_file(path) -> DirichletCharacter:
    """Read the one character of a UTF-8 JSON file.

    One object per file: {"modulus": m, "order": n, "values":
    [[a, e], ...]} where the pairs list every residue coprime to m in
    increasing order and chi(a) = zeta_n^e with 0 <= e < n.  Every
    number must be a JSON integer (not a float, string or boolean).
    """
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        return DirichletCharacter.from_values(m, n, seen)
    except ValueError as exc:
        raise CharacterFileError(str(exc)) from exc
