"""Orders of the even K-groups K_{4k-2}(O_F) and their odd companions.

For a totally real abelian field of degree r,

    |K_{4k-1}(O_F)| = 2^r w_2k(F)            (k odd)   /  w_2k(F) (k even)
    |K_{4k-2}(O_F)| = (-1)^r w_2k(F) zeta_F(1-2k)      (k odd)
                      w_2k(F) zeta_F(1-2k) / 2^r        (k even)

with zeta_F(1-2k) evaluated exactly: through generalized Bernoulli
numbers over the field's own character orbits for any supported field,
and through the finite quadratic formula as an independent second
route.  Each route hands its order w_2k(F) and the numerators of
zeta(1-2k) and of its cofactors as pieces, so that a factorization
splits those rather than the whole order.  For p-elementary fields the
combiner instead multiplies the orders of the cyclic degree-p subfields
and divides by a power of |K_{4k-2}(Z)|, which is the formula above for
F = Q; the direct formula over the whole field checks it.  Every
assembled order is asserted to be a positive integer before it is
returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod

from . import winv
from .arith import PartialFactorization, bernoulli, is_prime, valuation
from .cyclodirichlet import (
    CharacterOrbit,
    _primitive_orbit_coordinates,
    basis_indices,
    euler_phi,
    kronecker_coordinates,
    orbit_l_product,
)
from .siegel import check_discriminant, zeta_quadratic
from .values import Value


class NonIntegralOrder(ArithmeticError):
    """An assembled K-group order failed to be a positive integer."""


class InexactDivision(ArithmeticError):
    """A division the combining theorem guarantees exact was not."""


class NoRepresentation(ValueError):
    """No Hasse parameters (a, b) exist for the given conductor."""


class UnsupportedField(ValueError):
    """The requested computation is not defined for this field class."""


# ---------------------------------------------------------------------------
# Field specifications
# ---------------------------------------------------------------------------


class _Field(Value):
    """What every field spec shares.  A spec states each nontrivial
    Galois orbit of the field's even Dirichlet characters once, in
    orbits() (none for Q): as (f, n, coords), its conductor f, the order
    n of its members, and the coordinates ((q, g), c) of one member at
    the local generators of f, where chi(g) = zeta_n^c.  The rest is
    derived: orbit_shapes gives each orbit's (conductor, size), of size
    phi(n), and degree, conductor and w come from those; character_orbits
    builds one character per orbit, only when an L-value needs it.
    Specs are frozen values, so they can key caches."""

    __slots__ = ()

    # zeta routes k_even_order accepts, default first
    ORDER_METHODS = ("characters",)

    def orbits(self) -> tuple[tuple[int, int, tuple], ...]:
        return ()

    def orbit_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple((f, euler_phi(n)) for f, n, _ in self.orbits())

    def character_orbits(self) -> tuple[CharacterOrbit, ...]:
        return tuple(CharacterOrbit.of(f, coords, n) for f, n, coords in self.orbits())

    def degree(self) -> int:
        return 1 + sum(size for _, size in self.orbit_shapes())

    def conductor(self) -> int:
        return lcm(1, *(f for f, _, _ in self.orbits()))


class Rationals(_Field):
    __slots__ = ()

    def label(self) -> str:
        return "q"


class RealQuadratic(_Field):
    __slots__ = ("d",)
    ORDER_METHODS = ("characters", "zagier")

    d: int

    def __post_init__(self) -> None:
        check_discriminant(self.d)

    def orbits(self) -> tuple[tuple[int, int, tuple], ...]:
        """The Kronecker symbol (d|x) at the local generators' lifts x."""
        return ((self.d, 2, kronecker_coordinates(self.d)),)

    def label(self) -> str:
        return f"quad:{self.d}"


class CyclicPrime(_Field):
    """A real cyclic field of odd prime degree p and conductor f; when
    several such fields share the conductor, `orbit` picks the Galois
    orbit of defining characters, counted from 0 in the order of each
    orbit's first member by its values at 2, 3, ...: the index into
    _primitive_orbit_coordinates(f, p), whose length is the number of
    such fields."""

    __slots__ = ("p", "f", "orbit")
    _defaults = {"orbit": 0}

    p: int
    f: int
    orbit: int

    def __post_init__(self) -> None:
        if self.p == 2 or not is_prime(self.p):
            raise ValueError("CyclicPrime needs an odd prime degree")
        fields = len(_primitive_orbit_coordinates(self.f, self.p))
        if not fields:
            raise ValueError(
                f"{self.f} is not a conductor of a real cyclic "
                f"degree-{self.p} field"
            )
        if not 0 <= self.orbit < fields:
            raise ValueError(
                f"orbit index {self.orbit} does not exist; the indices for "
                f"conductor {self.f} run from 0 to {fields - 1}"
            )

    def orbits(self) -> tuple[tuple[int, int, tuple], ...]:
        """The orbit's first member, read off the orbit numbering."""
        return ((self.f, self.p, _primitive_orbit_coordinates(self.f, self.p)[self.orbit]),)

    def label(self) -> str:
        if self.orbit:
            return f"cyclic:{self.p}:{self.f}:{self.orbit}"
        return f"cyclic:{self.p}:{self.f}"


class Elementary(_Field):
    """A totally real field with Galois group (Z/pZ)^n, n >= 2, listed
    by its (p^n - 1)/(p - 1) degree-p subfields.  Their characters'
    coordinates must have rank n over F_p (basis_indices): then the
    parts are distinct lines of F_p^n, as many as it has, so they are
    the nontrivial Galois orbits of the group they generate."""

    __slots__ = ("p", "parts")
    ORDER_METHODS = ("combiner", "characters")

    p: int
    parts: tuple

    def __post_init__(self) -> None:
        p = self.p
        if not is_prime(p):
            raise ValueError("p must be prime")
        for part in self.parts:
            if part.degree() != p or len(part.orbits()) != 1:
                raise ValueError(f"{part.label()} is not a cyclic degree-{p} field")
        if len(set(self.parts)) != len(self.parts):
            raise ValueError("parts must be pairwise distinct")
        n = valuation(self.degree(), p)
        if n < 2 or p**n != self.degree():
            raise ValueError(
                f"{len(self.parts)} parts is not (p^n - 1)/(p - 1) for any n >= 2"
            )
        coords = [c for _, _, c in self.orbits()]
        labels = [self.parts[i].label() for i in basis_indices(coords, p)]
        if len(labels) > n:
            raise ValueError(
                f"{labels[n]} is not a subfield of the field that "
                f"{', '.join(labels[:n - 1])} and {labels[n - 1]} generate"
            )

    def orbits(self) -> tuple[tuple[int, int, tuple], ...]:
        return tuple(orbit for part in self.parts for orbit in part.orbits())

    def label(self) -> str:
        inner = ",".join(part.label() for part in self.parts)
        return f"elem:{self.p}:{inner}"


FieldSpec = Rationals | RealQuadratic | CyclicPrime | Elementary


def parse_spec(text: str) -> FieldSpec:
    """The spec that text names, the inverse of label(): `q`, `quad:D`,
    `cyclic:p:f[:orbit]` (orbit 0, the default, reads as `cyclic:p:f`) or
    `elem:p:part,...` with `quad:` or `cyclic:` parts, integers canonical
    (parse_natural).  A ValueError says what is wrong, bare when text
    has no spec's shape."""
    parts = text.split(":")
    if parts == ["q"]:
        return Rationals()
    if parts[0] == "quad" and len(parts) == 2:
        return RealQuadratic(parse_natural(parts[1]))
    if parts[0] == "cyclic" and len(parts) in (3, 4):
        return CyclicPrime(*map(parse_natural, parts[1:]))
    if parts[0] == "elem" and len(parts) >= 3:
        p = parse_natural(parts[1])
        members = []
        for member in text.split(":", 2)[2].split(","):
            if member.startswith("elem:"):
                # the commas split its own parts off as this field's
                raise ValueError(f"{member} is not a cyclic degree-{p} field")
            members.append(parse_spec(member))
        return Elementary(p, tuple(members))
    raise ValueError


def parse_natural(token: str) -> int:
    """An integer written canonically: 0, or a nonzero digit followed
    by digits, with no sign and no spaces."""
    if not (token.isascii() and token.isdigit()) or (token[0] == "0" and token != "0"):
        raise ValueError(f"{token!r} is not a canonical integer")
    return int(token)


class KGroupOrder(Value):
    """A computed |K_index(O_F)| with method provenance.  pieces are
    positive integers whose primes cover those of the order (the
    factors a route multiplied it from), so that a factorization can
    split them instead of the whole order, which can run to hundreds of
    digits."""

    __slots__ = ("field", "index", "order", "method", "zeta_value", "pieces")
    _defaults = {"zeta_value": None, "pieces": ()}

    field: FieldSpec
    index: int
    order: int
    method: str
    zeta_value: Fraction | None
    pieces: tuple[int, ...]


# ---------------------------------------------------------------------------
# zeta values and w invariants
# ---------------------------------------------------------------------------


def riemann_zeta_negative(k: int) -> Fraction:
    """zeta(1-2k) = -B_2k / (2k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(2 * k) / (2 * k)


def _zeta_factors(spec: FieldSpec, k: int) -> list[Fraction]:
    """zeta(1-2k) and one L-product per nontrivial character orbit of
    the field; zeta_F(1-2k) is their product."""
    return [riemann_zeta_negative(k)] + [
        orbit_l_product(orbit, k) for orbit in spec.character_orbits()
    ]


def zeta_abelian(spec: FieldSpec, k: int) -> Fraction:
    """Exact zeta_F(1-2k) via the product of L-values over the
    nontrivial character orbits of the field."""
    return prod(_zeta_factors(spec, k))


def w_invariant(spec: FieldSpec, k: int) -> PartialFactorization:
    return winv.w_from_orbits(spec.orbit_shapes(), k)


# ---------------------------------------------------------------------------
# K-group orders
# ---------------------------------------------------------------------------


def kz(n: int) -> int:
    """|K_n(Z)| for n = 4k - 2, k >= 1: the order of Q's own K_{4k-2}."""
    if n % 4 != 2:
        raise ValueError("kz requires n = 2 or 6 (mod 8)")
    return k_even_order(Rationals(), (n + 2) // 4).order


def _as_positive_int(value: Fraction, context: str) -> int:
    if value.denominator != 1 or value <= 0:
        raise NonIntegralOrder(f"{context} produced {value}")
    return value.numerator


def k_odd_order(spec: FieldSpec, k: int) -> KGroupOrder:
    """|K_{4k-1}(O_F)| = 2^r w_2k(F) for odd k, w_2k(F) for even k; 2
    divides w, so the primes of w are its pieces."""
    w = w_invariant(spec, k)
    r = spec.degree()
    order = (2**r if k % 2 else 1) * w.value
    return KGroupOrder(spec, 4 * k - 1, order, "w", pieces=tuple(p for p, _ in w.factored))


def k_even_order(
    spec: FieldSpec, k: int, method: str | None = None
) -> KGroupOrder:
    """|K_{4k-2}(O_F)| assembled from w_2k(F) and zeta_F(1-2k).

    method selects the zeta route among spec.ORDER_METHODS, whose first
    entry is the default: "characters" (any field), "zagier" (real
    quadratic only), "combiner" (elementary fields only).  The others
    hand _order_from_zeta zeta(1-2k) and its cofactors in zeta_F(1-2k):
    one L-product per character orbit, or the zagier value's quotient.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if method is None:
        method = spec.ORDER_METHODS[0]
    elif method not in spec.ORDER_METHODS:
        raise UnsupportedField(
            f"method {method!r} does not apply to {spec.label()}"
        )
    if method == "combiner":
        return combine_elementary(spec, k)
    if isinstance(spec, Elementary):
        return elementary_order_via_characters(spec, k)
    if method == "zagier":
        zeta = riemann_zeta_negative(k)
        return _order_from_zeta(spec, k, method, [zeta, zeta_quadratic(spec.d, k) / zeta])
    return _order_from_zeta(spec, k, method, _zeta_factors(spec, k))


def _order_from_zeta(
    spec: FieldSpec, k: int, method: str, factors: list[Fraction]
) -> KGroupOrder:
    """|K_{4k-2}(O_F)| = (-1)^r w zeta_F(1-2k) for odd k, and
    w zeta_F(1-2k) / 2^r for even k, asserted a positive integer, with
    zeta_F(1-2k) the product of factors; a prime of the order divides w
    or a factor's numerator, so those are its pieces."""
    w = w_invariant(spec, k).value
    zeta = prod(factors)
    r = spec.degree()
    multiplier = Fraction((-1) ** r * w) if k % 2 else Fraction(w, 2**r)
    order = _as_positive_int(
        multiplier * zeta, f"|K_{4 * k - 2}| of {spec.label()} via {method}"
    )
    pieces = _distinct([abs(x.numerator) for x in factors] + [w])
    return KGroupOrder(spec, 4 * k - 2, order, method, zeta, pieces=pieces)


def combine_elementary(spec: Elementary, k: int) -> KGroupOrder:
    """|K_{4k-2}(O_E)| as the product over the degree-p subfields, each
    by its characters route, divided by |K_{4k-2}(Z)|^((p^n - p)/(p - 1)),
    where (p^n - p)/(p - 1) is #parts - 1; the division is asserted
    exact.  zeta_E(1-2k) comes from the parts' zeta values: each is
    zeta(1-2k) times its one L-product, so zeta_E is their product over
    zeta(1-2k)^(#parts - 1)."""
    parts = [k_even_order(part, k) for part in spec.parts]
    part_orders = [part.order for part in parts]
    zeta = riemann_zeta_negative(k) ** (1 - len(parts)) * prod(
        part.zeta_value for part in parts
    )
    numerator = prod(part_orders)
    kz_order = kz(4 * k - 2)
    denominator = kz_order ** (len(parts) - 1)
    if numerator % denominator:
        raise InexactDivision(
            f"{numerator} not divisible by {denominator} for {spec.label()}"
        )
    return KGroupOrder(
        spec,
        4 * k - 2,
        numerator // denominator,
        "combiner",
        zeta,
        pieces=_distinct(part_orders + [kz_order]),
    )


def elementary_order_via_characters(spec: Elementary, k: int) -> KGroupOrder:
    """Second, independent route to the p-elementary order: the direct
    formula over the whole field, w_2k(E) zeta_E(1-2k) with zeta_E the
    product of zeta(1-2k) and one L-product per character orbit.  It
    shares no w and no |K_{4k-2}(Z)| division with the combiner."""
    return _order_from_zeta(spec, k, "characters", _zeta_factors(spec, k))


def _distinct(pieces: list[int]) -> tuple[int, ...]:
    """The pieces without repeats or units, in first-seen order."""
    return tuple(dict.fromkeys(x for x in pieces if x > 1))


# ---------------------------------------------------------------------------
# Hasse parameterization of cyclic cubic fields
# ---------------------------------------------------------------------------


class CubicParameters(Value):
    """Hasse data for the cyclic cubic field of conductor f: the unique
    (a, b) with 4f = a^2 + 3b^2 under the congruence normalization, and
    the defining polynomial X^3 - 3fX - fa."""

    __slots__ = ("f", "a", "b")
    f: int
    a: int
    b: int

    def polynomial_coefficients(self) -> tuple[int, int, int, int]:
        """(c0, c1, c2, c3) for c3 X^3 + c2 X^2 + c1 X + c0."""
        return (-self.f * self.a, -3 * self.f, 0, 1)

    def polynomial_str(self) -> str:
        const = -self.f * self.a
        sign = "+" if const >= 0 else "-"
        return f"X^3 - {3 * self.f}X {sign} {abs(const)}"


def cubic_from_conductor(f: int) -> CubicParameters:
    """Solve 4f = a^2 + 3b^2 under the normalization a = 2 (mod 3),
    b = 0 (mod 3), b > 0 when 3 does not divide f, and a = 6 (mod 9),
    b = 3, 6 (mod 9), b > 0 when 3 | f."""
    if f < 1:
        raise NoRepresentation("conductor must be positive")
    divisible_by_3 = f % 3 == 0
    if not divisible_by_3 and f % 3 != 1:
        raise NoRepresentation(f"{f} = 2 (mod 3) is not a cubic conductor")
    solutions: list[tuple[int, int]] = []
    b = 3
    while 3 * b * b < 4 * f:
        ok_b = (b % 9 in (3, 6)) if divisible_by_3 else True
        if ok_b:
            s = 4 * f - 3 * b * b
            a = isqrt(s)
            if a * a == s and a > 0:
                for cand in (a, -a):
                    if divisible_by_3:
                        if cand % 9 == 6:
                            solutions.append((cand, b))
                    elif cand % 3 == 2:
                        solutions.append((cand, b))
        b += 3
    if not solutions:
        raise NoRepresentation(f"4*{f} = a^2 + 3 b^2 has no normalized solution")
    if (is_prime(f) or f == 9) and len(solutions) > 1:
        raise AssertionError(f"Hasse normalization not unique for f={f}")
    solutions.sort(key=lambda ab: ab[1])
    a, b = solutions[0]
    return CubicParameters(f, a, b)
