"""Orders of the even K-groups K_{4k-2}(O_F) and their odd companions.

For a totally real abelian field of degree r,

    |K_{4k-1}(O_F)| = 2^r w_2k(F)            (k odd)   /  w_2k(F) (k even)
    |K_{4k-2}(O_F)| = (-1)^r w_2k(F) zeta_F(1-2k)      (k odd)
                      w_2k(F) zeta_F(1-2k) / 2^r        (k even)

with zeta_F(1-2k) evaluated exactly: through generalized Bernoulli
numbers over the field's own character orbits for any supported field,
and through the finite quadratic formula as an independent second
route.  For p-elementary fields the combiner instead multiplies the
orders of the cyclic degree-p subfields and divides by a power of
|K_{4k-2}(Z)|; the direct formula above, over the whole field, checks
it.  Every assembled order is asserted to be a positive integer before
it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod

from . import winv
from .arith import bernoulli, factor_small, is_prime, valuation
from .cyclodirichlet import (
    CharacterOrbit,
    _primitive_orbit_coordinates,
    kronecker_coordinates,
    orbit_key,
    orbit_l_product,
    primitive_orbit_index,
)
from .siegel import QuadraticDiscriminant, zeta_quadratic
from .values import Value
from .winv import WInvariant


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
    Galois orbit of the field's even Dirichlet characters once (none for
    Q): its (conductor, size) in orbit_shapes, and in orbit_coordinates
    the coordinates ((q, g), c) of one member at the local generators of
    its conductor, where chi(g) = zeta_p^c and p = size + 1 is the
    member's order.  Degree, conductor, rank and w come from the shapes
    alone; character_orbits builds one character per orbit from the
    coordinates, only when an L-value needs it.  Specs are frozen
    values, so they can key caches."""

    __slots__ = ()

    # zeta routes k_even_order accepts, default first
    ORDER_METHODS: tuple[str, ...]

    def orbit_shapes(self) -> tuple[tuple[int, int], ...]:
        return ()

    def orbit_coordinates(self) -> tuple[tuple, ...]:
        return ()

    def character_orbits(self) -> tuple[CharacterOrbit, ...]:
        return tuple(
            CharacterOrbit.of(f, coords, size + 1)
            for (f, size), coords in zip(self.orbit_shapes(), self.orbit_coordinates())
        )

    def degree(self) -> int:
        return 1 + sum(size for _, size in self.orbit_shapes())

    def conductor(self) -> int:
        return lcm(1, *(f for f, _ in self.orbit_shapes()))

    def rank(self) -> int:
        """n with degree p^n, where p - 1 is the size of every orbit."""
        shapes = self.orbit_shapes()
        return valuation(self.degree(), shapes[0][1] + 1) if shapes else 0


class Rationals(_Field):
    __slots__ = ()
    ORDER_METHODS = ("characters", "kz")

    def label(self) -> str:
        return "q"


class RealQuadratic(_Field):
    __slots__ = ("d",)
    ORDER_METHODS = ("characters", "zagier")

    d: int

    def __post_init__(self) -> None:
        QuadraticDiscriminant(self.d)

    def orbit_shapes(self) -> tuple[tuple[int, int], ...]:
        return ((self.d, 1),)

    def orbit_coordinates(self) -> tuple[tuple, ...]:
        """The Kronecker symbol (d|x) at the local generators' lifts x."""
        return (kronecker_coordinates(self.d),)

    def label(self) -> str:
        return f"quad:{self.d}"


class CyclicPrime(_Field):
    """A real cyclic field of odd prime degree p and conductor f; when
    several such fields share the conductor, `orbit` picks the Galois
    orbit of defining characters, counted from 0 in the order of each
    orbit's first member by its values at 2, 3, ... (see
    _primitive_orbit_coordinates).  A conductor with s distinct prime
    factors carries (p - 1)^(s - 1) such fields."""

    __slots__ = ("p", "f", "orbit")
    _defaults = {"orbit": 0}
    ORDER_METHODS = ("characters",)

    p: int
    f: int
    orbit: int

    def __post_init__(self) -> None:
        if self.p == 2 or not is_prime(self.p):
            raise ValueError("CyclicPrime needs an odd prime degree")
        if not winv.cyclic_conductor_is_valid(self.p, self.f):
            raise ValueError(
                f"{self.f} is not a conductor of a real cyclic "
                f"degree-{self.p} field"
            )
        fields = (self.p - 1) ** (len(factor_small(self.f)) - 1)
        if not 0 <= self.orbit < fields:
            raise ValueError(
                f"orbit index {self.orbit} does not exist; the indices for "
                f"conductor {self.f} run from 0 to {fields - 1}"
            )

    def orbit_shapes(self) -> tuple[tuple[int, int], ...]:
        return ((self.f, self.p - 1),)

    def orbit_coordinates(self) -> tuple[tuple, ...]:
        """The orbit's first member, read off the orbit numbering."""
        return (_primitive_orbit_coordinates(self.f, self.p)[self.orbit],)

    def label(self) -> str:
        if self.orbit:
            return f"cyclic:{self.p}:{self.f}:{self.orbit}"
        return f"cyclic:{self.p}:{self.f}"


def _cyclic_field(p: int, f: int, index: int = 0):
    """The spec of the index-th real cyclic degree-p field of conductor f."""
    return RealQuadratic(f) if p == 2 else CyclicPrime(p, f, index)


class Elementary(_Field):
    """A totally real field with Galois group (Z/pZ)^n, n >= 2, listed
    by its (p^n - 1)/(p - 1) degree-p subfields.  Their characters must
    generate a group of order p^n whose nontrivial Galois orbits are
    exactly the parts: with the count right, every chi_a * chi_b^e of
    two parts must lie in a part (checked in local coordinates)."""

    __slots__ = ("p", "parts")
    ORDER_METHODS = ("combiner", "characters")

    p: int
    parts: tuple

    def __post_init__(self) -> None:
        p = self.p
        if not is_prime(p):
            raise ValueError("p must be prime")
        for part in self.parts:
            if part.degree() != p or len(part.orbit_shapes()) != 1:
                raise ValueError(f"{part.label()} is not a cyclic degree-{p} field")
        if len(set(self.parts)) != len(self.parts):
            raise ValueError("parts must be pairwise distinct")
        degree = self.degree()
        if degree < p * p or p ** valuation(degree, p) != degree:
            raise ValueError(
                f"{len(self.parts)} parts is not (p^n - 1)/(p - 1) for any n >= 2"
            )
        keys = [orbit_key(coords, p) for coords in self.orbit_coordinates()]
        for i, a in enumerate(keys):
            for j in range(i + 1, len(keys)):
                for e in range(1, p):
                    key = orbit_key(a + tuple((g, e * x) for g, x in keys[j]), p)
                    if key not in keys:
                        missing = _cyclic_field(p, *primitive_orbit_index(key, p))
                        raise ValueError(
                            f"{self.parts[i].label()} and {self.parts[j].label()} "
                            f"generate {missing.label()}, which is not a part"
                        )

    def orbit_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple(s for part in self.parts for s in part.orbit_shapes())

    def orbit_coordinates(self) -> tuple[tuple, ...]:
        return tuple(c for part in self.parts for c in part.orbit_coordinates())

    def label(self) -> str:
        inner = ",".join(part.label() for part in self.parts)
        return f"elem:{self.p}:{inner}"


FieldSpec = Rationals | RealQuadratic | CyclicPrime | Elementary


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


def zeta_abelian(spec: FieldSpec, k: int) -> Fraction:
    """Exact zeta_F(1-2k) via the product of L-values over the
    nontrivial character orbits of the field."""
    value = riemann_zeta_negative(k)
    for orbit in spec.character_orbits():
        value *= orbit_l_product(orbit, k)
    return value


def w_invariant(spec: FieldSpec, k: int) -> WInvariant:
    return winv.w_from_orbits(spec.orbit_shapes(), k)


# ---------------------------------------------------------------------------
# K-group orders
# ---------------------------------------------------------------------------


def kz(n: int) -> int:
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
    c = doubling * bernoulli(2 * s) * winv.w_rational(s).value / (4 * s)
    return _as_positive_int(abs(c), f"kz({n})")


def _as_positive_int(value: Fraction, context: str) -> int:
    if value.denominator != 1 or value <= 0:
        raise NonIntegralOrder(f"{context} produced {value}")
    return value.numerator


def k_odd_order(spec: FieldSpec, k: int) -> KGroupOrder:
    """|K_{4k-1}(O_F)| = 2^r w_2k(F) for odd k, w_2k(F) for even k."""
    w = w_invariant(spec, k)
    r = spec.degree()
    order = (2**r if k % 2 else 1) * w.value
    return KGroupOrder(spec, 4 * k - 1, order, "w")


def k_even_order(
    spec: FieldSpec, k: int, method: str | None = None
) -> KGroupOrder:
    """|K_{4k-2}(O_F)| assembled from w_2k(F) and zeta_F(1-2k).

    method selects the zeta route among spec.ORDER_METHODS, whose first
    entry is the default: "characters" (any field), "zagier" (real
    quadratic only), "combiner" (elementary fields only), "kz" (the
    rationals only).
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
    if method == "kz":
        return KGroupOrder(
            spec, 4 * k - 2, kz(4 * k - 2), "kz", riemann_zeta_negative(k)
        )
    if spec.rank() >= 2:
        return elementary_order_via_characters(spec, k)
    if method == "zagier":
        zeta = zeta_quadratic(spec.d, k)
    else:
        zeta = zeta_abelian(spec, k)
    return _order_from_zeta(spec, k, method, zeta, w_invariant(spec, k).value)


def _order_from_zeta(
    spec: FieldSpec,
    k: int,
    method: str,
    zeta: Fraction,
    w: int,
    pieces: tuple[int, ...] = (),
) -> KGroupOrder:
    """|K_{4k-2}(O_F)| = (-1)^r w zeta_F(1-2k) for odd k, and
    w zeta_F(1-2k) / 2^r for even k, asserted a positive integer."""
    r = spec.degree()
    multiplier = Fraction((-1) ** r * w) if k % 2 else Fraction(w, 2**r)
    order = _as_positive_int(
        multiplier * zeta, f"|K_{4 * k - 2}| of {spec.label()} via {method}"
    )
    return KGroupOrder(spec, 4 * k - 2, order, method, zeta, pieces=pieces)


def combine_elementary(
    spec: Elementary, k: int, part_method: str = "characters"
) -> KGroupOrder:
    """|K_{4k-2}(O_E)| as the product over the degree-p subfields
    divided by |K_{4k-2}(Z)|^((p^n - p)/(p - 1)); the division is
    asserted exact.  zeta_E(1-2k) comes from the parts' zeta values:
    each is zeta(1-2k) times its one L-product, so zeta_E is their
    product over zeta(1-2k)^(#parts - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = spec.rank()
    parts = [k_even_order(part, k, method=part_method) for part in spec.parts]
    part_orders = [part.order for part in parts]
    zeta = riemann_zeta_negative(k) ** (1 - len(parts)) * prod(
        part.zeta_value for part in parts
    )
    numerator = prod(part_orders)
    kz_order = kz(4 * k - 2)
    denominator = kz_order ** ((spec.p**n - spec.p) // (spec.p - 1))
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
    if k < 1:
        raise ValueError("k must be >= 1")
    w = w_invariant(spec, k).value
    factors = [riemann_zeta_negative(k)]
    factors += [orbit_l_product(orbit, k) for orbit in spec.character_orbits()]
    # a prime of a product of fractions divides one of their numerators
    pieces = _distinct([abs(x.numerator) for x in factors] + [w])
    return _order_from_zeta(spec, k, "characters", prod(factors), w, pieces)


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
