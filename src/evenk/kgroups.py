"""Orders of the even K-groups K_{4k-2}(O_F) and their odd companions.

For a totally real abelian field of degree r,

    |K_{4k-1}(O_F)| = 2^r w_2k(F)            (k odd)   /  w_2k(F) (k even)
    |K_{4k-2}(O_F)| = (-1)^r w_2k(F) zeta_F(1-2k)      (k odd)
                      w_2k(F) zeta_F(1-2k) / 2^r        (k even)

with zeta_F(1-2k) evaluated exactly: through generalized Bernoulli
numbers for any supported field, through the finite quadratic formula
as an independent second route, and for p-elementary fields through
the product over their cyclic degree-p subfields divided by a power of
|K_{4k-2}(Z)|.  Every assembled order is asserted to be a positive
integer before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from . import winv
from .arith import (
    FactorBudget,
    PartialFactorization,
    bernoulli,
    factorize,
    is_prime,
)
from .cyclodirichlet import (
    CharacterOrbit,
    characters_of_order_dividing,
    orbit_l_product,
    primitive_orbits_of_order,
    quadratic_character,
)
from .siegel import (
    QuadraticDiscriminant,
    fundamental_discriminant,
    zeta_quadratic,
)
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


@dataclass(frozen=True)
class Rationals:
    # zeta routes k_even_order accepts, default first
    ORDER_METHODS = ("characters", "kz")

    def degree(self) -> int:
        return 1

    def conductor(self) -> int:
        return 1

    def label(self) -> str:
        return "q"


@dataclass(frozen=True)
class RealQuadratic:
    ORDER_METHODS = ("characters", "zagier")

    d: int

    def __post_init__(self) -> None:
        QuadraticDiscriminant(self.d)

    def degree(self) -> int:
        return 2

    def conductor(self) -> int:
        return self.d

    def label(self) -> str:
        return f"quad:{self.d}"


@dataclass(frozen=True)
class CyclicPrime:
    """A real cyclic field of odd prime degree p and conductor f; when
    several such fields share the conductor, `orbit` picks the Galois
    orbit of defining characters (construction order, starting at 0)."""

    ORDER_METHODS = ("characters",)

    p: int
    f: int
    orbit: int = 0

    def __post_init__(self) -> None:
        if self.p == 2 or not is_prime(self.p):
            raise ValueError("CyclicPrime needs an odd prime degree")
        if not winv.cyclic_conductor_is_valid(self.p, self.f):
            raise ValueError(
                f"{self.f} is not a conductor of a real cyclic "
                f"degree-{self.p} field"
            )
        if self.orbit < 0:
            raise ValueError("orbit index must be >= 0")

    def degree(self) -> int:
        return self.p

    def conductor(self) -> int:
        return self.f

    def label(self) -> str:
        if self.orbit:
            return f"cyclic:{self.p}:{self.f}:{self.orbit}"
        return f"cyclic:{self.p}:{self.f}"


@dataclass(frozen=True)
class Elementary:
    """A totally real field with Galois group (Z/pZ)^n, n >= 2, listed
    by its (p^n - 1)/(p - 1) degree-p subfields."""

    ORDER_METHODS = ("combiner", "characters")

    p: int
    parts: tuple

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        for part in self.parts:
            if isinstance(part, RealQuadratic):
                if self.p != 2:
                    raise ValueError("quadratic part in a p != 2 field")
            elif isinstance(part, CyclicPrime):
                if part.p != self.p:
                    raise ValueError("part degree differs from field degree")
            else:
                raise ValueError(f"unsupported part {part!r}")
        if len(set(self.parts)) != len(self.parts):
            raise ValueError("parts must be pairwise distinct")
        self.rank()  # validates the count
        if self.p == 2:
            discriminants = {part.d for part in self.parts}
            for i, a in enumerate(self.parts):
                for b in self.parts[i + 1 :]:
                    d = _product_discriminant(a.d, b.d)
                    if d not in discriminants:
                        raise ValueError(
                            f"quad:{a.d} and quad:{b.d} generate quad:{d}, "
                            "which is not a part"
                        )

    def rank(self) -> int:
        count = len(self.parts)
        n = 2
        while (self.p**n - 1) // (self.p - 1) < count:
            n += 1
        if (self.p**n - 1) // (self.p - 1) != count:
            raise ValueError(
                f"{count} parts is not (p^n - 1)/(p - 1) for any n >= 2"
            )
        return n

    def degree(self) -> int:
        return self.p ** self.rank()

    def conductor(self) -> int:
        return lcm(*(part.conductor() for part in self.parts))

    def label(self) -> str:
        inner = ",".join(part.label() for part in self.parts)
        return f"elem:{self.p}:{inner}"


def _product_discriminant(d1: int, d2: int) -> int:
    """Discriminant of Q(sqrt(d1 d2)) for distinct fundamental
    discriminants d1, d2 > 1."""
    s1 = d1 if d1 % 4 == 1 else d1 // 4
    s2 = d2 if d2 % 4 == 1 else d2 // 4
    g = gcd(s1, s2)
    return fundamental_discriminant((s1 // g) * (s2 // g))


@dataclass(frozen=True)
class AbelianByCharacters:
    """An abelian field described by Galois orbits of even characters;
    supports zeta evaluation only."""

    ORDER_METHODS = ()

    conductor_value: int
    orbits: tuple[CharacterOrbit, ...]

    def __post_init__(self) -> None:
        for orbit in self.orbits:
            if orbit.representative.is_trivial():
                raise ValueError("orbits must be nontrivial")
            if not orbit.representative.is_even():
                raise ValueError("odd characters do not give totally real fields")

    def degree(self) -> int:
        return 1 + sum(len(o.conjugates) for o in self.orbits)

    def conductor(self) -> int:
        return self.conductor_value

    def label(self) -> str:
        return f"abelian:{self.conductor_value}"


FieldSpec = (
    Rationals | RealQuadratic | CyclicPrime | Elementary | AbelianByCharacters
)


@dataclass
class KGroupOrder:
    """A computed |K_index(O_F)| with method provenance; the partial
    factorization is filled in lazily because the orders can run to
    hundreds of digits.  pieces are positive integers whose primes
    cover those of the order (the factors a route multiplied it from);
    factorization splits them instead of the whole order."""

    field: FieldSpec
    index: int
    order: int
    method: str
    zeta_value: Fraction | None = None
    factorization: PartialFactorization | None = None
    pieces: tuple[int, ...] = ()

    def ensure_factorization(
        self, budget: FactorBudget | None = None
    ) -> PartialFactorization:
        if self.factorization is None:
            self.factorization = factorize(self.order, budget, self.pieces)
        return self.factorization


# ---------------------------------------------------------------------------
# Character orbits per field
# ---------------------------------------------------------------------------


def quadratic_orbit(d: int) -> CharacterOrbit:
    chi = quadratic_character(d)
    if chi.conductor() != d or not chi.is_even():
        raise AssertionError(f"Kronecker character mod {d} is not primitive even")
    return CharacterOrbit.of(chi)


def cyclic_orbit(p: int, f: int, orbit: int) -> CharacterOrbit:
    orbits = primitive_orbits_of_order(f, p)
    if orbit >= len(orbits):
        raise UnsupportedField(
            f"conductor {f} has {len(orbits)} degree-{p} orbits, "
            f"index {orbit} does not exist"
        )
    return orbits[orbit]


def _part_orbit(part) -> CharacterOrbit:
    if isinstance(part, RealQuadratic):
        return quadratic_orbit(part.d)
    return cyclic_orbit(part.p, part.f, part.orbit)


# ---------------------------------------------------------------------------
# zeta values and w invariants by field
# ---------------------------------------------------------------------------


def riemann_zeta_negative(k: int) -> Fraction:
    """zeta(1-2k) = -B_2k / (2k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(2 * k) / (2 * k)


def zeta_abelian(spec: FieldSpec, k: int) -> Fraction:
    """Exact zeta_F(1-2k) via the product of L-values over the
    nontrivial character orbits of the field."""
    if k < 1:
        raise ValueError("k must be >= 1")
    value = riemann_zeta_negative(k)
    if isinstance(spec, Rationals):
        return value
    if isinstance(spec, RealQuadratic):
        return value * orbit_l_product(quadratic_orbit(spec.d), k)
    if isinstance(spec, CyclicPrime):
        return value * orbit_l_product(_part_orbit(spec), k)
    if isinstance(spec, Elementary):
        for part in spec.parts:
            value *= orbit_l_product(_part_orbit(part), k)
        return value
    if isinstance(spec, AbelianByCharacters):
        for orbit in spec.orbits:
            value *= orbit_l_product(orbit, k)
        return value
    raise UnsupportedField(f"unsupported field spec {spec!r}")


def w_invariant(spec: FieldSpec, k: int) -> WInvariant:
    if isinstance(spec, Rationals):
        return winv.w_rational(k)
    if isinstance(spec, RealQuadratic):
        return winv.w_quadratic(spec.d, k)
    if isinstance(spec, CyclicPrime):
        return winv.w_cyclic(spec.p, spec.f, k)
    if isinstance(spec, Elementary):
        return winv.w_elementary(
            spec.p, [part.conductor() for part in spec.parts], k
        )
    raise UnsupportedField(
        f"w invariants are not available for {type(spec).__name__}"
    )


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


def _corollary_multiplier(degree: int, w: int, k: int) -> Fraction:
    """The factor multiplying zeta_F(1-2k) in the even-order formula:
    (-1)^r w for odd k, w / 2^r for even k."""
    if k % 2:
        return Fraction((-1) ** degree * w)
    return Fraction(w, 2**degree)


def k_odd_order(spec: FieldSpec, k: int) -> KGroupOrder:
    """|K_{4k-1}(O_F)| = 2^r w_2k(F) for odd k, w_2k(F) for even k."""
    if k < 1:
        raise ValueError("k must be >= 1")
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
    methods = spec.ORDER_METHODS
    if not methods:
        raise UnsupportedField(
            "order computation needs w invariants beyond this field class; "
            "only zeta evaluation is supported"
        )
    if method is None:
        method = methods[0]
    elif method not in methods:
        raise UnsupportedField(
            f"method {method!r} does not apply to {spec.label()}"
        )
    if method == "combiner":
        return combine_elementary(spec, k)
    if isinstance(spec, Elementary):
        return elementary_order_via_characters(
            spec.conductor(), spec.p, spec.rank(), k, spec=spec
        )
    if method == "kz":
        return KGroupOrder(
            spec, 4 * k - 2, kz(4 * k - 2), "kz", riemann_zeta_negative(k)
        )
    if method == "zagier":
        zeta = zeta_quadratic(spec.d, k)
    else:
        zeta = zeta_abelian(spec, k)
    w = w_invariant(spec, k)
    value = _corollary_multiplier(spec.degree(), w.value, k) * zeta
    order = _as_positive_int(
        value, f"|K_{4 * k - 2}| of {spec.label()} via {method}"
    )
    return KGroupOrder(spec, 4 * k - 2, order, method, zeta)


def combine_elementary(
    spec: Elementary, k: int, part_method: str = "characters"
) -> KGroupOrder:
    """|K_{4k-2}(O_E)| as the product over the degree-p subfields
    divided by |K_{4k-2}(Z)|^((p^n - p)/(p - 1)); the division is
    asserted exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = spec.rank()
    part_orders = [
        k_even_order(part, k, method=part_method).order for part in spec.parts
    ]
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
        zeta_abelian(spec, k),
        pieces=_distinct(part_orders + [kz_order]),
    )


def elementary_order_via_characters(
    conductor: int,
    p: int,
    n: int,
    k: int,
    spec: Elementary | None = None,
) -> KGroupOrder:
    """Second, independent route to the p-elementary order: build the
    even characters of order dividing p directly mod the conductor,
    multiply their L-values with the per-subfield w/sign factors, and
    divide by the |K_{4k-2}(Z)| power."""
    if n < 2:
        raise UnsupportedField("p-elementary combining needs rank n >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    chars = [
        chi
        for chi in characters_of_order_dividing(conductor, p)
        if chi.is_even()
    ]
    if len(chars) != p**n:
        raise UnsupportedField(
            f"modulus {conductor} carries {len(chars)} even characters of "
            f"order dividing {p}, expected {p**n}; the conductor route "
            "cannot see this field"
        )
    orbits: list[CharacterOrbit] = []
    seen = set()
    for chi in sorted(
        (c for c in chars if not c.is_trivial()),
        key=lambda c: c.exponent_items(),
    ):
        if chi in seen:
            continue
        orbit = CharacterOrbit.of(chi)
        seen.update(orbit.conjugates)
        orbits.append(orbit)
    subfield_count = (p**n - 1) // (p - 1)
    if len(orbits) != subfield_count:
        raise AssertionError("orbit partition does not match subfield count")
    zeta = riemann_zeta_negative(k)
    # a prime of a product of fractions divides one of their numerators
    factors = [zeta] * subfield_count
    for orbit in orbits:
        f = orbit.representative.conductor()
        if p == 2:
            w = winv.w_quadratic(f, k).value
        else:
            w = winv.w_cyclic(p, f, k).value
        factors.append(
            orbit_l_product(orbit, k) * _corollary_multiplier(p, w, k)
        )
    kz_order = kz(4 * k - 2)
    exponent = (p**n - p) // (p - 1)
    value = prod(factors) / kz_order**exponent
    order = _as_positive_int(
        value, f"p-elementary order mod {conductor} via characters"
    )
    if spec is None:
        spec = Elementary(p, _parts_from_orbits(p, orbits))
    pieces = _distinct([abs(x.numerator) for x in factors] + [kz_order])
    return KGroupOrder(spec, 4 * k - 2, order, "characters", pieces=pieces)


def _distinct(pieces: list[int]) -> tuple[int, ...]:
    """The pieces without repeats or units, in first-seen order."""
    return tuple(dict.fromkeys(x for x in pieces if x > 1))


def _parts_from_orbits(p: int, orbits: list[CharacterOrbit]) -> tuple:
    parts = []
    counts: dict[int, int] = {}
    for orbit in orbits:
        f = orbit.representative.conductor()
        if p == 2:
            parts.append(RealQuadratic(f))
        else:
            parts.append(CyclicPrime(p, f, counts.get(f, 0)))
            counts[f] = counts.get(f, 0) + 1
    return tuple(parts)


# ---------------------------------------------------------------------------
# Fast closed forms for quadratic K_2 and K_6
# ---------------------------------------------------------------------------


def quadratic_k2_closed_form(d: int) -> int:
    """|K_2| of a real quadratic field: (4/5) e_1(8) over Q(sqrt 2),
    2 e_1(5) over Q(sqrt 5), (2/5) e_1(D) otherwise."""
    from .siegel import e_sum

    QuadraticDiscriminant(d)
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
    from .siegel import e_sum

    QuadraticDiscriminant(d)
    if d == 8:
        value = Fraction(e_sum(8, 3))
    else:
        value = Fraction(e_sum(d, 3), 2)
    return _as_positive_int(value, f"closed-form |K_6| for D={d}")


# ---------------------------------------------------------------------------
# Hasse parameterization of cyclic cubic fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicParameters:
    """Hasse data for the cyclic cubic field of conductor f: the unique
    (a, b) with 4f = a^2 + 3b^2 under the congruence normalization, and
    the defining polynomial X^3 - 3fX - fa."""

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
