"""The invariants w_2k(F) of a totally real abelian field F.

w_2k(F) is the largest m such that Gal(F(zeta_m)/F) has exponent
dividing 2k (Weibel, The K-book, VI.2).  It is read off the field's
group X of even Dirichlet characters, given as the (conductor, size)
of each nontrivial Galois orbit.  Let X_{l,a} be the characters in X
whose conductor divides l^a; they are the characters of
F ∩ Q(zeta_{l^a}) (Washington, Introduction to Cyclotomic Fields,
ch. 3).  One formula then covers every field:

* for odd l, Gal(F(zeta_{l^a})/F) is cyclic of order
  l^(a-1)(l-1)/|X_{l,a}|, and v_l(w) is the largest a for which that
  order divides 2k;
* for l = 2, F ∩ Q(zeta_{2^∞}) = Q(zeta_{2^c})^+ where 2^(c-2) is the
  number of characters in X of 2-power conductor, and
  v_2(w) = c + v_2(2k).
"""

from __future__ import annotations

from math import lcm, prod

from .arith import factor_small, is_prime, primes_up_to, valuation
from .siegel import QuadraticDiscriminant, as_discriminant, is_fundamental_discriminant
from .values import Value


class WInvariant(Value):
    """w value together with its prime decomposition."""

    __slots__ = ("value", "parts")
    value: int
    parts: dict[int, int]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.parts.values()):
            raise ValueError("zero exponents must be omitted")
        if prod(ell**e for ell, e in self.parts.items()) != self.value:
            raise ValueError("parts do not multiply to value")

    def __int__(self) -> int:
        return self.value


def _valuation_of_w(ell: int, orbits: tuple, k: int) -> int:
    """v_ell(w_2k) of the field with these (conductor, size) orbits."""
    if ell == 2:
        # 2^(c-2) characters of 2-power conductor, the trivial one included
        count = 1 + sum(size for f, size in orbits if f & (f - 1) == 0)
        return count.bit_length() + 1 + valuation(2 * k, 2)
    a = 0
    while True:
        power = ell ** (a + 1)
        fixed = 1 + sum(size for f, size in orbits if power % f == 0)
        galois, rest = divmod(power // ell * (ell - 1), fixed)
        if rest:
            raise ValueError("the orbits are not those of a field")
        if (2 * k) % galois:
            return a
        a += 1


def _w_from_valuations(parts: dict[int, int]) -> WInvariant:
    parts = {ell: e for ell, e in sorted(parts.items()) if e}
    return WInvariant(prod(ell**e for ell, e in parts.items()), parts)


def w_rational(k: int) -> WInvariant:
    """w_2k(Q)."""
    if k < 1:
        raise ValueError("w invariants need k >= 1")
    primes = primes_up_to(2 * k + 1)
    return _w_from_valuations({ell: _valuation_of_w(ell, (), k) for ell in primes})


def w_from_orbits(orbits, k: int) -> WInvariant:
    """w_2k of the totally real abelian field whose nontrivial Galois
    orbits of even characters have the (conductor, size) pairs `orbits`:
    w_2k(Q) with the 2-part and the parts at primes dividing the
    conductor recomputed (elsewhere X_{l,a} is trivial, as for Q)."""
    orbits = tuple(orbits)
    parts = dict(w_rational(k).parts)
    conductor = lcm(1, *(f for f, _ in orbits))
    for ell in [2] + [q for q, _ in factor_small(conductor)]:
        parts[ell] = _valuation_of_w(ell, orbits, k)
    return _w_from_valuations(parts)


def w_quadratic(disc: QuadraticDiscriminant | int, k: int) -> WInvariant:
    """w_2k of the real quadratic field with fundamental discriminant D."""
    d = int(as_discriminant(disc))
    return w_from_orbits(((d, 1),), k)


def cyclic_conductor_is_valid(p: int, f: int) -> bool:
    """Whether f is the conductor of some real cyclic degree-p field:
    v_p(f) is 0 or 2 attained by p^2, every other prime factor is
    simple and = 1 mod p."""
    if f < 3:
        return False
    for q, e in factor_small(f):
        if q == p:
            if e != 2:
                return False
        elif e != 1 or (q - 1) % p != 0 or q == 2:
            return False
    return True


def w_cyclic(p: int, f: int, k: int) -> WInvariant:
    """w_2k of a real cyclic degree-p field of conductor f (p odd)."""
    if p == 2 or not is_prime(p):
        raise ValueError("w_cyclic expects an odd prime degree")
    if not cyclic_conductor_is_valid(p, f):
        raise ValueError(f"{f} is not a real cyclic degree-{p} conductor")
    return w_from_orbits(((f, p - 1),), k)


def w_elementary(p: int, conductors: list[int], k: int) -> WInvariant:
    """w_2k of a totally real p-elementary field, given the conductors
    of all its (p^n - 1)/(p - 1) degree-p subfields.

    For p = 2 the conductors are the fundamental discriminants of the
    quadratic subfields.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    degree = 1 + (p - 1) * len(conductors)
    if degree < p * p or p ** valuation(degree, p) != degree:
        raise ValueError(
            f"{len(conductors)} subfields is not (p^n - 1)/(p - 1) for any n >= 2"
        )
    for f in conductors:
        if p == 2 and not is_fundamental_discriminant(f):
            raise ValueError(f"{f} is not a fundamental discriminant")
        if p != 2 and not cyclic_conductor_is_valid(p, f):
            raise ValueError(f"{f} is not a degree-{p} conductor")
    return w_from_orbits(((f, p - 1) for f in conductors), k)
