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

For Q every X_{l,a} is trivial, so an odd l divides w_2k(Q) only if
l - 1 divides 2k: w_2k(Q) runs over the primes d + 1 for the divisors d
of 2k (d = 1 gives 2).  A field's w recomputes it at 2 and at the
primes of its conductor.
"""

from __future__ import annotations

from math import lcm, prod

from .arith import divisors, factor_small, is_prime, valuation
from .values import Value


class WInvariant(Value):
    """w held as its prime decomposition {ell: exponent}; value is their
    product."""

    __slots__ = ("parts",)
    parts: dict[int, int]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.parts.values()):
            raise ValueError("zero exponents must be omitted")

    @property
    def value(self) -> int:
        return prod(ell**e for ell, e in self.parts.items())


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
    return WInvariant({ell: e for ell, e in sorted(parts.items()) if e})


def w_rational(k: int) -> WInvariant:
    """w_2k(Q), over the primes ell = d + 1 for the divisors d of 2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    primes = [d + 1 for d in divisors(2 * k) if is_prime(d + 1)]
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


# bench/tracing.py wraps w_quadratic, w_cyclic and w_elementary by their
# winv names, so they stay here.
def w_quadratic(disc: int, k: int) -> WInvariant:
    """w_2k of the real quadratic field with fundamental discriminant
    disc, which RealQuadratic checks."""
    from .kgroups import RealQuadratic

    return w_from_orbits(RealQuadratic(disc).orbit_shapes(), k)


def w_cyclic(p: int, f: int, k: int) -> WInvariant:
    """w_2k of a real cyclic degree-p field of conductor f (p odd)."""
    from .kgroups import CyclicPrime

    return w_from_orbits(CyclicPrime(p, f).orbit_shapes(), k)


def w_elementary(p: int, parts, k: int) -> WInvariant:
    """w_2k of the totally real p-elementary field whose degree-p
    subfields are the field specs `parts` (all of them; see Elementary)."""
    from .kgroups import Elementary

    return w_from_orbits(Elementary(p, tuple(parts)).orbit_shapes(), k)
