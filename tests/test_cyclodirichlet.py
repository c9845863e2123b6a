import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evenk.arith import bernoulli
from evenk.cyclodirichlet import (
    CharacterFileError,
    CharacterOrbit,
    CyclotomicElement,
    DirichletCharacter,
    ImprimitiveCharacter,
    NotRational,
    character_group,
    characters_of_order_dividing,
    cyclotomic_polynomial,
    euler_phi,
    gen_bernoulli,
    kronecker_coordinates,
    l_value,
    orbit_key,
    orbit_l_product,
    parse_character_file,
    primitive_orbit_index,
    primitive_orbits_of_order,
    quadratic_character,
    _local_generators,
)
from oracles import (
    FractionCyclotomic,
    bernoulli_poly_value,
    character_product,
    conductor_by_divisors,
    conjugates,
    dlog_values,
    kronecker_character_by_units,
    local_coordinates,
    primitive_orbits_by_sorting,
    primitive_part_by_units,
    unit_group_dlogs,
    walked_values,
)
from oracles import _reduce_mod_cyclotomic as reduce_fraction_poly


# -- cyclotomic polynomials ---------------------------------------------------

def poly_div_exact(num, den):
    """Fraction polynomial division oracle, remainder must vanish."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / den[-1]
        q[i - len(den) + 1] = c
        for j, dj in enumerate(den):
            num[i - len(den) + 1 + j] -= c * dj
    assert not any(num), "inexact division"
    return q


def test_cyclotomic_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 independently
    num = [0] * 13
    num[0], num[12] = -1, 1
    q = num
    for d in (1, 2, 3, 4, 6):
        q = poly_div_exact(q, list(cyclotomic_polynomial(d)))
    assert tuple(int(c) for c in q) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degrees_and_prime_case():
    for n in range(1, 31):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)
    for p in (3, 5, 7, 11):
        assert cyclotomic_polynomial(p) == tuple([1] * p)


# -- cyclotomic elements ------------------------------------------------------

def zeta(n, k=1):
    """zeta_n^k, its coordinates taken from the Fraction oracle."""
    return CyclotomicElement(n, FractionCyclotomic.root_of_unity(n, k).coeffs)


def test_root_of_unity_relations():
    assert (zeta(3) * zeta(3, 2)).as_rational() == 1
    # (1 + zeta_4)(1 - zeta_4) = 2
    assert (CyclotomicElement(4, [1, 1]) * CyclotomicElement(4, [1, -1])).as_rational() == 2


def test_as_rational():
    assert CyclotomicElement(1, [Fraction(7, 2)]).as_rational() == Fraction(7, 2)
    sum_3 = FractionCyclotomic.root_of_unity(3, 1) + FractionCyclotomic.root_of_unity(3, 2)
    assert CyclotomicElement(3, sum_3.coeffs).as_rational() == -1
    with pytest.raises(NotRational):
        zeta(5).as_rational()


def test_order_mismatch_requires_embedding():
    with pytest.raises(ValueError):
        zeta(3) * zeta(4)


def test_power_and_high_exponents():
    power = zeta(8, 0)
    for k in range(12):
        assert power == zeta(8, k)
        power = power * zeta(8)
    assert zeta(7, 6) * zeta(7, 5) == zeta(7, 11 % 7)


# -- integer coordinates against the Fraction oracle ----------------------------

def agrees(elem, oracle):
    """Same field, same rational coordinates, same hash."""
    return (
        isinstance(elem, CyclotomicElement)
        and elem.order == oracle.order
        and elem.coeffs == oracle.coeffs
        and hash(elem) == hash(oracle)
    )


def test_roots_of_unity_match_oracle():
    # zeta_n^e as a product of e copies of zeta_n, and as the conjugate
    # sigma_e(zeta_n) for a unit e, reduced like every product
    for n in range(1, 61):
        power = zeta(n, 0)
        for e in range(n + 2):
            assert agrees(power, FractionCyclotomic.root_of_unity(n, e)), (n, e)
            if gcd(e, n) == 1:
                assert agrees(zeta(n).conjugate(e), FractionCyclotomic.root_of_unity(n, e))
            power = power * zeta(n)


def test_coordinates_are_in_lowest_terms():
    x = CyclotomicElement(6, [Fraction(2, 4), Fraction(-6, 8)])
    assert x._den == 4 and x._num == (2, -3)
    assert x.coeffs == (Fraction(1, 2), Fraction(-3, 4))
    y = x * 4
    assert y._den == 1 and y._num == (2, -3)
    zero = x * 0
    assert zero._den == 1 and zero._num == (0, 0) and zero.as_rational() == 0


RATIONALS = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
)


@lru_cache(maxsize=None)
def coordinates(order):
    """phi(order) rationals, about half of them 0 (the Fraction oracle
    is slow on dense elements of large degree)."""
    n = euler_phi(order)
    return st.lists(RATIONALS, min_size=n, max_size=n)


@pytest.mark.parametrize("order", range(1, 61))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_oracle(order, data):
    ca = data.draw(coordinates(order))
    cb = data.draw(coordinates(order))
    a, b = CyclotomicElement(order, ca), CyclotomicElement(order, cb)
    oa, ob = FractionCyclotomic(order, ca), FractionCyclotomic(order, cb)
    assert agrees(a, oa) and agrees(b, ob)
    assert agrees(a * b, oa * ob)
    scalar = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    assert agrees(a * scalar, oa * scalar)
    assert (a == b) == (oa == ob)
    i = data.draw(st.sampled_from([i for i in range(1, order + 1) if gcd(i, order) == 1]))
    raw = [Fraction(0)] * order
    for j, c in enumerate(oa.coeffs):
        raw[i * j % order] = c
    sigma = FractionCyclotomic(order, reduce_fraction_poly(raw, order))
    assert agrees(a.conjugate(i), sigma)
    # equal values built different ways are equal and hash equal
    for x, y in ((a * b, b * a), (a.conjugate(i).conjugate(pow(i, -1, order)), a)):
        assert x == y and hash(x) == hash(y)


# -- character groups ---------------------------------------------------------

def test_character_group_trivial_modulus():
    group = character_group(1)
    assert len(group) == 1
    assert group[0].is_trivial()


def test_character_group_mod_5_and_8():
    orders5 = sorted(chi.order for chi in character_group(5))
    assert orders5 == [1, 2, 4, 4]
    group8 = character_group(8)
    assert len(group8) == 4
    assert all(chi.order <= 2 for chi in group8)


def test_character_group_counts_and_distinct():
    for m in range(1, 101):
        group = character_group(m)
        assert len(group) == euler_phi(m)
        assert len({chi.exponent_items() for chi in group}) == len(group)


def test_characters_of_order_dividing():
    assert len(characters_of_order_dividing(7, 3)) == 3
    assert len(characters_of_order_dividing(24, 2)) == 8
    assert len(characters_of_order_dividing(5, 3)) == 1


def test_orthogonality():
    for m in range(1, 101):
        for chi in character_group(m):
            if chi.is_trivial():
                continue
            # sum_a chi(a) = sum_e #{a : chi(a) = zeta^e} zeta^e, reduced
            # mod Phi_order by the oracle
            counts = [0] * chi.order
            for _, e in chi.exponent_items():
                counts[e] += 1
            assert not any(reduce_fraction_poly(counts, chi.order)), (m, chi)


def test_multiplicativity_enforced():
    with pytest.raises(ValueError):
        DirichletCharacter.from_values(35, 2, _tampered_map())


def _tampered_map():
    chi = quadratic_character(5)
    exps = {a: 0 for a in range(35) if gcd(a, 35) == 1}
    exps[6] = 1  # breaks chi(2) chi(3) = chi(6)
    return exps


# -- the linear character check against the exhaustive oracle ---------------

def pairwise_is_character(m, n, exps):
    """Exhaustive oracle: a -> exps[a] (mod n) is multiplicative on
    every pair of units mod m (which forces chi(1) = 1)."""
    units = sorted(exps)
    return all(
        (exps[u * v % m] - exps[u] - exps[v]) % n == 0
        for i, u in enumerate(units)
        for v in units[i:]
    )


def linear_check_accepts(m, n, exps):
    try:
        DirichletCharacter.from_values(m, n, exps)
    except ValueError:
        return False
    return True


def linear_map(m, n, t):
    """u -> sum_i t_i dlog_i(u) mod n: linear in the stored discrete
    logs, but a character only when o_i t_i = 0 (mod n) for every i."""
    gens, units = unit_group_dlogs(m)
    return {
        u: sum(ti * dlog[u] for (_, _, dlog), ti in zip(gens, t)) % n
        for u in units
    }


@lru_cache(maxsize=None)
def cached_group(m):
    return tuple(character_group(m))


def test_lifted_generators_have_basis_dlogs():
    for m in range(1, 201):
        gens, units = unit_group_dlogs(m)
        for i, (b, order, _) in enumerate(gens):
            assert b in units
            assert pow(b, order, m) == 1 % m
            assert [dlog[b] for _, _, dlog in gens] == [
                int(i == j) for j in range(len(gens))
            ], (m, b)


def test_linear_check_accepts_every_character():
    for m in range(1, 61):
        for chi in cached_group(m):
            for scale in (1, 2, 3):
                n = chi.order * scale
                exps = {a: e * scale for a, e in chi.exponent_items()}
                assert pairwise_is_character(m, n, exps)
                assert DirichletCharacter.from_values(m, n, exps) == chi


def test_linear_check_rejects_wrap_around():
    # e(u) = dlog(u) mod 4 for the primitive root 3 mod 7: linear in the
    # stored dlogs, but chi(3)^6 = zeta_4^6 != 1
    exps = linear_map(7, 4, (1,))
    assert not pairwise_is_character(7, 4, exps)
    with pytest.raises(ValueError):
        DirichletCharacter.from_values(7, 4, exps)


def test_linear_check_matches_oracle_on_dlog_maps():
    for m in range(1, 61):
        rank = len(_local_generators(m))
        for n in range(1, 13):
            for i in range(rank):
                exps = linear_map(m, n, tuple(int(i == j) for j in range(rank)))
                assert linear_check_accepts(m, n, exps) == pairwise_is_character(
                    m, n, exps
                ), (m, n, i)


def test_every_construction_path_rejects_a_non_character(tmp_path):
    CharacterOrbit.of.cache_clear()  # so that CharacterOrbit.of below builds
    values = [[a, e] for a, e in sorted(_tampered_map().items())]
    path = write_char(tmp_path, "bad35.json", {"modulus": 35, "order": 2, "values": values})
    for build in (
        # 3 has order 6 mod 7, and zeta_4^6 != 1
        lambda: DirichletCharacter(7, 4, (((7, 3), 1),)),
        lambda: DirichletCharacter(63, 9, (((3, 2), 1),)),
        # 7 does not divide 15; 5 is no generator mod 4, nor -1 mod 2
        lambda: DirichletCharacter(15, 2, (((7, 3), 1),)),
        lambda: DirichletCharacter(4, 2, (((2, 5), 1),)),
        lambda: DirichletCharacter(2, 2, (((2, -1), 1),)),
        lambda: DirichletCharacter(15, 2, (((3, 2), 1), ((3, 2), 1))),
        # used to be floored silently to the trivial character mod 15
        lambda: CharacterOrbit.of(15, (((3, 2), 1),), 4),
        lambda: DirichletCharacter.from_values(35, 2, _tampered_map()),
        lambda: parse_character_file(path),
    ):
        with pytest.raises(ValueError):
            build()


def test_an_orbit_walks_the_units_once_and_checks_no_value_map(monkeypatch):
    from evenk import cyclodirichlet
    from evenk.kgroups import CyclicPrime

    calls = []

    def checked(*args):
        calls.append(args)

    monkeypatch.setattr(cyclodirichlet, "_check_homomorphism", checked)
    caches = {
        name: getattr(obj, "__func__", obj)
        for name, obj in [*vars(cyclodirichlet).items(), ("of", vars(CharacterOrbit)["of"])]
        if hasattr(getattr(obj, "__func__", obj), "cache_info")
        and getattr(obj, "__module__", None) == cyclodirichlet.__name__
    }
    for cache in caches.values():
        cache.cache_clear()
    (orbit,) = CyclicPrime(5, 1181, 0).character_orbits()
    chi = orbit.representative
    assert chi.order == 5 and chi.is_primitive()
    assert calls == []
    # the unit table is the character's own: no cache keyed by the
    # modulus holds units or discrete logs
    assert len(chi.exponent_items()) == euler_phi(1181)
    filled = {name for name, cache in caches.items() if cache.cache_info().currsize}
    assert filled <= {"euler_phi", "_primitive_orbit_coordinates", "of"}
    assert not hasattr(cyclodirichlet, "_unit_group_data")


@pytest.mark.parametrize("m", range(1, 61))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_linear_check_matches_oracle_on_tampered_characters(m, data):
    chi = data.draw(st.sampled_from(cached_group(m)))
    scale = data.draw(st.integers(1, 3))
    n = chi.order * scale
    assume(n > 1)
    exps = {a: e * scale for a, e in chi.exponent_items()}
    a = data.draw(st.sampled_from(sorted(exps)))
    exps[a] = (exps[a] + data.draw(st.integers(1, n - 1))) % n
    assert linear_check_accepts(m, n, exps) == pairwise_is_character(m, n, exps)


@pytest.mark.parametrize("m", range(1, 61))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_linear_check_matches_oracle_on_random_dlog_maps(m, data):
    n = data.draw(st.integers(1, 24))
    rank = len(_local_generators(m))
    t = tuple(data.draw(st.integers(0, n - 1)) for _ in range(rank))
    exps = linear_map(m, n, t)
    assert linear_check_accepts(m, n, exps) == pairwise_is_character(m, n, exps)


# -- conductors and primitive parts -------------------------------------------

def test_conductor_examples():
    trivial12 = next(c for c in character_group(12) if c.is_trivial())
    assert trivial12.conductor() == 1
    chi8 = next(
        c
        for c in character_group(8)
        if c.exponent(7) == 0 and not c.is_trivial()
    )
    assert set(a for a in (1, 7) if chi8.exponent(a) == 0) == {1, 7}
    assert chi8.conductor() == 8
    # induce the quadratic character mod 5 up to modulus 15
    chi5 = quadratic_character(5)
    induced = DirichletCharacter.from_values(
        15,
        2,
        {a: chi5.exponent(a % 5) for a in range(15) if gcd(a, 15) == 1},
    )
    assert induced.conductor() == 5
    assert induced.primitive_part() == chi5


def test_coordinates_give_the_values_conductor_and_primitive_part():
    # every character mod m <= 200 reaches 2-parts 2 through 128
    two_parts = set()
    for m in range(1, 201):
        for chi in cached_group(m):
            walked = walked_values(chi)
            assert chi.exponent_items() == tuple(sorted(walked.items())), (m, chi)
            assert chi.exponent_items() == tuple(dlog_values(chi).items()), (m, chi)
            assert chi.conductor() == conductor_by_divisors(chi), (m, chi)
            assert chi.primitive_part() == primitive_part_by_units(chi), (m, chi)
            assert chi.is_even() == (walked[(m - 1) % m] == 0), (m, chi)
        two_parts.add(m & -m)
    assert {2, 4, 8, 16, 32, 64, 128} <= two_parts


def is_fundamental(d):
    """d a fundamental discriminant of either sign (d != 1)."""
    def squarefree(n):
        return all(n % (p * p) for p in range(2, isqrt(n) + 1))

    if d % 4 == 1:
        return d != 1 and squarefree(abs(d))
    return d % 16 in (8, 12) and squarefree(abs(d) // 4)


def test_quadratic_character_is_the_kronecker_symbol_at_every_unit():
    discriminants = [d for d in range(-1999, 2000) if is_fundamental(d)]
    assert min(discriminants) < -1990 and max(discriminants) > 1990
    for d in discriminants:
        assert quadratic_character(d) == kronecker_character_by_units(d), d
    for d in set(range(-1999, 2000)) - set(discriminants) - {1}:
        with pytest.raises(ValueError):
            kronecker_coordinates(d)


@pytest.mark.parametrize("d", [3, -12, 20, 9])
def test_quadratic_character_rejects_d_that_is_no_fundamental_discriminant(d):
    # (3|7) = -1, yet a character mod 3 is 1 at 7 = 1 mod 3
    for build in (kronecker_coordinates, quadratic_character):
        with pytest.raises(ValueError, match="not 1 or a fundamental discriminant"):
            build(d)


def test_quadratic_characters_even_and_primitive():
    for d in (5, 8, 12, 13, 24, 40, 60, 120):
        chi = quadratic_character(d)
        assert chi.order == 2
        assert chi.is_even()
        assert chi.conductor() == d


# -- generalized Bernoulli numbers ---------------------------------------------

def gen_bernoulli_naive(chi, n):
    """Direct f^(n-1) sum chi(a) B_n(a/f) with no Horner shortcut."""
    f = chi.modulus
    total = FractionCyclotomic.from_rational(0, chi.order)
    for a in range(1, f + 1):
        e = chi.exponent(a)
        if e is None:
            continue
        term = FractionCyclotomic.root_of_unity(chi.order, e) * bernoulli_poly_value(
            n, a, f
        )
        total = total + term
    return total * Fraction(f) ** (n - 1)


def trivial_character():
    return character_group(1)[0]


def test_gen_bernoulli_examples():
    assert gen_bernoulli(trivial_character(), 2).as_rational() == Fraction(1, 6)
    assert gen_bernoulli(quadratic_character(5), 2).as_rational() == Fraction(4, 5)
    assert gen_bernoulli(quadratic_character(8), 2).as_rational() == Fraction(2)


def test_gen_bernoulli_matches_bernoulli_for_trivial_character():
    chi = trivial_character()
    for n in range(2, 31):
        assert gen_bernoulli(chi, n).as_rational() == bernoulli(n)
    # n = 1 is the classical exception: the defining sum gives +1/2
    assert gen_bernoulli(chi, 1).as_rational() == Fraction(1, 2)


def test_gen_bernoulli_matches_naive_sum():
    for m in (1, 5, 7, 8, 9, 12, 13):
        for chi in character_group(m):
            if not chi.is_primitive():
                continue
            for n in range(1, 7):
                assert agrees(gen_bernoulli(chi, n), gen_bernoulli_naive(chi, n)), (m, n)


def test_gen_bernoulli_odd_vanishing_for_even_characters():
    for m in range(1, 51):
        for chi in character_group(m):
            if not (chi.is_primitive() and chi.is_even()):
                continue
            for n in (3, 5, 7, 9):
                assert gen_bernoulli(chi, n).as_rational() == 0, (m, n)
            if not chi.is_trivial():
                assert gen_bernoulli(chi, 1).as_rational() == 0


def test_gen_bernoulli_rejects_imprimitive():
    trivial12 = next(c for c in character_group(12) if c.is_trivial())
    with pytest.raises(ImprimitiveCharacter):
        gen_bernoulli(trivial12, 2)


# -- L-values and orbit products ----------------------------------------------

def test_l_value_examples():
    assert l_value(quadratic_character(5), 1).as_rational() == Fraction(-2, 5)
    assert l_value(quadratic_character(8), 1).as_rational() == Fraction(-1)
    assert l_value(trivial_character(), 1).as_rational() == Fraction(-1, 12)


def test_orbit_l_product_examples():
    assert orbit_l_product(CharacterOrbit(quadratic_character(5)), 1) == Fraction(-2, 5)
    assert orbit_l_product(CharacterOrbit(quadratic_character(8)), 1) == Fraction(-1)
    cubic7 = primitive_orbits_of_order(7, 3)
    assert len(cubic7) == 1
    assert orbit_l_product(cubic7[0], 1) == Fraction(4, 7)


def test_orbit_l_product_representative_invariance():
    orbit = primitive_orbits_of_order(7, 3)[0]
    for chi in conjugates(orbit.representative):
        assert orbit_l_product(CharacterOrbit(chi), 1) == Fraction(4, 7)
        assert orbit_l_product(CharacterOrbit(chi), 3) == orbit_l_product(orbit, 3)


def test_primitive_orbit_counts():
    assert len(primitive_orbits_of_order(9, 3)) == 1
    assert len(primitive_orbits_of_order(63, 3)) == 2
    orbits = primitive_orbits_of_order(63, 3)
    assert all(o.representative.conductor() == 63 for o in orbits)


# conductor ranges per odd prime p; p = 11 reaches 23 * 67, its first
# conductor with several orbits (for p = 13 that is 53 * 79, too slow
# for the oracle here)
ORBIT_RANGES = ((3, 1500), (5, 1000), (7, 1000), (11, 1600), (13, 1000))


def _oracle_orbits(p, bound):
    """(f, orbits) for every conductor 3 <= f < bound of order-p
    characters, the orbits built and sorted by the oracle."""
    from evenk.winv import cyclic_conductor_is_valid

    for f in range(3, bound):
        if cyclic_conductor_is_valid(p, f):
            yield f, primitive_orbits_by_sorting(f, p)


def test_primitive_orbits_match_the_build_and_sort_oracle():
    several = 0
    for p, bound in ORBIT_RANGES:
        for f, expected in _oracle_orbits(p, bound):
            orbits = primitive_orbits_of_order(f, p)
            assert orbits == expected, (p, f)
            several += len(orbits) > 1
    assert several > 50
    # no order-3 character has conductor 10 or 49
    assert primitive_orbits_of_order(10, 3) == primitive_orbits_of_order(49, 3) == ()


def test_primitive_orbits_of_order_needs_an_odd_prime():
    for p in (2, 9):
        with pytest.raises(ValueError, match="odd prime"):
            primitive_orbits_of_order(5, p)


def test_primitive_orbit_index_matches_the_built_orbits():
    from evenk.siegel import is_fundamental_discriminant

    checked = 0
    for f in range(3, 400):
        if is_fundamental_discriminant(f):
            key = orbit_key(local_coordinates(quadratic_character(f), 2), 2)
            assert primitive_orbit_index(key, 2) == (f, 0), f
    for p, bound in ORBIT_RANGES:
        for f, orbits in _oracle_orbits(p, bound):
            for i, orbit in enumerate(orbits):
                for chi in conjugates(orbit.representative):
                    key = orbit_key(local_coordinates(chi, p), p)
                    assert primitive_orbit_index(key, p) == (f, i), (p, f, i)
                    checked += 1
    assert checked > 1000


def test_local_coordinates_are_additive_and_intrinsic():
    chars = characters_of_order_dividing(63, 3)
    for a in chars:
        for b in chars:
            summed = orbit_key(local_coordinates(a, 3) + local_coordinates(b, 3), 3)
            product = character_product(a, b)
            assert orbit_key(local_coordinates(product, 3), 3) == summed
        assert local_coordinates(a.primitive_part(), 3) == local_coordinates(a, 3)


def test_character_orbit_of_rebuilds_every_character_from_its_local_coordinates():
    # orders 2, 3 and 4 for every m <= 200 reach 2 || m (no coordinate at
    # 2), 4 || m (-1 only) and 8 | m (-1 and 5)
    two_parts = set()
    for m in range(1, 201):
        for n in (2, 3, 4):
            for chi in characters_of_order_dividing(m, n):
                if chi.order == n:
                    orbit = CharacterOrbit.of(m, local_coordinates(chi, n), n)
                    assert orbit.representative == chi, (m, chi)
                    two_parts.add(m & -m)
    assert {2, 4, 8, 16, 32, 64, 128} <= two_parts


def per_conjugate_l_product(orbit, k):
    """The orbit product with one generalized Bernoulli number per
    conjugate, as orbit_l_product computed it before."""
    values = [l_value(chi.primitive_part(), k) for chi in conjugates(orbit.representative)]
    return prod(values[1:], start=values[0]).as_rational()


def test_orbit_l_product_matches_per_conjugate_product():
    checked = 0
    for f in range(1, 101):
        seen = set()
        for chi in cached_group(f):
            if chi.is_trivial() or not chi.is_even() or chi in seen:
                continue
            orbit = CharacterOrbit(chi)
            seen.update(conjugates(chi))
            if not chi.is_primitive():
                continue
            for k in (1, 2):
                assert orbit_l_product(orbit, k) == per_conjugate_l_product(
                    orbit, k
                ), (f, chi.order, k)
            checked += 1
    assert checked == 188  # nontrivial primitive even orbits, conductor <= 100


def test_orbit_l_product_of_imprimitive_orbits():
    for chi in cached_group(63):
        if chi.is_trivial() or not chi.is_even() or chi.is_primitive():
            continue
        orbit = CharacterOrbit(chi)
        assert orbit_l_product(orbit, 2) == per_conjugate_l_product(orbit, 2)


def test_orbit_l_product_rejects_trivial():
    with pytest.raises(ValueError):
        orbit_l_product(CharacterOrbit(trivial_character()), 1)


# -- character files -----------------------------------------------------------

def write_char(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_parse_trivial_character(tmp_path):
    path = write_char(
        tmp_path, "trivial.json", {"modulus": 1, "order": 1, "values": [[0, 0]]}
    )
    chars = parse_character_file(path)
    assert len(chars) == 1 and chars[0].is_trivial()


def test_parse_quadratic_mod5(tmp_path):
    path = write_char(
        tmp_path,
        "quad5.json",
        {"modulus": 5, "order": 2, "values": [[1, 0], [2, 1], [3, 1], [4, 0]]},
    )
    chars = parse_character_file(path)
    assert chars[0] == quadratic_character(5)


def test_parse_rejects_multiplicativity_violation(tmp_path):
    values = []
    for a in range(35):
        if gcd(a, 35) == 1:
            values.append([a, 1 if a == 6 else 0])
    path = write_char(
        tmp_path, "bad35.json", {"modulus": 35, "order": 2, "values": values}
    )
    with pytest.raises(CharacterFileError):
        parse_character_file(path)


def test_parse_rejects_bad_residue_lists(tmp_path):
    with pytest.raises(CharacterFileError):
        parse_character_file(
            write_char(
                tmp_path,
                "dup.json",
                {"modulus": 5, "order": 2,
                 "values": [[1, 0], [2, 1], [2, 1], [4, 0]]},
            )
        )
    with pytest.raises(CharacterFileError):
        parse_character_file(
            write_char(
                tmp_path,
                "missing.json",
                {"modulus": 5, "order": 2, "values": [[1, 0], [2, 1]]},
            )
        )
    with pytest.raises(CharacterFileError):
        parse_character_file(
            write_char(
                tmp_path,
                "range.json",
                {"modulus": 5, "order": 2,
                 "values": [[1, 0], [2, 3], [3, 1], [4, 0]]},
            )
        )
    with pytest.raises(CharacterFileError):
        parse_character_file(
            write_char(
                tmp_path,
                "order.json",
                {"modulus": 5, "order": 2,
                 "values": [[1, 0], [2, 1], [3, 1], [4, 1]]},
            )
        )


def test_parse_rejects_a_map_too_short_for_its_modulus_before_walking_units(
    monkeypatch, tmp_path
):
    from evenk import cyclodirichlet

    def no_walk(m):
        raise AssertionError(f"walked the units mod {m}")

    # every walk starts from the local generators' lifts
    monkeypatch.setattr(cyclodirichlet, "_local_generators", no_walk)
    # 10^12 fails phi(m) >= sqrt(m / 2) for one value; 10^6 passes it
    # for 800 values, but phi(10^6) = 400000
    for m, count in ((10**12, 1), (10**6, 800)):
        values = [[a, 0] for a in range(1, count + 1)]
        path = write_char(tmp_path, "short.json", {"modulus": m, "order": 2, "values": values})
        with pytest.raises(CharacterFileError, match="exactly the units"):
            parse_character_file(path)


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CharacterFileError):
        parse_character_file(path)
