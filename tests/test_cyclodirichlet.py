import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evenk.arith import bernoulli
from evenk.cyclodirichlet import (
    CharacterFileError,
    CharacterOrbit,
    DirichletCharacter,
    ImprimitiveCharacter,
    NotRational,
    character_group,
    characters_of_order_dividing,
    euler_phi,
    gen_bernoulli,
    kronecker_coordinates,
    orbit_l_product,
    parse_character_file,
    primitive_orbits_of_order,
    quadratic_character,
    _conjugate,
    _cyclic_product,
    _fixed_value,
    _galois_norm,
    _local_generators,
    basis_indices,
)
from oracles import (
    FractionCyclotomic,
    bernoulli_poly_value,
    character_product,
    conductor_by_divisors,
    conjugates,
    cyclic_conductor_by_factorization,
    cyclotomic_polynomial,
    dlog_values,
    exponent_table,
    galois_norm_by_conjugates,
    kronecker_character_by_units,
    local_coordinates,
    orbit_key,
    primitive_orbit_index,
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


# -- products in Z[x]/(x^n - 1) -------------------------------------------------

def unit(n, e):
    """The lift x^e of zeta_n^e."""
    lift = [0] * n
    lift[e % n] = 1
    return lift


def image(lift, den=1):
    """The image of a lift in Q(zeta_n), reduced by the Fraction oracle."""
    return FractionCyclotomic.from_lift(lift, den)


def test_root_of_unity_relations():
    assert image(_cyclic_product(unit(3, 1), unit(3, 2))) == 1
    # (1 + zeta_4)(1 - zeta_4) = 2
    assert image(_cyclic_product([1, 1, 0, 0], [1, -1, 0, 0])) == 2


def test_as_rational():
    # the value of a Galois-fixed lift, and NotRational for any other
    assert _fixed_value([7]) == 7
    assert _fixed_value([0, 1, 1]) == -1  # zeta_3 + zeta_3^2
    assert _fixed_value([5, 2, 3, 2]) == 2  # 5 - 3 + 2 (zeta_4 + zeta_4^3)
    with pytest.raises(NotRational):
        _fixed_value(unit(5, 1))
    with pytest.raises(NotRational):
        _fixed_value([0, 1, 0, 2])  # zeta_4 + 2 zeta_4^3


def test_fixed_value_is_the_oracle_image_of_every_fixed_lift():
    # a lift fixed by every sigma_i is constant on {j : gcd(j, n) = d};
    # moving one coordinate off a class of two or more breaks that
    for order in range(1, 61):
        divisors = [d for d in range(1, order + 1) if order % d == 0]
        for t_d in ([d * d - 3 for d in divisors], [(-2) ** d for d in divisors]):
            by_gcd = dict(zip(divisors, t_d))
            lift = [by_gcd[gcd(j, order)] for j in range(order)]
            assert _fixed_value(lift) == image(lift).as_rational(), (order, t_d)
            for j in range(order):
                if euler_phi(order // gcd(j, order)) > 1:
                    with pytest.raises(NotRational):
                        _fixed_value(lift[:j] + [lift[j] + 1] + lift[j + 1:])


def test_power_and_high_exponents():
    power = unit(8, 0)
    for k in range(12):
        assert power == unit(8, k)
        power = _cyclic_product(power, unit(8, 1))
    assert _cyclic_product(unit(7, 6), unit(7, 5)) == unit(7, 11)


def test_roots_of_unity_match_oracle():
    # zeta_n^e as a product of e copies of zeta_n, and as the conjugate
    # sigma_e(zeta_n) for a unit e
    for n in range(1, 61):
        power = unit(n, 0)
        for e in range(n + 2):
            assert image(power) == FractionCyclotomic.root_of_unity(n, e), (n, e)
            if gcd(e, n) == 1:
                assert image(_conjugate(unit(n, 1), e)) == FractionCyclotomic.root_of_unity(n, e)
            power = _cyclic_product(power, unit(n, 1))


LIFT_COORDINATES = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), st.integers(-10**20, 10**20))


@pytest.mark.parametrize("order", range(1, 61))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_oracle(order, data):
    # the images of the cyclic product and of the permutation sigma_i
    # are the oracle's product and conjugate of the images
    lifts = st.lists(LIFT_COORDINATES, min_size=order, max_size=order)
    a, b = data.draw(lifts), data.draw(lifts)
    den_a, den_b = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    oa, ob = image(a, den_a), image(b, den_b)
    assert image(_cyclic_product(a, b), den_a * den_b) == oa * ob
    assert _cyclic_product(a, b) == _cyclic_product(b, a)
    i = data.draw(st.sampled_from([i for i in range(1, order + 1) if gcd(i, order) == 1]))
    raw = [Fraction(0)] * order
    for j, c in enumerate(oa.coeffs):
        raw[i * j % order] = c
    sigma = FractionCyclotomic(order, reduce_fraction_poly(raw, order))
    assert image(_conjugate(a, i), den_a) == sigma
    # sigma_i is a ring automorphism of Z[x]/(x^n - 1), and sigma_i^-1 undoes it
    assert _conjugate(_cyclic_product(a, b), i) == _cyclic_product(
        _conjugate(a, i), _conjugate(b, i)
    )
    assert _conjugate(_conjugate(a, i), pow(i, -1, order)) == a


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
        assert len({frozenset(chi.units()) for chi in group}) == len(group)


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
            for _, e in chi.units():
                counts[e] += 1
            assert not any(reduce_fraction_poly(counts, chi.order)), (m, chi)


def test_multiplicativity_enforced():
    with pytest.raises(ValueError):
        DirichletCharacter.from_values(35, 2, _tampered_map())


def test_from_values_key_check_agrees_with_the_walked_units():
    # phi(m) distinct keys in [0, m), each prime to m, are the units the
    # trivial character walks; a map with one key replaced by a non-unit,
    # by itself plus or minus m, by m or by -1 is rejected
    for m in range(1, 121):
        units = walked_values(DirichletCharacter(m, 1)).keys()
        exps = dict.fromkeys(units, 0)
        assert DirichletCharacter.from_values(m, 1, exps).is_trivial()
        non_units = [a for a in range(m) if gcd(a, m) > 1][:3]
        for u in units:
            for r in (*non_units, u + m, m, u - m, -1):
                bad = {**{a: 0 for a in units if a != u}, r: 0}
                assert len(bad) == len(units) and bad.keys() != units, (m, u, r)
                with pytest.raises(ValueError, match="exactly the units"):
                    DirichletCharacter.from_values(m, 1, bad)


def _tampered_map():
    chi = quadratic_character(5)
    exps = {a: 0 for a in range(35) if gcd(a, 35) == 1}
    exps[6] = 1  # breaks chi(2) chi(3) = chi(6)
    return exps


def test_from_values_names_the_smallest_residue_at_which_the_map_fails():
    # the units are walked in no residue order, yet of two tampered
    # residues the smaller is reported, whichever comes first in the map
    lifts = {x for *_, x in _local_generators(35)}
    others = [a for a in range(35) if gcd(a, 35) == 1 and a not in lifts]
    for a, b in combinations(others, 2):
        for first, second in ((a, b), (b, a)):
            exps = {first: 1, second: 1}
            exps.update({u: 0 for u in range(35) if gcd(u, 35) == 1 and u not in exps})
            message = rf"^multiplicativity fails at {a} mod 35: chi\({a}\) disagrees with"
            with pytest.raises(ValueError, match=message):
                DirichletCharacter.from_values(35, 2, exps)


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
                exps = {a: e * scale for a, e in chi.units()}
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

    calls, walks = [], []
    units = DirichletCharacter.units

    def checked(*args):
        calls.append(args)

    def counted(self):
        walks.append(self.modulus)
        return units(self)

    monkeypatch.setattr(cyclodirichlet, "_check_homomorphism", checked)
    monkeypatch.setattr(DirichletCharacter, "units", counted)
    caches = {
        name: obj
        for name, obj in vars(cyclodirichlet).items()
        if hasattr(obj, "cache_info") and obj.__module__ == cyclodirichlet.__name__
    }
    for cache in caches.values():
        cache.cache_clear()
    (orbit,) = CyclicPrime(5, 1181, 0).character_orbits()
    chi = orbit.representative
    assert chi.order == 5 and chi.is_primitive() and chi.is_even()
    assert calls == [] and walks == []  # building it walks no unit
    orbit_l_product(orbit, 2)
    assert walks == [1181]  # its one L-value walks them once
    # the character is its coordinates, and no cache keeps one or holds
    # units or discrete logs keyed by the modulus
    assert DirichletCharacter.__slots__ == ("modulus", "order", "coords")
    for built in (vars(CharacterOrbit)["of"].__func__, quadratic_character):
        assert not hasattr(built, "cache_info")
    filled = {name for name, cache in caches.items() if cache.cache_info().currsize}
    # _primitive_root holds one int per prime, and no units or logs
    assert filled <= {"euler_phi", "_primitive_orbit_coordinates", "_primitive_root"}
    assert not hasattr(cyclodirichlet, "_unit_group_data")


def test_a_primitive_root_is_refused_when_q_minus_1_is_left_incomplete(monkeypatch):
    from evenk import cyclodirichlet
    from evenk.arith import PartialFactorization

    cyclodirichlet._primitive_root.cache_clear()
    monkeypatch.setattr(
        cyclodirichlet, "factorize", lambda n: PartialFactorization(((2, 2),), n // 4)
    )
    # q < 3.3e24, so a complete factorization of q - 1 is proved; an
    # incomplete one is refused, naming q
    with pytest.raises(ValueError, match="primitive root mod 4001304042773: q - 1 = 2"):
        cyclodirichlet._primitive_root(4001304042773)


@pytest.mark.parametrize("m", range(1, 61))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_linear_check_matches_oracle_on_tampered_characters(m, data):
    chi = data.draw(st.sampled_from(cached_group(m)))
    scale = data.draw(st.integers(1, 3))
    n = chi.order * scale
    assume(n > 1)
    exps = {a: e * scale for a, e in chi.units()}
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
        if exponent_table(c)[7] == 0 and not c.is_trivial()
    )
    assert set(a for a, e in chi8.units() if e == 0) == {1, 7}
    assert chi8.conductor() == 8
    # induce the quadratic character mod 5 up to modulus 15
    chi5 = quadratic_character(5)
    table5 = exponent_table(chi5)
    induced = DirichletCharacter.from_values(
        15,
        2,
        {a: table5[a % 5] for a in range(15) if gcd(a, 15) == 1},
    )
    assert induced.conductor() == 5
    assert induced.primitive_part() == chi5


def test_coordinates_give_the_values_conductor_and_primitive_part():
    # every character mod m <= 200 reaches 2-parts 2 through 128
    two_parts = set()
    for m in range(1, 201):
        for chi in cached_group(m):
            walked = walked_values(chi)
            table = exponent_table(chi)
            assert table == walked == dlog_values(chi), (m, chi)
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
    table = exponent_table(chi)
    total = FractionCyclotomic.from_rational(0, chi.order)
    for a in range(1, f + 1):
        e = table.get(a % f)
        if e is None:
            continue
        term = FractionCyclotomic.root_of_unity(chi.order, e) * bernoulli_poly_value(
            n, a, f
        )
        total = total + term
    return total * Fraction(f) ** (n - 1)


def trivial_character():
    return character_group(1)[0]


def b_image(chi, n):
    """B_{n,chi} in Q(zeta_order): the image of gen_bernoulli's lift."""
    lift, den = gen_bernoulli(chi, n)
    assert len(lift) == chi.order
    return image(lift, den)


def l_value(chi, k):
    """L(chi, 1-2k) = -B_{2k,chi} / (2k) in Q(zeta_order)."""
    return b_image(chi, 2 * k) * Fraction(-1, 2 * k)


def test_gen_bernoulli_examples():
    assert b_image(trivial_character(), 2).as_rational() == Fraction(1, 6)
    assert b_image(quadratic_character(5), 2).as_rational() == Fraction(4, 5)
    assert b_image(quadratic_character(8), 2).as_rational() == Fraction(2)


def test_gen_bernoulli_matches_bernoulli_for_trivial_character():
    chi = trivial_character()
    for n in range(2, 31):
        assert b_image(chi, n).as_rational() == bernoulli(n)
    # n = 1 is the classical exception: the defining sum gives +1/2
    assert b_image(chi, 1).as_rational() == Fraction(1, 2)


def test_gen_bernoulli_matches_naive_sum():
    for m in (1, 5, 7, 8, 9, 12, 13):
        for chi in character_group(m):
            if not chi.is_primitive():
                continue
            for n in range(1, 7):
                assert b_image(chi, n) == gen_bernoulli_naive(chi, n), (m, n)


def test_gen_bernoulli_odd_vanishing_for_even_characters():
    for m in range(1, 51):
        for chi in character_group(m):
            if not (chi.is_primitive() and chi.is_even()):
                continue
            for n in (3, 5, 7, 9):
                assert b_image(chi, n).as_rational() == 0, (m, n)
            if not chi.is_trivial():
                assert b_image(chi, 1).as_rational() == 0


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cyclic_conductors_are_the_conductors_of_the_local_generators(p):
    # the coordinate rule against the rule on the factorization
    from evenk.cyclodirichlet import cyclic_conductor_is_valid

    for f in range(5000):
        assert cyclic_conductor_is_valid(p, f) == cyclic_conductor_by_factorization(p, f), f


# conductor ranges per odd prime p; p = 11 reaches 23 * 67, its first
# conductor with several orbits (for p = 13 that is 53 * 79, too slow
# for the oracle here)
ORBIT_RANGES = ((3, 1500), (5, 1000), (7, 1000), (11, 1600), (13, 1000))


def _oracle_orbits(p, bound):
    """(f, orbits) for every conductor 3 <= f < bound of order-p
    characters, the orbits built and sorted by the oracle."""
    from evenk.cyclodirichlet import cyclic_conductor_is_valid

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


def test_subgroup_log_inverts_powers_without_a_table_of_p_powers():
    from evenk.cyclodirichlet import _subgroup_log

    # q = 44 p + 1 is prime for p = 10^9 + 7: a table of p powers would
    # not fit in memory
    for p, q in ((3, 7), (5, 11), (7, 29), (100003, 4200127), (1000000007, 44000000309)):
        h = pow(2, (q - 1) // p, q)
        assert h != 1
        log = _subgroup_log(h, p, q)
        for j in {0, 1, 2, p // 2, p - 2, p - 1}:
            assert log(pow(h, j, q)) == j, (p, j)
        with pytest.raises(ArithmeticError):
            log(q - 1)  # -1 has order 2, so it is no power of h


def test_a_cyclic_field_of_large_prime_degree_states_its_orbit():
    from evenk.kgroups import CyclicPrime, w_invariant
    from oracles import w_case_analysis

    p, f = 1000000007, 44000000309
    spec = CyclicPrime(p, f)
    ((conductor, order, _),) = spec.orbits()
    assert (conductor, order, spec.degree()) == (f, p, p)
    # (f - 1)/p = 44 divides 2k = 44, so f divides w_44
    assert dict(w_invariant(spec, 22).factored) == w_case_analysis(p, (f,), 22)
    assert dict(w_invariant(spec, 22).factored)[f] == 1
    with pytest.raises(ValueError, match="orbit index"):
        CyclicPrime(p, f, 1)


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


def test_the_galois_norm_doubles_to_the_product_of_the_conjugates():
    # composite orders, with cyclic and non-cyclic (Z/n)^*; the product
    # one conjugate at a time is the reference
    import random

    rng = random.Random(0)
    orders = list(range(2, 41)) + [48, 56, 60, 63, 64, 72, 84, 96, 105, 112, 120]
    for n in orders:
        lift = [rng.randint(-3, 3) for _ in range(n)]
        assert _galois_norm(lift) == galois_norm_by_conjugates(lift), n
    # and the lifts the L-values give, at orders 8, 12, 16, 24 and 48
    for n in (8, 12, 16, 24, 48):
        chi = DirichletCharacter(97, n, [((97, 5), 1)])
        assert chi.order == n
        lift, _ = gen_bernoulli(chi, 2)
        assert _galois_norm(lift) == galois_norm_by_conjugates(lift), n


def test_basis_indices_yields_each_index_that_raises_the_rank():
    a, b = (((2, -1), 1), ((3, 2), 1)), (((2, 5), 1),)
    ab = (((2, -1), 1), ((2, 5), 1), ((3, 2), 1))
    assert list(basis_indices([a, b, ab, a], 2)) == [0, 1]
    assert list(basis_indices([a, ab, (), b, (((5, 2), 1),)], 2)) == [0, 1, 4]
    # over F_3, 2a + b is in the span of a and b, and a + b + c is not
    # in that of a and b
    a, b, c = (((7, 3), 1),), (((3, 2), 1),), (((13, 2), 2),)
    assert list(basis_indices([a, b, (((7, 3), 2), ((3, 2), 1)), a + b + c], 3)) == [0, 1, 3]


def test_orbit_l_product_of_imprimitive_orbits():
    for chi in cached_group(63):
        if chi.is_trivial() or not chi.is_even() or chi.is_primitive():
            continue
        orbit = CharacterOrbit(chi)
        assert orbit_l_product(orbit, 2) == per_conjugate_l_product(orbit, 2)


def test_orbit_l_product_rejects_trivial():
    with pytest.raises(ValueError):
        orbit_l_product(CharacterOrbit(trivial_character()), 1)


def test_orbit_l_product_rejects_odd_characters_and_k_below_1():
    for chi in (quadratic_character(-4), quadratic_character(-3), character_group(7)[1]):
        assert not chi.is_even()
        with pytest.raises(ValueError, match="odd characters do not belong to totally real fields"):
            orbit_l_product(CharacterOrbit(chi), 1)
    with pytest.raises(ValueError, match="requires k >= 1"):
        orbit_l_product(CharacterOrbit(quadratic_character(5)), 0)


def test_an_orbit_l_product_keeps_no_table_of_units():
    # the 100002 units mod 100003 are walked where they are summed: the
    # character, its one generalized Bernoulli number and the product
    # over its conjugates take a few KB, not a table per unit
    import tracemalloc
    from evenk.kgroups import CyclicPrime

    spec = CyclicPrime(3, 100003)
    tracemalloc.start()
    try:
        (orbit,) = spec.character_orbits()
        value = orbit_l_product(orbit, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.denominator > 0 and value != 0
    assert peak < 64 * 1024, peak


def test_orbit_l_product_raises_not_rational_on_a_product_that_is_not_galois_fixed(monkeypatch):
    from evenk import cyclodirichlet

    cubic7 = primitive_orbits_of_order(7, 3)[0]
    product = cyclodirichlet._cyclic_product

    def perturbed(a, b):
        out = product(a, b)
        out[1] += 1
        return out

    monkeypatch.setattr(cyclodirichlet, "_cyclic_product", perturbed)
    with pytest.raises(NotRational):
        orbit_l_product(cubic7, 1)


# -- character files -----------------------------------------------------------

def write_char(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_parse_trivial_character(tmp_path):
    path = write_char(
        tmp_path, "trivial.json", {"modulus": 1, "order": 1, "values": [[0, 0]]}
    )
    assert parse_character_file(path).is_trivial()


def test_parse_quadratic_mod5(tmp_path):
    path = write_char(
        tmp_path,
        "quad5.json",
        {"modulus": 5, "order": 2, "values": [[1, 0], [2, 1], [3, 1], [4, 0]]},
    )
    assert parse_character_file(path) == quadratic_character(5)


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
