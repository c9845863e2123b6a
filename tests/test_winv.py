import pytest

from field_enum import two_elementary_fields
from oracles import w_case_analysis, w_rational_by_all_primes
from evenk.arith import PartialFactorization
from evenk.cyclodirichlet import cyclic_conductor_is_valid
from evenk.kgroups import CyclicPrime, RealQuadratic
from evenk.siegel import fundamental_discriminant, is_fundamental_discriminant
from evenk.winv import (
    w_cyclic,
    w_elementary,
    w_from_orbits,
    w_quadratic,
    w_rational,
)

# the four cubic subfields of the compositum of conductors 7 and 9
DEGREE9_PARTS = (CyclicPrime(3, 7), CyclicPrime(3, 9), CyclicPrime(3, 63), CyclicPrime(3, 63, 1))


def quads(discs):
    return [RealQuadratic(d) for d in discs]


def test_w_rational_examples():
    assert w_rational(1).value == 24
    assert w_rational(2).value == 240
    assert w_rational(6).value == 65520
    assert dict(w_rational(6).factored) == {2: 4, 3: 2, 5: 1, 7: 1, 13: 1}


def test_w_rational_over_the_divisors_of_2k_is_the_all_primes_formula():
    for k in range(1, 3001):
        assert list(w_rational(k).factored) == list(w_rational_by_all_primes(k).items()), k


def test_w_rational_at_a_power_of_two_runs_over_the_fermat_primes():
    # 2k = 2^61: d + 1 is prime for d = 1 and for d = 2^(2^j), j <= 4
    assert dict(w_rational(2**60).factored) == {2: 63, 3: 1, 5: 1, 17: 1, 257: 1, 65537: 1}


def test_w_rational_at_a_large_k_walks_no_prime_table():
    # the primes up to 2k + 1 = 2·10^7 + 1 would take tens of MB
    import tracemalloc

    tracemalloc.start()
    try:
        w = w_rational(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    parts = dict(w.factored)
    assert parts[2] == 10 and parts[160001] == 1
    assert peak < 2**20, peak


def test_w_quadratic_examples():
    assert w_quadratic(5, 1).value == 120
    assert w_quadratic(8, 1).value == 48
    assert w_quadratic(12, 1).value == 24


def test_w_cyclic_examples():
    assert w_cyclic(3, 7, 1).value == 168
    assert w_cyclic(3, 9, 1).value == 72
    assert w_cyclic(3, 13, 1).value == 24


def test_w_cyclic_validation():
    assert cyclic_conductor_is_valid(3, 63)
    assert not cyclic_conductor_is_valid(3, 27)
    assert not cyclic_conductor_is_valid(3, 11)
    with pytest.raises(ValueError):
        w_cyclic(3, 11, 1)
    with pytest.raises(ValueError):
        w_cyclic(2, 5, 1)


def test_w_elementary_examples():
    assert w_elementary(2, quads([8, 12, 24]), 1).value == 48
    assert w_elementary(2, quads([12, 5, 60]), 1).value == 120
    assert w_elementary(2, quads([8, 12, 5, 24, 40, 60, 120]), 1).value == 240


def test_w_elementary_rejects_bad_counts():
    with pytest.raises(ValueError):
        w_elementary(2, quads([8, 12]), 1)
    with pytest.raises(ValueError, match="cyclic degree-2"):
        w_elementary(2, [CyclicPrime(3, 7), RealQuadratic(12), RealQuadratic(5)], 1)


def test_w_elementary_rejects_parts_that_are_no_fields_subfields():
    # the counts are right, but the parts are not closed under products
    with pytest.raises(ValueError) as info:
        w_elementary(2, quads([5, 13, 8]), 1)
    assert str(info.value) == (
        "quad:8 is not a subfield of the field that quad:5 and quad:13 generate"
    )
    parts = [CyclicPrime(3, f) for f in (7, 13, 19, 31)]
    with pytest.raises(ValueError) as info:
        w_elementary(3, parts, 1)
    assert str(info.value) == (
        "cyclic:3:19 is not a subfield of the field that cyclic:3:7 and cyclic:3:13 generate"
    )


def test_multiplicativity_identity_two_elementary():
    fields = two_elementary_fields(120, 2) + two_elementary_fields(120, 3)
    assert fields, "enumeration found no fields"
    for discs in fields:
        n = 2 if len(discs) == 3 else 3
        exponent = (2**n - 2) // (2 - 1)
        for k in range(1, 11):
            lhs = w_rational(k).value ** exponent * w_elementary(2, quads(discs), k).value
            rhs = 1
            for d in discs:
                rhs *= w_quadratic(d, k).value
            assert lhs == rhs, (discs, k)


def test_multiplicativity_identity_three_elementary():
    for k in range(1, 11):
        lhs = w_rational(k).value ** 3 * w_elementary(3, DEGREE9_PARTS, k).value
        rhs = 1
        for part in DEGREE9_PARTS:
            rhs *= w_cyclic(3, part.f, k).value
        assert lhs == rhs, k


def test_part_support():
    # every prime in the decomposition satisfies (l - 1) | 2k * degree
    cases = [
        (1, lambda k: w_rational(k)),
        (2, lambda k: w_quadratic(5, k)),
        (2, lambda k: w_quadratic(8, k)),
        (2, lambda k: w_quadratic(60, k)),
        (3, lambda k: w_cyclic(3, 7, k)),
        (3, lambda k: w_cyclic(3, 9, k)),
        (3, lambda k: w_cyclic(3, 63, k)),
    ]
    for degree, build in cases:
        for k in range(1, 13):
            w = build(k)
            for ell, _ in w.factored:
                assert (2 * k * degree) % (ell - 1) == 0, (degree, k, ell)


def test_winvariant_consistency_check():
    with pytest.raises(ValueError):
        PartialFactorization(((2, 3), (3, 0)))


def test_w_formula_matches_case_analysis():
    # every quad:D with D < 2000, every cyclic:p:f with p <= 13 and
    # f < 3000, and the elementary fields of the test suite, k = 1..39
    ks = range(1, 40)
    for k in ks:
        assert dict(w_rational(k).factored) == w_case_analysis(2, (), k)
    for d in range(2, 2000):
        if is_fundamental_discriminant(d):
            for k in ks:
                assert dict(w_quadratic(d, k).factored) == w_case_analysis(2, (d,), k)
    for p in (3, 5, 7, 11, 13):
        for f in range(3, 3000):
            if cyclic_conductor_is_valid(p, f):
                for k in ks:
                    got = dict(w_cyclic(p, f, k).factored)
                    assert got == w_case_analysis(p, (f,), k), (p, f, k)
    fields = [(3, DEGREE9_PARTS)]
    fields += [
        (2, quads(fundamental_discriminant(x) for x in (2, 3, m, 6, 2 * m, 3 * m, 6 * m)))
        for m in (5, 7, 11, 13, 17, 19)
    ]
    fields += [(2, quads(discs)) for discs in two_elementary_fields(120, 2)]
    fields += [(2, quads(discs)) for discs in two_elementary_fields(120, 3)]
    for p, parts in fields:
        conductors = [part.conductor() for part in parts]
        for k in ks:
            got = dict(w_elementary(p, parts, k).factored)
            assert got == w_case_analysis(p, conductors, k), (conductors, k)


def test_w_formula_beyond_the_case_analysis():
    # Q(zeta_16)^+ is cyclic quartic with orbits of conductor 8 (sqrt 2)
    # and 16 (two characters of order 4): 2^(c-2) = 4, so c = 4
    assert dict(w_from_orbits(((8, 1), (16, 2)), 1).factored) == {2: 5, 3: 1}
    # the degree-9 subfield of Q(zeta_27): p-part 3^(3 + v_3(k))
    assert dict(w_from_orbits(((9, 2), (27, 6)), 1).factored)[3] == 3
    with pytest.raises(ValueError):
        w_from_orbits(((5, 1), (5, 1)), 1)
    with pytest.raises(ValueError):
        w_from_orbits((), 0)
