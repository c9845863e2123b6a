import pytest

from field_enum import two_elementary_fields
from oracles import w_case_analysis
from evenk.kgroups import CyclicPrime, RealQuadratic
from evenk.siegel import fundamental_discriminant, is_fundamental_discriminant
from evenk.winv import (
    WInvariant,
    cyclic_conductor_is_valid,
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
    assert w_rational(6).parts == {2: 4, 3: 2, 5: 1, 7: 1, 13: 1}


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
    with pytest.raises(ValueError, match="generate quad:65, which is not a part"):
        w_elementary(2, quads([5, 13, 8]), 1)
    parts = [CyclicPrime(3, f) for f in (7, 13, 19, 31)]
    with pytest.raises(ValueError, match="generate cyclic:3:91, which is not a part"):
        w_elementary(3, parts, 1)


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
            for ell in w.parts:
                assert (2 * k * degree) % (ell - 1) == 0, (degree, k, ell)


def test_winvariant_consistency_check():
    with pytest.raises(ValueError):
        WInvariant(24, {2: 3})
    with pytest.raises(ValueError):
        WInvariant(24, {2: 3, 3: 0})


def test_w_formula_matches_case_analysis():
    # every quad:D with D < 2000, every cyclic:p:f with p <= 13 and
    # f < 3000, and the elementary fields of the test suite, k = 1..39
    ks = range(1, 40)
    for k in ks:
        assert w_rational(k).parts == w_case_analysis(2, (), k)
    for d in range(2, 2000):
        if is_fundamental_discriminant(d):
            for k in ks:
                assert w_quadratic(d, k).parts == w_case_analysis(2, (d,), k)
    for p in (3, 5, 7, 11, 13):
        for f in range(3, 3000):
            if cyclic_conductor_is_valid(p, f):
                for k in ks:
                    got = w_cyclic(p, f, k).parts
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
            got = w_elementary(p, parts, k).parts
            assert got == w_case_analysis(p, conductors, k), (conductors, k)


def test_w_formula_beyond_the_case_analysis():
    # Q(zeta_16)^+ is cyclic quartic with orbits of conductor 8 (sqrt 2)
    # and 16 (two characters of order 4): 2^(c-2) = 4, so c = 4
    assert w_from_orbits(((8, 1), (16, 2)), 1).parts == {2: 5, 3: 1}
    # the degree-9 subfield of Q(zeta_27): p-part 3^(3 + v_3(k))
    assert w_from_orbits(((9, 2), (27, 6)), 1).parts[3] == 3
    with pytest.raises(ValueError):
        w_from_orbits(((5, 1), (5, 1)), 1)
    with pytest.raises(ValueError):
        w_from_orbits((), 0)
