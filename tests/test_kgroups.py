from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenk.kgroups import (
    CubicParameters,
    CyclicPrime,
    Elementary,
    NoRepresentation,
    NonIntegralOrder,
    Rationals,
    RealQuadratic,
    UnsupportedField,
    combine_elementary,
    cubic_from_conductor,
    elementary_order_via_characters,
    k_even_order,
    k_odd_order,
    kz,
    parse_spec,
    riemann_zeta_negative,
    w_invariant,
    zeta_abelian,
)
from evenk.arith import is_prime
from evenk.cyclodirichlet import primitive_orbits_of_order
from evenk.siegel import is_fundamental_discriminant
from oracles import kz_by_bernoulli, quadratic_k2_closed_form, quadratic_k6_closed_form


@pytest.fixture
def built_moduli(monkeypatch):
    """The modulus of every DirichletCharacter constructed while the
    test runs, in construction order."""
    from evenk.cyclodirichlet import DirichletCharacter

    moduli = []
    init = DirichletCharacter.__init__

    def counted(self, modulus, order, coords=()):
        moduli.append(modulus)
        init(self, modulus, order, coords)

    monkeypatch.setattr(DirichletCharacter, "__init__", counted)
    return moduli


def fundamentals(bound):
    return [d for d in range(2, bound + 1) if is_fundamental_discriminant(d)]


def multiquad_235():
    return Elementary(
        2,
        tuple(RealQuadratic(d) for d in (8, 12, 5, 24, 40, 60, 120)),
    )


# -- kz -------------------------------------------------------------------------

def test_kz_sequence():
    assert [kz(n) for n in (2, 6, 10, 14, 18, 22, 26)] == [2, 1, 2, 1, 2, 691, 2]


def test_kz_rejects_other_residues():
    for n in (1, 4, 8, 12, 20):
        with pytest.raises(ValueError):
            kz(n)


def test_kz_is_the_bernoulli_doubling_formula():
    for k in range(1, 61):
        assert kz(4 * k - 2) == kz_by_bernoulli(4 * k - 2), k


# -- zeta values ------------------------------------------------------------------

def test_zeta_abelian_examples():
    assert zeta_abelian(Rationals(), 1) == Fraction(-1, 12)
    assert zeta_abelian(RealQuadratic(5), 1) == Fraction(1, 30)
    assert zeta_abelian(CyclicPrime(3, 7), 1) == Fraction(-1, 21)


def test_zeta_abelian_elementary_is_product_over_parts():
    spec = multiquad_235()
    value = zeta_abelian(Rationals(), 2)
    for part in spec.parts:
        value *= zeta_abelian(part, 2) / zeta_abelian(Rationals(), 2)
    assert zeta_abelian(spec, 2) == value


def test_zeta_abelian_degree_21_field():
    # the degree-21 subfield of Q(zeta_43): orbits of order 3, 7 and 21
    # characters mod 43; the orbit products must all collapse to Q even
    # though the order-21 computation runs inside Q(zeta_21)
    from evenk.cyclodirichlet import character_group, orbit_l_product
    from oracles import conjugates, galois_orbits

    orbits = galois_orbits(
        chi for chi in character_group(43) if not chi.is_trivial() and 21 % chi.order == 0
    )
    assert sorted(len(conjugates(o.representative)) for o in orbits) == [2, 6, 12]

    def zeta(k):
        value = riemann_zeta_negative(k)
        for orbit in orbits:
            value *= orbit_l_product(orbit, k)
        return value

    # zeta_F(1-2k) carries the functional-equation sign (-1)^(21k)
    assert zeta(1) < 0
    assert zeta(2) > 0


# -- odd-index orders ---------------------------------------------------------------

def test_k_odd_examples():
    assert k_odd_order(Rationals(), 1).order == 48
    assert k_odd_order(Rationals(), 2).order == 240
    assert k_odd_order(RealQuadratic(8), 1).order == 192


# -- even-index orders ----------------------------------------------------------------

def test_k_even_examples():
    assert k_even_order(Rationals(), 1).order == 2
    assert k_even_order(CyclicPrime(3, 7), 1).order == 8
    assert k_even_order(RealQuadratic(5), 1).order == 4


def test_k_even_equals_kz():
    for k in range(1, 11):
        result = k_even_order(Rationals(), k)
        assert (result.order, result.method) == (kz(4 * k - 2), "characters")


def test_k_even_method_validation():
    with pytest.raises(UnsupportedField):
        k_even_order(Rationals(), 1, method="zagier")
    # kz names no route
    for spec in (Rationals(), RealQuadratic(5)):
        with pytest.raises(UnsupportedField):
            k_even_order(spec, 1, method="kz")
    with pytest.raises(UnsupportedField):
        k_even_order(RealQuadratic(5), 1, method="nonsense")


def test_route_equivalence_sample():
    for d in fundamentals(60):
        for k in range(1, 4):
            a = k_even_order(RealQuadratic(d), k, method="zagier")
            b = k_even_order(RealQuadratic(d), k, method="characters")
            assert a.order == b.order
            assert a.zeta_value == b.zeta_value


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(fundamentals(4999)), st.integers(1, 6))
def test_zagier_and_characters_routes_agree(d, k):
    a = k_even_order(RealQuadratic(d), k, method="zagier")
    b = k_even_order(RealQuadratic(d), k, method="characters")
    assert a.order == b.order
    assert a.zeta_value == b.zeta_value


# -- closed forms -----------------------------------------------------------------------

def test_closed_forms_match_general_route():
    for d in fundamentals(500):
        assert quadratic_k2_closed_form(d) == k_even_order(RealQuadratic(d), 1).order
        assert quadratic_k6_closed_form(d) == k_even_order(RealQuadratic(d), 2).order


def test_three_divisibility_bridge():
    for d in fundamentals(500):
        k2 = quadratic_k2_closed_form(d)
        k6 = quadratic_k6_closed_form(d)
        assert (k2 % 3 == 0) == (k6 % 3 == 0), d


# -- elementary fields ---------------------------------------------------------------------

def test_elementary_validation():
    with pytest.raises(ValueError):
        Elementary(2, (RealQuadratic(8), RealQuadratic(12)))
    with pytest.raises(ValueError):
        Elementary(3, (RealQuadratic(8), RealQuadratic(12), RealQuadratic(24)))
    with pytest.raises(ValueError):
        Elementary(2, (RealQuadratic(8), RealQuadratic(8), RealQuadratic(12)))
    spec = Elementary(3, tuple(
        CyclicPrime(3, f, orbit) for f, orbit in ((7, 0), (9, 0), (63, 0), (63, 1))
    ))
    assert [(f, n) for f, n, _ in spec.orbits()] == [(7, 3), (9, 3), (63, 3), (63, 3)]
    assert spec.orbit_shapes() == ((7, 2), (9, 2), (63, 2), (63, 2))
    assert spec.degree() == 9
    assert spec.conductor() == 63


def test_each_spec_states_its_orbits_once():
    # a spec states (conductor, order, coordinates) per orbit; the shapes,
    # the characters, degree and conductor are the base class's
    from evenk.kgroups import _Field

    for cls in (Rationals, RealQuadratic, CyclicPrime, Elementary):
        assert not {"orbit_shapes", "character_orbits", "degree", "conductor"} & set(vars(cls))
    assert not hasattr(_Field, "rank") and not hasattr(_Field, "orbit_coordinates")
    assert Rationals().orbits() == () and Rationals().degree() == 1
    assert RealQuadratic(12).orbits() == ((12, 2, (((2, -1), 1), ((3, 2), 1))),)
    assert CyclicPrime(3, 63, 1).orbits() == ((63, 3, (((3, 2), 2), ((7, 3), 1))),)
    assert Elementary(2, tuple(RealQuadratic(d) for d in (8, 12, 24))).orbits() == (
        RealQuadratic(8).orbits() + RealQuadratic(12).orbits() + RealQuadratic(24).orbits()
    )


def test_elementary_parts_must_be_closed_under_products():
    # Q(sqrt5, sqrt2) contains Q(sqrt10) (discriminant 40), not Q(sqrt3)
    with pytest.raises(ValueError) as info:
        Elementary(2, (RealQuadratic(5), RealQuadratic(8), RealQuadratic(12)))
    assert str(info.value) == (
        "quad:12 is not a subfield of the field that quad:5 and quad:8 generate"
    )
    Elementary(2, (RealQuadratic(5), RealQuadratic(8), RealQuadratic(40)))
    # Q(sqrt3, sqrt7) contains Q(sqrt21), whose discriminant is 21
    Elementary(2, (RealQuadratic(12), RealQuadratic(28), RealQuadratic(21)))
    with pytest.raises(ValueError):
        Elementary(2, (RealQuadratic(12), RealQuadratic(28), RealQuadratic(84)))
    parts = (8, 12, 5, 24, 40, 60, 120)
    for i in range(len(parts)):
        broken = parts[:i] + (13,) + parts[i + 1 :]
        with pytest.raises(ValueError):
            Elementary(2, tuple(RealQuadratic(d) for d in broken))


def test_elementary_orders_carry_their_pieces():
    from evenk.arith import factorize

    spec = multiquad_235()
    budget = 1000
    for k in (1, 2, 3, 4):
        combined = combine_elementary(spec, k)
        assert kz(4 * k - 2) in combined.pieces + (1,)  # |K_6(Z)| = 1
        for result in (combined, elementary_order_via_characters(spec, k)):
            assert len(set(result.pieces)) == len(result.pieces)
            assert all(piece > 1 for piece in result.pieces)
            whole = factorize(result.order)
            assert whole.complete
            for prime, _ in whole.factored:
                assert any(piece % prime == 0 for piece in result.pieces)
            assert factorize(result.order, budget, result.pieces) == whole
    part_orders = {k_even_order(part, 3).order for part in spec.parts}
    assert set(combine_elementary(spec, 3).pieces) == part_orders | {kz(10)}
    # an order over a single L-norm carries the numerators of zeta(-5)
    # and of that L-product, and w
    zeta = riemann_zeta_negative(3)
    for part in (RealQuadratic(5), CyclicPrime(3, 7)):
        result = k_even_order(part, 3)
        numerators = [abs(x.numerator) for x in (zeta, result.zeta_value / zeta)]
        assert set(result.pieces) == {*numerators, w_invariant(part, 3).value} - {1}


def test_combine_elementary_multiquad_k1():
    assert combine_elementary(multiquad_235(), 1).order == 2**11 * 3**2 * 7 * 17


def test_combine_elementary_matches_part_methods():
    # the combiner takes its parts by the characters route; the same
    # product over the parts' zagier orders gives the same order
    spec = multiquad_235()
    for k in (1, 2, 3):
        zagier = 1
        for part in spec.parts:
            zagier *= k_even_order(part, k, method="zagier").order
        denominator = kz(4 * k - 2) ** (len(spec.parts) - 1)
        assert zagier % denominator == 0
        assert combine_elementary(spec, k).order == zagier // denominator


def test_characters_route_equivalence():
    spec24 = Elementary(2, tuple(RealQuadratic(d) for d in (8, 12, 24)))
    for k in range(1, 6):
        assert (
            combine_elementary(spec24, k).order
            == elementary_order_via_characters(spec24, k).order
        )
    assert (
        elementary_order_via_characters(multiquad_235(), 1).order
        == combine_elementary(multiquad_235(), 1).order
    )


def test_characters_route_sees_fields_below_their_conductor_group():
    # Q(sqrt 6, sqrt 10) has conductor 120, whose even quadratic
    # characters span a rank-3 group; the field's own orbits give it
    spec = Elementary(2, tuple(RealQuadratic(d) for d in (24, 40, 60)))
    for k in (1, 2, 3):
        via_chars = elementary_order_via_characters(spec, k)
        combined = combine_elementary(spec, k)
        assert via_chars.order == combined.order, k
        assert via_chars.zeta_value == combined.zeta_value
    assert combine_elementary(spec, 1).order == 4032


def test_characters_route_equivalence_all_small_conductors():
    from field_enum import two_elementary_fields

    fields = two_elementary_fields(120, 2) + two_elementary_fields(120, 3)
    assert len(fields) == 15
    checked = 0
    for discs in fields:
        spec = Elementary(2, tuple(RealQuadratic(d) for d in discs))
        for k in range(1, 6):
            via_chars = elementary_order_via_characters(spec, k)
            assert via_chars.order == combine_elementary(spec, k).order, (discs, k)
            checked += 1
    assert checked == 75


def test_characters_route_on_degree_nine_field():
    spec = degree_nine_field()
    for k in (1, 2):
        assert (
            elementary_order_via_characters(spec, k).order
            == combine_elementary(spec, k).order
        )


def degree_nine_field():
    return Elementary(3, tuple(
        CyclicPrime(3, f, orbit) for f, orbit in ((7, 0), (9, 0), (63, 0), (63, 1))
    ))


def test_characters_route_uses_the_field_orbits(monkeypatch):
    # k_even_order enters elementary_order_via_characters, and the route
    # never builds the characters modulo the compositum's conductor, only
    # each part's own orbit
    import evenk.cyclodirichlet as cyclodirichlet
    import evenk.kgroups as kgroups

    via_chars = kgroups.elementary_order_via_characters
    entered = []
    moduli = []
    build = cyclodirichlet.characters_of_order_dividing

    def traced_route(spec, k):
        entered.append(spec.label())
        return via_chars(spec, k)

    def traced_build(m, p):
        moduli.append(m)
        return build(m, p)

    for spec in (degree_nine_field(), multiquad_235()):
        with monkeypatch.context() as patch:
            patch.setattr(kgroups, "elementary_order_via_characters", traced_route)
            patch.setattr(cyclodirichlet, "characters_of_order_dividing", traced_build)
            for k in (1, 2):
                result = k_even_order(spec, k, method="characters")
                assert result.method == "characters"
                assert result.order == combine_elementary(spec, k).order
        assert entered == [spec.label()] * 2
        assert spec.conductor() not in moduli
        entered.clear()


def test_k_even_order_dispatches_elementary_methods():
    spec = multiquad_235()
    assert k_even_order(spec, 1).method == "combiner"
    assert k_even_order(spec, 1, method="characters").order == k_even_order(spec, 1).order


def test_cyclic_orbit_index_bounds():
    (first,) = CyclicPrime(3, 63, 0).character_orbits()
    (second,) = CyclicPrime(3, 63, 1).character_orbits()
    assert first.representative != second.representative
    for f, orbit in ((63, 5), (63, 2), (7, 1), (7, -1)):
        with pytest.raises(ValueError, match="orbit index"):
            CyclicPrime(3, f, orbit)
    # the bound is the number of orbits the numbering walks, which is
    # (p - 1)^(s - 1) for a conductor with s prime factors
    from evenk.arith import factor_small
    from evenk.cyclodirichlet import cyclic_conductor_is_valid

    for p, bound in ((3, 400), (5, 400), (7, 400)):
        for f in range(3, bound):
            count = len(primitive_orbits_of_order(f, p))
            if not cyclic_conductor_is_valid(p, f):
                assert count == 0
                with pytest.raises(ValueError, match="not a conductor"):
                    CyclicPrime(p, f)
                continue
            assert count == (p - 1) ** (len(factor_small(f)) - 1), (p, f)
            CyclicPrime(p, f, count - 1)
            with pytest.raises(ValueError):
                CyclicPrime(p, f, count)


CUBIC_CONDUCTORS = [9] + [q for q in range(7, 200) if q % 3 == 1 and is_prime(q)]


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_elementary_closure_for_odd_p(data):
    # the four cubic subfields of the compositum of two cubic fields of
    # coprime conductors f1, f2 are those two and the two orbits of
    # conductor f1 f2; a foreign part or a repeated one must be refused
    f1, f2, f3 = data.draw(
        st.lists(st.sampled_from(CUBIC_CONDUCTORS), min_size=3, max_size=3, unique=True)
    )
    subfields = [
        CyclicPrime(3, f1), CyclicPrime(3, f2),
        CyclicPrime(3, f1 * f2, 0), CyclicPrime(3, f1 * f2, 1),
    ]
    parts = list(subfields)
    slot = data.draw(st.integers(0, 3))
    variant = data.draw(st.sampled_from(["field", "foreign", "foreign product", "repeat"]))
    if variant == "foreign":
        parts[slot] = CyclicPrime(3, f3)
    elif variant == "foreign product":
        parts[slot] = CyclicPrime(3, f1 * f3, data.draw(st.integers(0, 1)))
    elif variant == "repeat":
        parts[slot] = parts[(slot + data.draw(st.integers(1, 3))) % 4]
    parts = data.draw(st.permutations(parts))
    if set(parts) != set(subfields):
        with pytest.raises(ValueError):
            Elementary(3, tuple(parts))
        return
    spec = Elementary(3, tuple(parts))
    assert spec.degree() == 9 and spec.conductor() == f1 * f2
    for k in (1, 2):
        assert (
            combine_elementary(spec, k).order
            == elementary_order_via_characters(spec, k).order
        )


def test_elementary_closure_names_the_missing_subfield():
    # the error names the first part outside the field that the parts
    # before it generate, and the parts that generate it
    with pytest.raises(ValueError) as info:
        Elementary(3, tuple(CyclicPrime(3, f) for f in (7, 9, 13, 19)))
    assert str(info.value) == (
        "cyclic:3:13 is not a subfield of the field that cyclic:3:7 and cyclic:3:9 generate"
    )
    # a degree-25 field: chi_11 * chi_31^e runs over the four orbits of
    # conductor 341, and putting another quintic in place of one of them
    # is named wherever it stands
    orbits = range(len(primitive_orbits_of_order(341, 5)))
    assert list(orbits) == [0, 1, 2, 3]
    parts = [CyclicPrime(5, 11), CyclicPrime(5, 31)]
    parts += [CyclicPrime(5, 341, i) for i in orbits]
    Elementary(5, tuple(parts))
    with pytest.raises(ValueError) as info:
        Elementary(5, tuple(parts[:-1] + [CyclicPrime(5, 61)]))
    assert str(info.value) == (
        "cyclic:5:61 is not a subfield of the field that cyclic:5:11 and cyclic:5:31 generate"
    )
    with pytest.raises(ValueError) as info:
        Elementary(5, (CyclicPrime(5, 61),) + tuple(parts[1:]))
    assert str(info.value) == (
        "cyclic:5:341 is not a subfield of the field that cyclic:5:61 and cyclic:5:31 generate"
    )


def test_combiner_matches_the_characters_route_for_p_5():
    # the degree-25 field of conductor 341: the combiner's product of six
    # quintic orders over |K_{4k-2}(Z)|^5 equals w_2k(E) zeta_E(1-2k)
    quintics = ["cyclic:5:11", "cyclic:5:31"] + [f"cyclic:5:341:{i}" for i in range(4)]
    spec = parse_spec("elem:5:" + ",".join(quintics))
    assert spec.degree() == 25 and spec.conductor() == 341
    for k in (1, 2):
        combined = k_even_order(spec, k)
        direct = k_even_order(spec, k, method="characters")
        assert (combined.method, direct.method) == ("combiner", "characters")
        assert combined.order == direct.order
        assert combined.zeta_value == direct.zeta_value


def _degree_p_fields(p, bound):
    """The real cyclic degree-p fields of conductor below bound."""
    if p == 2:
        return [RealQuadratic(d) for d in range(5, bound) if is_fundamental_discriminant(d)]
    return [
        CyclicPrime(p, f, i)
        for f in range(3, bound)
        for i in range(len(primitive_orbits_of_order(f, p)))
    ]


def _closure(p, generators):
    """Every degree-p subfield of the compositum of the generators: one
    per line of the span of their coordinates, named through the orbit
    numbering of its conductor."""
    from itertools import product

    from oracles import orbit_key, primitive_orbit_index

    coords = [c for field in generators for _, _, c in field.orbits()]
    keys = set()
    for scales in product(range(p), repeat=len(coords)):
        keys.add(orbit_key([(g, s * x) for s, c in zip(scales, coords) for g, x in c], p))
    keys.discard(())
    fields = [primitive_orbit_index(key, p) for key in sorted(keys)]
    return [RealQuadratic(f) if p == 2 else CyclicPrime(p, f, i) for f, i in fields]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_rank_check_accepts_what_the_pairwise_loop_accepts(p):
    # closures of 2 or 3 random generators, shuffled, and each with one
    # part put out of place by a field outside it; the pairwise loop
    # that checked elem: specs before is the reference
    import random

    from oracles import closed_under_products

    rng = random.Random(p)
    pool = _degree_p_fields(p, 200)
    verdicts = []
    for _ in range(50):
        parts = _closure(p, rng.sample(pool, rng.choice((2, 3))))
        rng.shuffle(parts)
        corrupted = list(parts)
        corrupted[rng.randrange(len(parts))] = rng.choice([f for f in pool if f not in parts])
        for fields in (parts, corrupted):
            closed = closed_under_products([c for f in fields for _, _, c in f.orbits()], p)
            try:
                Elementary(p, tuple(fields))
            except ValueError as exc:
                assert not closed and "is not a subfield of the field that" in str(exc), fields
            else:
                assert closed, fields
            verdicts.append(closed)
    assert verdicts.count(True) == verdicts.count(False) == 50


def test_elementary_closure_check_builds_no_characters(built_moduli):
    # a part's coordinates come from the orbit numbering (cyclic:) or the
    # Kronecker symbol at the local generators (quad:), so w and kodd of
    # an elem: field need no character at all
    from evenk.cli import run

    for field in (
        "elem:3:cyclic:3:7,cyclic:3:13,cyclic:3:91:0,cyclic:3:91:1",
        "elem:2:quad:5,quad:8,quad:40,quad:12,quad:60,quad:24,quad:120",
    ):
        for command in ("w", "kodd"):
            assert run([command, "--field", field, "--k", "1"]) == 0
    assert built_moduli == []


def test_cyclic_orbit_coordinates_are_those_of_the_built_orbit():
    # each spec's coordinates name the orbit of the character that
    # character_orbits builds from them, and that character is the
    # build-and-sort oracle's representative (cyclic: conductors below
    # 400, 1181, and the largest product of two cubic conductors) or the
    # Kronecker character (quad:, every fundamental d < 2000)
    from evenk.cyclodirichlet import cyclic_conductor_is_valid, quadratic_character
    from oracles import local_coordinates, orbit_key, primitive_orbits_by_sorting

    specs = [CyclicPrime(5, 1181), CyclicPrime(3, 193 * 199, 1)]
    for p in (3, 5, 7):
        for f in range(3, 400):
            if cyclic_conductor_is_valid(p, f):
                count = len(primitive_orbits_by_sorting(f, p))
                specs += [CyclicPrime(p, f, i) for i in range(count)]
    assert len(specs) == 102
    for spec in specs:
        ((f, n, coords),) = spec.orbits()
        assert (f, n) == (spec.f, spec.p)
        (orbit,) = spec.character_orbits()
        built = local_coordinates(orbit.representative, spec.p)
        assert orbit_key(coords, spec.p) == orbit_key(built, spec.p), spec
        assert orbit == primitive_orbits_by_sorting(spec.f, spec.p)[spec.orbit], spec
    discriminants = fundamentals(1999)
    assert len(discriminants) == 607
    for d in discriminants:
        ((f, n, coords),) = RealQuadratic(d).orbits()
        assert (f, n) == (d, 2)
        (orbit,) = RealQuadratic(d).character_orbits()
        assert orbit.representative == quadratic_character(d), d
        assert coords == local_coordinates(orbit.representative, 2), d


def test_zagier_and_w_routes_build_no_characters(built_moduli):
    # w, kodd, the zagier route and every spec's construction (the elem:
    # closure check included) read only orbit shapes and coordinates
    specs = [RealQuadratic(d) for d in (5, 8, 12, 4001)]
    specs += [CyclicPrime(p, f, i) for p, f, i in ((3, 7, 0), (3, 9, 0), (3, 63, 1), (5, 1181, 0))]
    specs += [Elementary(2, tuple(RealQuadratic(d) for d in (5, 8, 40)))]
    specs += [multiquad_235(), degree_nine_field()]
    specs.append(Elementary(3, tuple(
        CyclicPrime(3, f, i) for f, i in ((7, 0), (13, 0), (91, 0), (91, 1))
    )))
    for k in (1, 2, 3):
        for spec in specs:
            w_invariant(spec, k)
            k_odd_order(spec, k)
            if isinstance(spec, RealQuadratic):
                k_even_order(spec, k, method="zagier")
    assert built_moduli == []
    zeta_abelian(RealQuadratic(5), 1)  # the count sees the characters route
    assert built_moduli == [5]


def test_characters_route_builds_one_character_per_orbit(built_moduli):
    from evenk.cli import run

    specs = [Rationals(), RealQuadratic(5), CyclicPrime(3, 63, 1), CyclicPrime(5, 1181)]
    specs += [multiquad_235(), degree_nine_field()]
    for spec in specs:
        for k in (1, 2, 3):
            built_moduli.clear()
            k_even_order(spec, k, method="characters")
            assert sorted(built_moduli) == sorted(f for f, _ in spec.orbit_shapes()), (spec, k)
    built_moduli.clear()
    assert run(["zeta", "--field", "cyclic:29:59", "--k", "20"]) == 0
    assert built_moduli == [59]


def test_combiner_evaluates_each_part_l_product_once(monkeypatch):
    # the combiner's zeta_E is taken from the part orders it already
    # holds, not from a second pass over the parts' L-products
    import evenk.kgroups as kgroups

    calls = []
    l_product = kgroups.orbit_l_product

    def counted(orbit, k):
        calls.append(orbit)
        return l_product(orbit, k)

    monkeypatch.setattr(kgroups, "orbit_l_product", counted)
    for spec in (multiquad_235(), degree_nine_field()):
        for k in (1, 2, 3):
            calls.clear()
            zeta = combine_elementary(spec, k).zeta_value
            assert len(calls) == len(spec.parts), (spec.label(), k)
            assert zeta == zeta_abelian(spec, k)


# -- Hasse parameterization -------------------------------------------------------------------

def test_cubic_from_conductor_examples():
    assert cubic_from_conductor(7) == CubicParameters(7, -1, 3)
    assert cubic_from_conductor(9) == CubicParameters(9, -3, 3)
    assert cubic_from_conductor(499) == CubicParameters(499, 32, 18)


def test_cubic_polynomial():
    params = cubic_from_conductor(7)
    assert params.polynomial_coefficients() == (7, -21, 0, 1)
    assert params.polynomial_str() == "X^3 - 21X + 7"


def test_cubic_from_conductor_rejections():
    for f in (4, 5, 11, 25):
        with pytest.raises(NoRepresentation):
            cubic_from_conductor(f)


# -- integrality guard ---------------------------------------------------------------------------

def test_integrality_sweep_small():
    for d in fundamentals(100):
        for k in (1, 2, 3):
            result = k_even_order(RealQuadratic(d), k)
            assert result.order >= 1
    for f in (7, 9, 13, 19):
        for k in (1, 2):
            assert k_even_order(CyclicPrime(3, f), k).order >= 1


# -- spec text ----------------------------------------------------------------------


def specs_the_tests_build():
    """The 2-elementary fields of field_enum, the acceptance tables'
    multiquadratic and degree-9 fields, the conductor-63 cubics and the
    degree-25 field of conductor 341."""
    from field_enum import two_elementary_fields
    from test_acceptance import degree9_spec, load, multiquad_spec

    discs = two_elementary_fields(120, 2) + two_elementary_fields(120, 3)
    specs = [Elementary(2, tuple(RealQuadratic(d) for d in ds)) for ds in discs]
    specs += [multiquad_spec(int(m)) for m in load("multiquad_orders.json")]
    specs += [degree9_spec(e["parts"]) for e in load("degree9_orders.json") if e["parts"]]
    specs += [CyclicPrime(3, 63, i) for i in range(2)]
    quintics = [CyclicPrime(5, 11), CyclicPrime(5, 31)] + [CyclicPrime(5, 341, i) for i in range(4)]
    return specs + [Elementary(5, tuple(quintics))]


def readme_specs():
    """The --field values of the README's CLI block."""
    from pinned_outputs import readme_cli_examples

    return [argv[argv.index("--field") + 1] for argv in readme_cli_examples() if "--field" in argv]


def test_parse_spec_reads_back_every_label():
    specs = specs_the_tests_build()
    specs += [part for spec in specs for part in getattr(spec, "parts", ())]
    specs += [parse_spec(text) for text in readme_specs()]
    assert len(specs) > 100
    for spec in specs + [Rationals()]:
        assert parse_spec(spec.label()) == spec, spec.label()


def test_parse_spec_labels_canonical_text_as_written():
    texts = readme_specs() + [spec.label() for spec in specs_the_tests_build()]
    assert {"q", "quad:5", "cyclic:3:7", "elem:2:quad:8,quad:12,quad:24"} <= set(texts)
    assert {"cyclic:3:63:1", "elem:3:cyclic:3:7,cyclic:3:9,cyclic:3:63,cyclic:3:63:1"} <= set(texts)
    for text in texts:
        assert parse_spec(text).label() == text
    # an orbit index 0 is the default, which the label leaves out
    assert parse_spec("cyclic:3:63:0").label() == "cyclic:3:63"
