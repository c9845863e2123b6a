from fractions import Fraction

import pytest

from evenk.arith import kronecker
from evenk.kgroups import RealQuadratic, zeta_abelian
from evenk.prank import witness
from evenk.qseries import siegel_coeffs
from evenk.siegel import (
    e_sum,
    fundamental_discriminant,
    is_fundamental_discriminant,
    zeta_quadratic,
)
from evenk.winv import w_quadratic
from oracles import chi_weighted_sum, e_sum_brute_force


def fundamentals(bound):
    return [d for d in range(2, bound + 1) if is_fundamental_discriminant(d)]


# -- discriminants -------------------------------------------------------------

def test_fundamental_discriminants():
    assert [is_fundamental_discriminant(d) for d in (5, 8, 12, 13, 24)] == [True] * 5
    for bad in (1, 2, 3, 4, 7, 9, 16, 20, 25, 45, 48):
        assert not is_fundamental_discriminant(bad)
        with pytest.raises(ValueError):
            RealQuadratic(bad)
        with pytest.raises(ValueError):
            zeta_quadratic(bad, 1)
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(30) == 120
    with pytest.raises(ValueError):
        fundamental_discriminant(12)


# -- power sums ----------------------------------------------------------------

def test_e_sum_examples():
    assert e_sum(5, 1) == 2
    assert e_sum(8, 1) == 5
    assert e_sum(7, 3) == 0


def test_e_sum_against_brute_force():
    for m in range(1, 201):
        for j in (1, 3, 5):
            assert e_sum(m, j) == e_sum_brute_force(m, j), (m, j)


def test_e_sum_validation():
    with pytest.raises(ValueError):
        e_sum(0, 1)
    with pytest.raises(ValueError):
        e_sum(5, 2)


def test_e1_e3_congruence():
    for d in fundamentals(1000):
        assert (e_sum(d, 1) - e_sum(d, 3)) % 3 == 0


# -- character-weighted sums ----------------------------------------------------

def test_chi_weighted_sum_examples():
    assert chi_weighted_sum(5, 1, 1) == 2
    assert chi_weighted_sum(8, 1, 1) == 5
    expected = e_sum_brute_force(20, 3) + kronecker(5, 2) * 8 * e_sum_brute_force(5, 3)
    assert expected == 274 - 16
    assert chi_weighted_sum(5, 2, 2) == expected


def test_zeta_quadratic_is_the_papers_sum_over_l():
    # zeta_quadratic sums over l = s*m with e_j(s^2 D) outside; the
    # paper sums chi_weighted_sum(D, l, k) over l
    for d in fundamentals(200):
        for k in range(1, 13):
            weights = siegel_coeffs(4 * k)
            paper = 4 * sum(
                b * chi_weighted_sum(d, l, k) for l, b in enumerate(weights, start=1)
            )
            assert zeta_quadratic(d, k) == paper, (d, k)


# -- zeta values ------------------------------------------------------------------

def test_zeta_quadratic_examples():
    assert zeta_quadratic(5, 1) == Fraction(1, 30)
    assert zeta_quadratic(8, 1) == Fraction(1, 12)
    assert zeta_quadratic(12, 1) == Fraction(e_sum_brute_force(12, 1), 60)


def test_zeta_quadratic_matches_character_route():
    for d in fundamentals(60):
        for k in range(1, 4):
            assert zeta_quadratic(d, k) == zeta_abelian(RealQuadratic(d), k), (d, k)


def test_zeta_quadratic_sign_pattern():
    # the functional-equation sign for degree 2 is (-1)^(2k) = +1, so
    # these values are positive for every k (checked, not proven here)
    for d in (5, 8, 12, 13, 120, 421):
        for k in range(1, 8):
            assert zeta_quadratic(d, k) > 0, (d, k)


def test_zeta_quadratic_rejects_non_fundamental():
    with pytest.raises(ValueError):
        zeta_quadratic(20, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: zeta_quadratic(d, 1),
        lambda d: w_quadratic(d, 1),
        lambda d: witness(3, d),
        lambda d: witness(5, d),
    ],
    ids=["zeta_quadratic", "w_quadratic", "witness_3", "witness_5"],
)
def test_discriminant_check_is_shared(call):
    for bad in (20, 1):
        with pytest.raises(ValueError, match="not a fundamental discriminant"):
            call(bad)


def test_zeta_quadratic_checks_its_discriminant_once(monkeypatch):
    import evenk.siegel as siegel

    calls = []
    check = siegel.is_fundamental_discriminant

    def counted(d):
        calls.append(d)
        return check(d)

    expected = zeta_abelian(RealQuadratic(5), 7)
    monkeypatch.setattr(siegel, "is_fundamental_discriminant", counted)
    # k = 7 sums over s = 1, 2, 3, each e_13(s^2 D) once; none of them
    # checks D again
    assert zeta_quadratic(5, 7) == expected
    assert calls == [5]


def test_zeta_quadratic_reads_each_power_sum_once(monkeypatch):
    import evenk.siegel as siegel

    calls = []
    e_sum_unwrapped = siegel.e_sum

    def counted(m, j):
        calls.append((m, j))
        return e_sum_unwrapped(m, j)

    monkeypatch.setattr(siegel, "e_sum", counted)
    for k in (1, 2, 3, 5, 6, 11, 20):
        calls.clear()
        zeta_quadratic(13, k)
        terms = k // 3 + 1
        assert calls == [(s * s * 13, 2 * k - 1) for s in range(1, terms + 1)], k
