import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evenk.arith import divisor_sum
from evenk.qseries import _int_mul, _int_power, siegel_coeffs, t_series_pole_order
from oracles import (
    LaurentSeries,
    _eta24,
    _int_inverse_power,
    delta,
    eisenstein,
    series_invert,
    series_power,
    series_shift,
    siegel_coeffs_by_laurent_series,
    t_series,
)


# -- independent eta-product oracle -------------------------------------------

def eta24_oracle(prec):
    """prod (1 - q^n)^24 as a plain coefficient list, no series class."""
    coeffs = [Fraction(0)] * prec
    coeffs[0] = Fraction(1)
    for n in range(1, prec):
        for _ in range(24):
            nxt = list(coeffs)
            for i in range(prec - n):
                nxt[i + n] -= coeffs[i]
            coeffs = nxt
    return coeffs


@lru_cache(maxsize=None)
def eta24_prefix(prec):
    return tuple(eta24_oracle(prec))


def siegel_coeffs_by_fractions(h):
    """b_j(h) by the Fraction route: T_h = G_k * Delta^(-r) with the
    inverse and the power taken by the Fraction series oracles, from
    the oracle eta product."""
    r = t_series_pole_order(h)
    k = 12 * r - h + 2
    rel = r + 2
    eta = LaurentSeries(0, eta24_prefix(36)[:rel], rel)
    t = series_shift(series_power(eta, -r), -r)
    if k > 0:
        t = t * eisenstein(k, rel)
    t = t.truncate(1)
    c0 = t.coefficient(0)
    return [-t.coefficient(-j) / c0 for j in range(1, r + 1)]


# -- Laurent series mechanics (the oracles' series class) ----------------------

def test_series_normalization_and_coefficient_access():
    s = LaurentSeries(-2, [0, 1, 5], 1)
    assert s.valuation == -1 and s.coeffs == (Fraction(1), Fraction(5))
    assert s.coefficient(-1) == 1
    assert s.coefficient(-5) == 0
    with pytest.raises(ValueError):
        s.coefficient(1)


def test_mul_precision_tracking():
    a = LaurentSeries(0, [1, 1, 1], 3)  # known to O(q^3)
    b = LaurentSeries(1, [1, 2], 3)  # q + 2q^2 + O(q^3)
    prod = a * b
    assert prod.valuation == 1
    assert prod.precision == 3  # min(3 + 1, 3 + 0)
    assert prod.coefficient(1) == 1 and prod.coefficient(2) == 3


def test_invert_requires_nonzero_leading_term():
    zero = LaurentSeries(3, [], 3)
    with pytest.raises(ZeroDivisionError):
        series_invert(zero)


def test_delta_times_inverse_is_one():
    for p in range(3, 21):
        d = delta(p)
        product = d * series_invert(d)
        assert product.valuation == 0
        assert product.coefficient(0) == 1
        for e in range(1, product.precision):
            assert product.coefficient(e) == 0
        assert product.precision == p - 1  # 1/Delta is known to O(q^(p-2))


# -- Eisenstein series (oracle) --------------------------------------------------

def test_eisenstein_examples():
    g4 = eisenstein(4, 3)
    assert [g4.coefficient(i) for i in range(3)] == [1, 240, 2160]
    g10 = eisenstein(10, 2)
    assert [g10.coefficient(i) for i in range(2)] == [1, -264]
    assert eisenstein(8, 1).coeffs == (Fraction(1),)


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        eisenstein(5, 3)
    with pytest.raises(ValueError):
        eisenstein(2, 3)


# -- Delta = q * prod (1 - q^n)^24, so tau(n) = _eta24(prec)[n - 1] ----------------

def test_delta_examples():
    assert _eta24(2) == (1, -24)
    assert _eta24(3)[2] == 252
    assert _eta24(7)[0] == 1


def test_delta_against_eta_oracle():
    # every short truncation, where Jacobi's series stops early
    for prec in range(1, 13):
        assert list(_eta24(prec)) == eta24_oracle(prec), prec


def test_integral_eta_product_matches_oracle():
    oracle = eta24_oracle(200)
    assert list(_eta24(200)) == oracle
    d = delta(201)
    assert [d.coefficient(i + 1) for i in range(200)] == oracle


def test_ramanujan_congruence():
    eta = _eta24(15)
    for n in range(1, 16):
        tau = eta[n - 1]
        assert isinstance(tau, int)
        assert (tau - divisor_sum(n, 11)) % 691 == 0


# -- powers of integer series by Miller's recurrence -----------------------------

def jacobi_series(prec):
    """sum_k (-1)^k (2k+1) q^(k(k+1)/2), truncated at q^prec."""
    coeffs = [0] * prec
    for k in range(prec):
        if k * (k + 1) // 2 < prec:
            coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    return coeffs


def test_jacobi_power_matches_inverse_of_squared_eta_product():
    # every h of the fraction-route test, and the highk bench range
    for h in [*range(4, 401, 2), *range(1030, 1101, 2)]:
        r = t_series_pole_order(h)
        n = r + 1
        assert _int_power(jacobi_series(n), -8 * r, n) == _int_inverse_power(
            _eta24(n), r, n
        ), h


@given(
    st.lists(st.integers(-50, 50), max_size=29).map(lambda tail: [1, *tail]),
    st.integers(-40, 40),
)
def test_int_power_matches_repeated_products_and_the_inverse(a, alpha):
    prec = len(a)
    if alpha >= 0:
        expected = [1] + [0] * (prec - 1)
        for _ in range(alpha):
            expected = _int_mul(expected, a, prec)
    else:
        expected = _int_inverse_power(a, -alpha, prec)
    assert _int_power(a, alpha, prec) == expected


# -- T_h and the Siegel coefficients ----------------------------------------------

def test_pole_order_rule():
    assert t_series_pole_order(4) == 1
    assert t_series_pole_order(12) == 2
    assert t_series_pole_order(14) == 1
    assert t_series_pole_order(40) == 4
    assert 12 * t_series_pole_order(12) - 12 + 2 == 14
    for bad in (2, 5, 0, -4):
        with pytest.raises(ValueError, match="h must be an even integer >= 4"):
            t_series_pole_order(bad)


def test_t4_expansion():
    # T_4 = G_4 / Delta = q^-1 - 240 + O(q)
    assert siegel_coeffs(4) == [Fraction(1, 240)]


def test_t14_is_inverse_delta():
    # T_14 = 1/Delta = q^-1 + 24 + O(q): no Eisenstein factor, and the
    # integer coefficients still give exact weights
    (b1,) = siegel_coeffs(14)
    assert isinstance(b1, Fraction) and b1 == Fraction(-1, 24)
    inv = series_invert(delta(6))
    assert b1 == -inv.coefficient(-1) / inv.coefficient(0)


def test_siegel_coeffs_examples():
    assert siegel_coeffs(4) == [Fraction(1, 240)]
    assert len(siegel_coeffs(8)) == 1
    assert len(siegel_coeffs(40)) == 4


def test_siegel_coeffs_refuses_a_series_beyond_any_list():
    # h = 2^70 has r + 1 = 98382635059784275287 coefficients, past the
    # limit, so it fails before anything is allocated
    h = 2**70
    assert t_series_pole_order(h) + 1 > sys.maxsize // 8
    with pytest.raises(ValueError, match=rf"^b_j\({h}\) needs a series of 98382635059784275287"):
        siegel_coeffs(h)


def test_siegel_coeffs_lengths():
    for h in range(4, 41, 2):
        assert len(siegel_coeffs(h)) == t_series_pole_order(h)


def test_t_series_independent_of_working_precision():
    # the oracle route: its working precision r + 2 covers the constant term
    for h in range(4, 41, 2):
        base = t_series(h)
        wide = t_series(h, extra_prec=3)
        for e in range(base.valuation, 1):
            assert base.coefficient(e) == wide.coefficient(e), (h, e)


def test_siegel_coeffs_match_fraction_route():
    # every even h <= 400 has r + 2 <= 36 terms of working precision
    for h in range(4, 401, 2):
        assert siegel_coeffs(h) == siegel_coeffs_by_fractions(h), h


def test_siegel_coeffs_match_laurent_series_route_at_high_h():
    # the highk bench range, against the precision-tracking route
    for h in range(1030, 1101, 2):
        assert siegel_coeffs(h) == siegel_coeffs_by_laurent_series(h), h
