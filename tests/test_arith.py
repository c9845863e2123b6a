import random
import sys
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd, isqrt, prod
from tracemalloc import get_traced_memory
from tracemalloc import start as start_tracing
from tracemalloc import stop as stop_tracing
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenk import arith
from evenk.arith import (
    PartialFactorization,
    bernoulli,
    divisor_sum,
    factorize,
    is_prime,
    kronecker,
    valuation,
)
from oracles import (
    bernoulli_poly_value,
    ecm_curve_projective,
    ecm_stage2_projective,
    factor_by_trial_division,
    factorization_value,
    montgomery_multiple,
    prime_power_root,
    sieve_primes,
    trial_division,
)


# -- independent oracles -----------------------------------------------------

def bernoulli_by_recurrence(limit):
    """B_0..B_limit straight from sum_{j<=n} C(n+1, j) B_j = 0."""
    out = [Fraction(1)]
    for n in range(1, limit + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += comb(n + 1, j) * out[j]
        out.append(-acc / (n + 1))
    return out


def sigma_by_enumeration(m, j):
    return sum(d**j for d in range(1, m + 1) if m % d == 0)


# -- divisor sums ------------------------------------------------------------

def test_divisor_sum_examples():
    assert divisor_sum(1, 5) == 1
    assert divisor_sum(6, 1) == 12
    assert divisor_sum(2, 3) == 9


def test_divisor_sum_rejects_zero():
    with pytest.raises(ValueError):
        divisor_sum(0, 1)


def test_divisor_sum_against_enumeration():
    for m in range(1, 200):
        for j in range(4):
            assert divisor_sum(m, j) == sigma_by_enumeration(m, j)


def test_divisor_sum_multiplicative():
    for m in range(1, 101):
        for n in range(m, 101):
            if gcd(m, n) != 1:
                continue
            for j in range(10):
                assert divisor_sum(m * n, j) == divisor_sum(m, j) * divisor_sum(n, j)
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 1001)
        n = rng.randrange(1, 1001)
        if gcd(m, n) == 1:
            for j in range(10):
                assert divisor_sum(m * n, j) == divisor_sum(m, j) * divisor_sum(n, j)


# -- complete factorization ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(1, 10**6), st.integers(1, 10**12 - 1)))
def test_factor_small_agrees_with_unbounded_trial_division_below_1e12(n):
    assert arith.factor_small(n) == factor_by_trial_division(n)


def test_factor_small_stops_at_the_trial_cap():
    p = 10**18 + 3  # a prime, proved once trial division stops
    assert arith.factor_small(12 * p) == ((2, 2), (3, 1), (p, 1))
    # two primes above the cap, the square of one, and a prime above the
    # Miller-Rabin bound are refused, not searched
    for n in (1000000009 * 1000000021, 1000003**2, 2**89 - 1):
        with pytest.raises(ValueError, match=f"^cannot factor {n}: "):
            arith.factor_small(n)
    with pytest.raises(ValueError, match="^cannot factor "):
        divisor_sum(1000003 * 1000033, 1)


# -- Kronecker symbol --------------------------------------------------------

def test_kronecker_examples():
    assert kronecker(5, 1) == 1
    assert kronecker(12, 2) == 0
    assert kronecker(5, 3) == -1


def test_kronecker_matches_legendre():
    for p in sieve_primes(100):
        if p == 2:
            continue
        for a in range(-30, 60):
            euler = pow(a % p, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_conventions():
    # bottom 0 and negative bottoms
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(3, 0) == 0
    assert kronecker(5, -3) == kronecker(5, 3)
    assert kronecker(-5, -3) == -kronecker(-5, 3)
    # (a|2) by the mod-8 rule
    for a in range(-25, 25):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1


def test_kronecker_bottom_multiplicative():
    fundamentals = [d for d in range(-60, 61) if d not in (0, 1) and _is_fund(d)]
    for d in fundamentals:
        for n1 in range(1, 201, 7):
            for n2 in range(1, 201, 11):
                assert kronecker(d, n1 * n2) == kronecker(d, n1) * kronecker(d, n2)


def _is_fund(d):
    from evenk.siegel import _squarefree

    if d % 4 == 1:
        return _squarefree(abs(d))
    if d % 4 == 0 and (d // 4) % 4 in (2, 3):
        return _squarefree(abs(d) // 4)
    return False


# -- valuations --------------------------------------------------------------

def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(1, 6), 3) == -1
    assert valuation(691, 691) == 1


def test_valuation_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(12, 4)


# -- Bernoulli numbers -------------------------------------------------------

def test_bernoulli_matches_independent_recurrence():
    oracle = bernoulli_by_recurrence(300)
    for n in range(301):
        assert bernoulli(n) == oracle[n]


def test_bernoulli_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy >= 1.12 uses B_1 = +1/2, so start past it
    for n in range(2, 701):
        expected = sympy.bernoulli(n)
        assert bernoulli(n) == Fraction(int(expected.p), int(expected.q)), n


def test_bernoulli_request_order_does_not_matter(monkeypatch):
    from evenk import arith

    monkeypatch.setattr(arith, "_bernoulli_cache", [Fraction(1)])
    upward = [bernoulli(n) for n in range(301)]
    monkeypatch.setattr(arith, "_bernoulli_cache", [Fraction(1)])
    downward = [bernoulli(n) for n in range(300, -1, -1)]
    assert upward == downward[::-1]


def test_bernoulli_upward_walk_extends_the_memo_geometrically(monkeypatch):
    from evenk import arith

    sizes = []
    real = arith._tangent_numbers

    def recording(m):
        sizes.append(m)
        return real(m)

    monkeypatch.setattr(arith, "_tangent_numbers", recording)
    monkeypatch.setattr(arith, "_bernoulli_cache", [Fraction(1)])
    n = 600
    for i in range(n + 1):
        bernoulli(i)
    # sizes double, so the total work is O(max(sizes)^2) = O(n^2)
    assert len(sizes) <= n.bit_length() + 1
    assert max(sizes) <= n
    assert all(2 * a <= b for a, b in zip(sizes[1:], sizes[2:]))


def test_bernoulli_examples():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(7) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_refuses_an_index_beyond_any_list():
    # only indices past the limit: they fail before anything is allocated
    memo = list(arith._bernoulli_cache)
    for n in (sys.maxsize // 8, 10**20):
        with pytest.raises(ValueError, match=rf"^B_{n} needs a table of {n + 1} entries"):
            bernoulli(n)
    assert arith._bernoulli_cache == memo


def test_bernoulli_odd_vanishing():
    for n in range(3, 100, 2):
        assert bernoulli(n) == 0


def test_von_staudt_clausen():
    for n in range(2, 601, 2):
        expected = 1
        for p in sieve_primes(n + 1):
            if n % (p - 1) == 0:
                expected *= p
        assert bernoulli(n).denominator == expected


# -- Bernoulli polynomial values ---------------------------------------------

def test_bernoulli_poly_examples():
    assert bernoulli_poly_value(2, 0, 1) == Fraction(1, 6)
    assert bernoulli_poly_value(2, 1, 5) == Fraction(1, 150)
    assert bernoulli_poly_value(1, 1, 2) == 0


def test_bernoulli_poly_against_binomial_sum():
    for n in range(9):
        for f in (1, 2, 3, 5, 8):
            for a in range(f + 1):
                x = Fraction(a, f)
                direct = sum(
                    comb(n, i) * bernoulli(i) * x ** (n - i) for i in range(n + 1)
                )
                assert bernoulli_poly_value(n, a, f) == direct


def test_bernoulli_poly_bounds():
    with pytest.raises(ValueError):
        bernoulli_poly_value(2, 6, 5)


# -- primes ------------------------------------------------------------------

def test_primes_up_to():
    assert list(arith._primes(1)) == []
    assert list(arith._primes(2)) == [2]
    assert list(arith._primes(3)) == [2, 3]
    assert list(arith._primes(4)) == [2, 3]
    assert list(arith._primes(10)) == [2, 3, 5, 7]
    assert list(arith._primes(30))[-1] == 29
    assert len(list(arith._primes(1000))) == 168
    for x in (10**4, 10**6):
        assert tuple(arith._primes(x)) == sieve_primes(x), x


def test_the_walk_from_the_first_window_marks_exactly_the_primes():
    # every walk starts again at the first window of 2^8 odd numbers;
    # below 601 it is checked against trial division, then on each side
    # of the powers of two up to 2^18, as the windows double
    for x in range(601):
        naive = [n for n in range(2, x + 1) if all(n % d for d in range(2, isqrt(n) + 1))]
        assert list(arith._primes(x)) == naive, x
    for x in (2**j + d for j in range(10, 19) for d in (-1, 1)):
        assert tuple(arith._primes(x)) == sieve_primes(x), x


def _record_windows(monkeypatch):
    """The (lo, top) of each window that the walks to come sieve
    themselves, in order; the windows of their base primes' own walks
    are left out."""
    windows, depth = [], [0]
    sieve = arith._odd_window

    def recorded(lo, top):
        if depth[0] == 0:
            windows.append((lo, top))
        depth[0] += 1
        try:
            return sieve(lo, top)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(arith, "_odd_window", recorded)
    return windows


def test_the_windows_double_up_to_their_cap_and_no_further(monkeypatch):
    windows = _record_windows(monkeypatch)
    assert all(arith._primes(10**6))
    sizes = [(top - lo) // 2 + 1 for lo, top in windows]
    assert sizes[:8] == [2**j for j in range(8, 16)]
    assert set(sizes[8:-1]) == {2**15} and 0 < sizes[-1] <= 2**15
    # one after the other, they cover the odd numbers from 3 to 10^6
    assert windows[0][0] == 3 and windows[-1][1] == 10**6
    assert all(lo == top + 2 for (_, top), (lo, _) in zip(windows, windows[1:]))


def test_the_walk_agrees_at_every_window_edge(monkeypatch):
    last = 2 * 10**6 + 2
    windows = _record_windows(monkeypatch)
    assert all(arith._primes(last))
    monkeypatch.undo()
    oracle = sieve_primes(last + 2)
    for x in [top + d for _, top in windows for d in (-2, -1, 0, 1, 2)]:
        assert tuple(arith._primes(x)) == oracle[: bisect_right(oracle, x)], x


def test_windows_read_their_base_primes_from_windows(monkeypatch):
    # with windows of 4 odd numbers doubling to 16, the base primes up
    # to 316 come from walks over windows as small
    monkeypatch.setattr(arith, "_FIRST_WINDOW", 4)
    monkeypatch.setattr(arith, "_WINDOW", 16)
    windows = _record_windows(monkeypatch)
    assert list(arith._primes(10**5)) == list(sieve_primes(10**5))
    assert max((top - lo) // 2 + 1 for lo, top in windows) == 16


def test_trial_division_sieves_only_as_far_as_the_number_needs(monkeypatch):
    windows = _record_windows(monkeypatch)
    # the default budget allows 10^6, but the walk for 2 stops at 2^2 > 2
    # before any window, and the next at 11^2 > 97, in the first window
    assert factorize(2).factored == ((2, 1),)
    assert windows == []
    assert factorize(2**40 * 3**5 * 97).factored == ((2, 40), (3, 5), (97, 1))
    assert windows == [(3, 3 + 2 * arith._FIRST_WINDOW - 2)]
    # here it stops at 10009^2 > 10009, in the window that holds 10009
    windows.clear()
    assert factorize(10007 * 10009).factored == ((10007, 1), (10009, 1))
    assert windows[-1][0] <= 10009 <= windows[-1][1] < 2 * 10009


def _traced_peak(work):
    start_tracing()
    try:
        work()
        return get_traced_memory()[1]
    finally:
        stop_tracing()


def test_a_walk_never_holds_two_windows():
    # each window of _WINDOW bytes must be gone before the next is
    # sieved, or the peak is a window above that of one window alone
    lo = 2 * 10**5 + 1
    window_alone = _traced_peak(lambda: arith._odd_window(lo, lo + 2 * arith._WINDOW - 2))
    peak = _traced_peak(lambda: all(arith._primes(arith.TRIAL_CAP)))
    assert peak < window_alone + arith._WINDOW // 4


def test_trial_division_to_the_cap_holds_one_window():
    # 3^200 + 2 has no prime factor below 10^6 but 2473, so the walk runs
    # to TRIAL_CAP: one 2^15-byte window and its largest crossing-off
    # temporary (a third of its size), at most
    found = {}
    peak = _traced_peak(lambda: found.update(arith._trial_division(3**200 + 2, 10**6)[0]))
    assert found == {2473: 1}
    assert peak < 2**15 + 2**14


def test_trial_limit_zero_still_divides_by_two():
    assert factorize(2**10 * 3, 0).factored == ((2, 10), (3, 1))
    result = factorize(2**7 * 10007 * 10009, 0)
    assert result.factored == ((2, 7),)
    assert result.cofactor == 10007 * 10009


@contextmanager
def counting_is_prime():
    """Count arith.is_prime calls per argument while the block runs."""
    calls = Counter()
    real = arith.is_prime

    def counted(n):
        calls[n] += 1
        return real(n)

    with patch.object(arith, "is_prime", counted):
        yield calls


def trial_division_proving_by_size(n, trial_limit):
    """What arith._trial_division(n, trial_limit) must give, from the
    list-based trial division: the primes it met, a survivor below the
    square of the last prime tried listed as prime, and what is left."""
    found, m, tested_to = trial_division(n, trial_limit)
    if 1 < m <= tested_to**2:
        found[m], m = 1, 1
    return found, m


def factorize_without_rho(n):
    """What factorize(n, 0) must give, from the list-based trial
    division, and the primes it proves without a primality test: those
    trial division met and a survivor below the square of the last
    prime tried."""
    found, m = trial_division_proving_by_size(n, 0)
    untested = set(found)
    if m > 1 and is_prime(m):
        found[m], m = 1, 1
    elif m > 1 and (power := prime_power_root(m)):
        found[power[0]], m = power[1], 1
    return PartialFactorization(tuple(sorted(found.items())), m), untested


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 10**15 - 1),
        # a small part times a prime power above the trial limit
        st.builds(lambda a, p, e: a * p**e, st.integers(1, 1000),
                  st.integers(2, 10**4).filter(is_prime), st.integers(2, 3)),
        # the same above budget 0's trial limit, 2
        st.builds(lambda a, p, e: 2**a * p**e, st.integers(0, 10),
                  st.integers(3, 10**4).filter(is_prime), st.integers(1, 3)),
    ),
    trial_limit=st.one_of(st.integers(0, 300), st.integers(0, 2 * 10**6)),
)
def test_factorize_matches_list_based_trial_division(n, trial_limit):
    # the trial stage alone, at any limit, tests no prime for primality
    with counting_is_prime() as calls:
        trial = arith._trial_division(n, trial_limit)
    assert trial == trial_division_proving_by_size(n, trial_limit)
    assert not calls
    # with no search, what trial division leaves is tested once
    expected, untested = factorize_without_rho(n)
    with counting_is_prime() as calls:
        result = factorize(n, 0)
    assert result == expected
    for p, _ in result.factored:
        assert calls[p] == (0 if p in untested else 1)


def test_is_prime():
    known = set(sieve_primes(500))
    for n in range(500):
        assert is_prime(n) == (n in known)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# -- primality above the deterministic bound: Baillie-PSW --------------------

# strong pseudoprimes to base 2 (OEIS A001262) and strong Lucas
# pseudoprimes with Selfridge's parameters (A217255), all below 10^5
_SPSP_2 = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141,
           52633, 65281, 74665, 80581, 85489, 88357, 90751)
_SLPSP = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
          58519, 75077, 97439)
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
               29341, 41041, 46657, 52633, 62745, 63973, 75361)


def _chernick(k):
    """(6k + 1)(12k + 1)(18k + 1): a Carmichael number when all three
    factors are prime."""
    factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    assert all(is_prime(f) for f in factors)
    return prod(factors)


def test_baillie_psw_agrees_with_a_sieve_below_2e5(monkeypatch):
    primes = set(sieve_primes(2 * 10**5))
    assert all(arith._baillie_psw(n) == (n in primes) for n in range(3, 2 * 10**5, 2))
    # is_prime with Baillie-PSW from 0 on, its small-prime division included
    monkeypatch.setattr(arith, "_MR_DETERMINISTIC_BOUND", 0)
    assert all(is_prime(n) == (n in primes) for n in range(2 * 10**5))


def test_each_half_of_baillie_psw_rejects_the_pseudoprimes_of_the_other():
    for n in _SPSP_2:
        assert arith._strong_probable_prime(n, 2)
        assert not arith._strong_lucas_probable_prime(n)
    for n in _SLPSP:
        assert arith._strong_lucas_probable_prime(n)
        assert not arith._strong_probable_prime(n, 2)
    assert not any(arith._baillie_psw(n) for n in _SPSP_2 + _SLPSP + _CARMICHAEL)


def test_a_carmichael_strong_pseudoprime_above_the_bound_is_composite():
    n = _chernick(13682706)
    assert n > arith._MR_DETERMINISTIC_BOUND and arith._strong_probable_prime(n, 2)
    assert not is_prime(n)
    assert not is_prime(_chernick(13679106))


def test_a_square_is_rejected_before_the_search_for_d(monkeypatch):
    def kronecker(a, n):
        raise AssertionError(f"searched for D on {n}")

    # 1093^2 and 3511^2 are strong pseudoprimes to base 2
    squares = (1093**2, 3511**2, (2**61 - 1) ** 2, (2**89 - 1) ** 2)
    assert arith._strong_probable_prime(1093**2, 2)
    assert arith._strong_probable_prime(3511**2, 2)
    monkeypatch.setattr(arith, "kronecker", kronecker)
    for n in squares:
        assert not arith._strong_lucas_probable_prime(n)
    monkeypatch.undo()
    assert not any(is_prime(n) for n in squares)


def test_mersenne_numbers_above_the_bound():
    for e in (89, 107, 127):
        assert is_prime(2**e - 1)
    for e in (97, 101, 103, 109, 113):
        assert not is_prime(2**e - 1)


def test_products_of_two_primes_above_1e25_are_composite():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    for _ in range(6):
        p, q = (sympy.nextprime(rng.randrange(10**25, 10**30)) for _ in "pq")
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)
        assert not is_prime(p * p)


# -- primality below 2^64: Baillie-PSW, which has no pseudoprime there ------

def _twelve_bases(n):
    """Miller-Rabin to the twelve bases, is_prime's test up to 3.3e24."""
    return all(arith._strong_probable_prime(n, a) for a in arith._MR_BASES)


# strong pseudoprimes to the first 4, 5, 6, 8 and 11 prime bases, then
# the largest prime below 2^64 and the smallest above
_BELOW_AND_AROUND_2_64 = (3215031751, 2152302898747, 3474749660383,
                          341550071728321, 3825123056546413051,
                          2**64 - 59, 2**64 + 13)


def test_baillie_psw_agrees_with_the_twelve_bases_around_2_64():
    rng = random.Random(64)
    for n in [rng.randrange(2**63, 2**64) | 1 for _ in range(2000)]:
        assert is_prime(n) == arith._baillie_psw(n) == _twelve_bases(n), n
    expected = (False,) * 5 + (True, True)
    assert tuple(map(_twelve_bases, _BELOW_AND_AROUND_2_64)) == expected
    assert tuple(map(arith._baillie_psw, _BELOW_AND_AROUND_2_64)) == expected
    assert tuple(map(is_prime, _BELOW_AND_AROUND_2_64)) == expected


def test_is_prime_runs_baillie_psw_below_2_64_and_the_twelve_bases_above(monkeypatch):
    calls = []
    real = arith._baillie_psw
    monkeypatch.setattr(arith, "_baillie_psw", lambda n: calls.append(n) or real(n))
    assert is_prime(2**64 - 59) and is_prime(2**64 + 13)
    assert not is_prime(3825123056546413051)
    assert calls == [2**64 - 59, 3825123056546413051]


# -- factorization -----------------------------------------------------------

def test_factorize_examples():
    assert factorize(1) == PartialFactorization((), 1)
    assert factorize(2193408).factored == ((2, 11), (3, 2), (7, 1), (17, 1))
    assert factorize(2193408).complete
    assert factorize(59144).factored == ((2, 3), (7393, 1))


def test_factorize_multiplies_back():
    # value is the product that the oracle recomputes
    rng = random.Random(11)
    for n in list(range(1, 300)) + [rng.randrange(1, 10**12) for _ in range(40)]:
        result = factorize(n)
        assert result.value == factorization_value(result) == n


def test_factorize_finds_large_factors_with_rho():
    p, q = 1000003, 1000033
    result = factorize(p * q, arith.RHO_CAP)
    assert result.complete
    assert result.factored == ((p, 1), (q, 1))


def test_factorize_incomplete_is_flagged():
    p, q = 2**61 - 1, 2**89 - 1
    n = 4 * p * q
    result = factorize(n, 0)
    assert not result.complete
    assert result.cofactor == p * q
    assert result.value == factorization_value(result) == n
    assert result.format().endswith("·C")


def test_factorize_tests_what_rho_leaves_for_primality_once():
    # rho (given no iterations) leaves p * q; the refinement against the
    # prime r must not test it again
    p, q, r = 2**61 - 1, 2**89 - 1, 1000003
    for pieces, left in (((), r * p * q), ((r, p * q), p * q)):
        with counting_is_prime() as calls:
            result = factorize(4 * r * p * q, 0, pieces)
        check_partial_factorization(result, 4 * r * p * q)
        assert result.cofactor == left and calls[left] == 1


def test_factorize_takes_integer_roots_of_what_rho_leaves():
    for pieces in ((), (10007**2,)):
        assert factorize(10007**2, 0, pieces).format() == "10007^2"
    p, q = 2**61 - 1, 2**31 - 1
    assert factorize(4 * p**6, 0).factored == ((2, 2), (p, 6))
    # a power of a composite that rho cannot split stays one cofactor
    result = factorize(2 * (p * q) ** 2, 0)
    assert result.factored == ((2, 1),)
    assert result.cofactor == (p * q) ** 2


def test_the_root_test_tries_only_exponents_the_trial_limit_allows():
    # what rho searches has no prime up to L = max(min(budget,
    # TRIAL_CAP), 2), so c = r^k needs k <= bits(c) // (bits(L + 1) - 1);
    # rho is made to fail so that the root test sees each number
    p, q = 1000003, 1000033
    calls = Counter()
    real = arith._iroot

    def counted(n, k):
        calls[n.bit_length(), k] += 1
        return real(n, k)

    def cases(budget):
        calls.clear()
        with patch.object(arith, "_iroot", counted), patch.object(
            arith, "_pollard_rho_brent", lambda c, budget: None
        ):
            assert factorize(p**7, budget).factored == ((p, 7),)
            assert factorize(p**7 * q, budget).cofactor == p**7 * q
        return sorted(calls)

    # p^7 has 140 bits and p^7 q 160; at L = 50000, 140 // 15 = 9 and
    # 160 // 15 = 10, so k runs over 2, 3, 5, 7 in both
    assert cases(50000) == [(140, k) for k in (2, 3, 5, 7)] + [
        (160, k) for k in (2, 3, 5, 7)
    ]
    # budget 0 bounds nothing: L = 2 lets k run to the bit length
    assert cases(0) == [(140, k) for k in (2, 3, 5, 7)] + [
        (160, k) for k in sieve_primes(160)
    ]


@given(st.integers(1, 10**60), st.integers(2, 70))
def test_iroot_is_the_floor_of_the_real_root(n, k):
    r = arith._iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_factorization_format():
    assert factorize(1).format() == "1"
    assert factorize(2193408).format() == "2^11·3^2·7·17"
    assert factorize(59144).format() == "2^3·7393"


def _next_prime(x):
    while not is_prime(x):
        x += 1
    return x


# primes below the trial limit of PIECES_BUDGET, primes above it that
# rho splits off quickly, and primes rho cannot separate from each other
# in its budget
_PRIME_POOLS = (
    sieve_primes(97),
    [_next_prime(x) for x in range(10**4, 2 * 10**5, 9973)],
    [_next_prime(10**15 + 37 * 10**12 * i) for i in range(8)],
)
PIECES_BUDGET = 3000


def check_partial_factorization(result, n):
    assert factorization_value(result) == n
    primes = [p for p, _ in result.factored]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in result.factored)
    assert result.complete == (result.cofactor == 1)
    assert result.cofactor == 1 or not is_prime(result.cofactor)
    for p in primes:
        assert result.cofactor % p


@st.composite
def prime_powers_and_pieces(draw):
    """(powers, pieces): distinct prime powers of every size class; the
    pieces are groups of them (possibly with smaller exponents), some
    groups dropped, plus unrelated integers."""
    powers = draw(st.lists(
        st.tuples(
            st.sampled_from(_PRIME_POOLS).flatmap(st.sampled_from),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=7,
        unique_by=lambda pe: pe[0],
    ))
    groups = draw(st.lists(st.integers(0, 3), min_size=len(powers),
                           max_size=len(powers)))
    pieces = []
    for g in sorted(set(groups)):
        if draw(st.booleans()):
            continue
        piece = 1
        for (p, e), h in zip(powers, groups):
            if h == g:
                piece *= p ** draw(st.integers(1, e))
        pieces.append(piece)
    pieces += draw(st.lists(st.integers(1, 10**40), max_size=2))
    return sorted(powers), tuple(draw(st.permutations(pieces)))


def _product(powers):
    return prod(p**e for p, e in powers)


@settings(max_examples=200, deadline=None)
@given(prime_powers_and_pieces())
def test_factorize_with_pieces_is_a_valid_factorization(case):
    powers, pieces = case
    n = _product(powers)
    with_pieces = factorize(n, PIECES_BUDGET, pieces)
    check_partial_factorization(with_pieces, n)
    if with_pieces.complete:
        assert with_pieces.factored == tuple(powers)
    whole = factorize(n, PIECES_BUDGET)
    if with_pieces.complete and whole.complete:
        assert with_pieces == whole


@settings(max_examples=100, deadline=None)
@given(prime_powers_and_pieces())
def test_factorize_proves_each_listed_prime_once(case):
    # PIECES_BUDGET's trial division proves the primes below 100 and a
    # survivor below the square of the last prime it tried; every other
    # pool prime needs exactly one primality test, by rho's stack or by
    # the refinement against the pieces
    powers, pieces = case
    n = _product(powers)
    untested = trial_division_proving_by_size(n, PIECES_BUDGET)[0]
    for hints in ((), pieces):
        with counting_is_prime() as calls:
            result = factorize(n, PIECES_BUDGET, hints)
        assert {p: calls[p] for p, _ in result.factored} == {
            p: int(p not in untested) for p, _ in result.factored
        }


@settings(max_examples=100, deadline=None)
@given(prime_powers_and_pieces())
def test_factorize_with_every_prime_as_a_piece_is_complete(case):
    # exponents are read off n, whatever the pieces' exponents
    powers, _ = case
    pieces = tuple(p for p, _ in powers)
    result = factorize(_product(powers), 0, pieces)
    assert result == PartialFactorization(tuple(powers))


def test_factorize_pieces_refine_what_rho_cannot_split():
    p, q, r, s, t = _PRIME_POOLS[2][:5]
    n = p**2 * q * r**3 * s * t
    budget = 1000
    assert not factorize(n, budget).complete
    # no piece is a prime, but their gcds with each other and with n
    # separate all five
    result = factorize(n, budget, (p * q, q * r, r * s * t, s, 12))
    assert result.factored == ((p, 2), (q, 1), (r, 3), (s, 1), (t, 1))
    # s * t shares no piece, and rho cannot split it
    result = factorize(n, budget, (p * q, q * r))
    check_partial_factorization(result, n)
    assert result.factored == ((p, 2), (q, 1), (r, 3))
    assert result.cofactor == s * t


def test_factorize_refines_what_rho_leaves_against_the_rest():
    # rho splits this n into parts that share primes; gcds between the
    # parts, the primes found and the rest of n finish the job
    a, b, c, d, e = 907391, 1429951, 1801489, 3464173, 6104047
    n = a * b**2 * c**2 * d * e**3
    budget = 800
    assert not factorize(n, budget).complete
    result = factorize(n, budget, (a * e, a * b))
    assert result.factored == ((a, 1), (b, 2), (c, 2), (d, 1), (e, 3))


def test_factorize_with_pieces_keeps_trial_division():
    n = 2**5 * 3 * 7393 * 1000003
    for pieces in ((), (7393,), (1000003 * 7393, 6), (10**30,)):
        assert factorize(n, pieces=pieces).factored == (
            (2, 5), (3, 1), (7393, 1), (1000003, 1)
        )


def test_factorize_searches_a_repeated_composite_once():
    # the root r of r^3 comes back three times; rho gave up on the first
    # copy, and the search depends on r alone, so the others are not
    # searched again
    r = (2**61 - 1) * (2**89 - 1)
    calls = Counter()
    real = arith._pollard_rho_brent

    def counted(c, budget):
        calls[c] += 1
        return real(c, budget)

    with patch.object(arith, "_pollard_rho_brent", counted):
        result = factorize(3 * r**3, 2000)
    assert result.factored == ((3, 1),)
    assert result.cofactor == r**3
    assert calls == Counter({r**3: 1, r: 1})
    # and the composite left is listed once
    assert arith._rho_stack([r**3], 2000) == (set(), [r])


# -- the elliptic curve method -----------------------------------------------

@st.composite
def montgomery_points(draw):
    """(p, a, b, (x, y)): a point with x, y != 0 on b y^2 = x^3 + a x^2 + x
    over F_p, a^2 != 4; b is whatever puts (x, y) on the curve."""
    p = draw(st.sampled_from(sieve_primes(600)[2:]))
    a = draw(st.integers(0, p - 1).filter(lambda a: (a * a - 4) % p))
    x = draw(st.integers(1, p - 1).filter(lambda x: (x * x + a * x + 1) % p))
    y = draw(st.integers(1, p - 1))
    b = (x**3 + a * x * x + x) * pow(y * y, -1, p) % p
    return p, a, b, (x, y)


@settings(max_examples=300, deadline=None)
@given(montgomery_points(), st.integers(1, 2000))
def test_ladder_matches_affine_montgomery_arithmetic(curve, k):
    p, a, b, point = curve
    a24 = (a + 2) * pow(4, -1, p) % p
    for z in (1, 2):  # (x : 1) and the same point as (2x : 2)
        x0, z0, x1, z1 = arith._ladder(k, point[0] * z % p, z, a24, p)
        for (x, z_), multiple in ((x0, z0), k), ((x1, z1), k + 1):
            expected = montgomery_multiple(multiple, point, a, b, p)
            if expected is None:
                assert z_ % p == 0 and x % p != 0
            else:
                assert z_ % p != 0 and x % p == expected[0] * z_ % p


# two primes rho cannot separate within 10^5 iterations
_RHO_RESISTANT = (10**15 + 37) * (10**15 + 91)


def _ecm_threshold():
    """The smallest budget that runs ECM: RHO_CAP and one whole curve."""
    return arith.RHO_CAP + arith.ECM_CURVE_PRICE


def test_the_curve_price_is_what_a_projective_stage_2_curve_took():
    # the stage-1 ladder; in stage 2, the odd multiples of Q up to D/2,
    # XZ of each baby step, DQ and 2DQ, then 7 per giant step (the step
    # and XZ) and 2 per pair, leaving out the few of the set-up
    stage1 = 5 + 11 * (arith._ecm_stage1_scalar().bit_length() - 1)
    baby = 5 + 6 * (arith._ECM_D // 4) + len(arith._ECM_BABY_STEPS) + 2 * 5
    plan = arith._ecm_stage2_plan()
    giant = plan.count(0)
    assert stage1 + baby + 7 * giant + 2 * (len(plan) - giant) == arith.ECM_CURVE_PRICE


def test_a_budget_below_rho_cap_plus_a_curve_never_enters_ecm(monkeypatch):
    def ecm(n, budget):
        raise AssertionError(f"ECM ran with budget {budget}")

    monkeypatch.setattr(arith, "_ecm", ecm)
    threshold = _ecm_threshold()
    assert threshold == 77_063
    for budget in (0, 1000, arith.RHO_CAP, arith.RHO_CAP + 1, threshold - 1):
        result = factorize(_RHO_RESISTANT, budget)
        assert result.cofactor == _RHO_RESISTANT
    with pytest.raises(AssertionError, match=f"budget {threshold - arith.RHO_CAP}$"):
        factorize(_RHO_RESISTANT, threshold)


def test_the_threshold_budget_runs_rho_cap_iterations_and_one_curve(monkeypatch):
    rho, curves = [], []
    real_rho = arith._pollard_rho_brent

    def counted_rho(n, budget):
        rho.append(budget)
        return real_rho(n, budget)

    monkeypatch.setattr(arith, "_pollard_rho_brent", counted_rho)
    monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma: curves.append(sigma))
    threshold = _ecm_threshold()
    result = factorize(_RHO_RESISTANT, threshold - 1)
    assert result.cofactor == _RHO_RESISTANT and rho == [threshold - 1] and curves == []
    rho.clear()
    result = factorize(_RHO_RESISTANT, threshold)
    assert result.cofactor == _RHO_RESISTANT and rho == [arith.RHO_CAP] and len(curves) == 1


def test_ecm_starts_a_curve_only_if_its_whole_cost_fits(monkeypatch):
    curves = []
    monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma: curves.append(sigma))
    cost = arith.ECM_CURVE_PRICE
    result = factorize(_RHO_RESISTANT, arith.RHO_CAP + 2 * cost - 1)
    assert result.cofactor == _RHO_RESISTANT and len(curves) == 1
    assert arith._ecm(_RHO_RESISTANT, 3 * cost - 1) is None
    assert len(curves) == 3


def _semiprimes_of_12_digit_primes():
    """Eight products of two 12-digit primes, fixed by the seed.  Whether
    ECM splits a given n is fixed too, so a fixed list, not a drawn one,
    keeps the test stable."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2025)
    out = []
    for _ in range(8):
        p, q = (sympy.nextprime(rng.randrange(10**11, 10**12 - 100)) for _ in "pq")
        out.append((min(p, q), max(p, q)))
    return out


def test_the_default_budget_splits_products_of_two_12_digit_primes():
    for p, q in _semiprimes_of_12_digit_primes():
        result = factorize(p * q)
        assert result.factored == ((p, 1), (q, 1))
        assert factorize(p * q) == result


def test_the_ecm_plan_covers_every_stage_2_prime_once():
    # each prime in (B1, B2] is m D +- j for exactly one step of the
    # plan, and the plan holds no pair that covers no prime
    plan = arith._ecm_stage2_plan()
    d = arith._ECM_D
    covered, m = [], 2
    for j in plan:
        if j:
            assert j in arith._ECM_BABY_STEPS
            pair = [p for p in (m * d - j, m * d + j)
                    if arith.ECM_B1 < p <= arith.ECM_B2 and is_prime(p)]
            assert pair
            covered += pair
        else:
            m += 1
    assert sorted(covered) == [p for p in sieve_primes(arith.ECM_B2) if p > arith.ECM_B1]


_STAGE_2_PRIMES = sieve_primes(2 * 10**5)


@st.composite
def stage_2_inputs(draw):
    """(x, z, a24, n) for n = p q, q = 2^89 - 1 and a random point: for
    p < 3000, some used multiple of Q is O modulo p; for p up to 2e5,
    stage 2 mostly runs on units and now and then divides p."""
    p = draw(st.one_of(st.sampled_from(_STAGE_2_PRIMES[4:430]),
                       st.sampled_from(_STAGE_2_PRIMES[430:]),
                       st.just(2**61 - 1)))
    n = p * (2**89 - 1)
    x, z, a24 = (draw(st.integers(0, n - 1)) for _ in "xza")
    return x, z, a24, n


@settings(max_examples=60, deadline=None)
@given(stage_2_inputs())
def test_affine_stage_2_is_the_projective_product_over_a_unit(inputs):
    # the projective product over the pairs (m, j) of X_m Z_j - X_j Z_m
    # is Z_m Z_j (x_m - x_j); when every Z is a unit, dividing by the
    # product of the Z_m Z_j gives the affine product exactly
    x, z, a24, n = inputs
    affine = arith._ecm_stage2(x, z, a24, n)
    projective, scale = ecm_stage2_projective(x, z, a24, n)
    if gcd(scale, n) == 1:
        assert affine == projective * pow(scale, -1, n) % n
        assert gcd(affine, n) == gcd(projective, n)
    else:
        # some used multiple of Q is O modulo a prime of n
        assert gcd(affine, n) > 1


def _z_of_multiple(k, x, a24, p):
    """Z(kQ) mod p for Q = (x : 1) and k >= 1."""
    return arith._ladder(k, x % p, 1, a24 % p, p)[1] % p


def test_a_giant_step_that_is_o_mod_p_gives_a_divisor():
    rng = random.Random(499)
    q = 2**89 - 1
    plan = arith._ecm_stage2_plan()
    used = [m for m, pairs in enumerate(plan.split(b"\0"), 2) if pairs]
    for p in (53, 211, 307, 499):
        n, hits = p * q, 0
        while hits < 2:
            x, a24 = rng.randrange(n), rng.randrange(n)
            if any(_z_of_multiple(j, x, a24, p) == 0 for j in arith._ECM_BABY_STEPS):
                continue
            if all(_z_of_multiple(m * arith._ECM_D, x, a24, p) for m in used):
                continue
            # a giant step mDQ that a pair uses is O mod p: its Z, and
            # so the product the affine stage 2 inverts, is not a unit
            assert gcd(arith._ecm_stage2(x, 1, a24, n), n) == p
            hits += 1


def test_ecm_curves_agree_with_the_projective_curves():
    found = 0
    for p, q in _semiprimes_of_12_digit_primes():
        rng = random.Random(p * q)  # the first curves _ecm draws
        for _ in range(3):
            sigma = rng.randrange(6, p * q - 1)
            g = arith._ecm_curve(p * q, sigma)
            assert g == ecm_curve_projective(p * q, sigma)
            found += g is not None
    assert found > 0


def test_stage_2_stays_under_32_kb_on_a_230_bit_number():
    rng = random.Random(230)
    n = rng.randrange(2**229, 2**230) | 1
    x, z, a24 = (rng.randrange(n) for _ in "xza")
    arith._ecm_stage2_plan()  # the cached plan is not stage 2's to pay for
    assert _traced_peak(lambda: arith._ecm_stage2(x, z, a24, n)) < 32 * 1024


def test_bernoulli_memo_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    oracle = bernoulli_by_recurrence(140)
    targets = list(range(100, 141)) * 4  # indices no other test has warmed
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli, targets))
    for n, value in zip(targets, results):
        assert value == oracle[n]
