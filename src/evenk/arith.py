"""Exact integer and rational primitives.

Everything here is pure big-integer / big-rational arithmetic: divisor
power sums, the full Kronecker symbol, l-adic valuations, Bernoulli
numbers (from integer tangent numbers), a prime walk that keeps no
table (windows of odd numbers sieved one at a time, doubling from 2^8
to 2^15), and factorization.  `fractions.Fraction` is the rational
scalar used throughout the package.

factor_small factors completely, by trial division to TRIAL_CAP and a
proof that what is left is prime, or refuses the number.  factorize is
best-effort under one integer budget N: trial division to min(N,
TRIAL_CAP), Pollard rho with Brent cycle detection, then, once N buys a
whole curve beyond RHO_CAP rho iterations, the elliptic curve method
with the rest counted in modular multiplications, optionally run on the
factors a number was multiplied from.

Primality is Baillie-PSW: a strong probable-prime test to base 2 and a
strong Lucas test with Selfridge's parameters (Baillie and Wagstaff,
Math. Comp. 35, 1980; Pomerance, Selfridge and Wagstaff, ibid.).  Below
2^64 it is exact: Feitsma's list of the strong pseudoprimes to base 2
below 2^64 holds none that passes the Lucas test.  From 2^64 to 3.3e24
Miller-Rabin to twelve fixed bases is deterministic and used instead;
above, no composite is known to pass Baillie-PSW, but none is proved
not to.

The elliptic curve method is Lenstra's (Ann. of Math. 126, 1987) on
Montgomery's x-only curves (Math. Comp. 48, 1987), as in Cohen, "A
Course in Computational Algebraic Number Theory", section 10.3.  Its
stage 2 works on affine x-coordinates, put at Z = 1 a chunk of points
at a time by simultaneous inversion (Montgomery, Math. Comp. 48, as
above): one shared inversion and 4 multiplications a point.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt, prod

from .values import Value

# Witnesses making Miller-Rabin deterministic below 3.317e24; is_prime
# runs them on [_BPSW_EXACT_BOUND, 3.317e24) and Baillie-PSW elsewhere,
# which has no pseudoprime below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_BPSW_EXACT_BOUND = 2**64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


# factorize's budget when the caller names none
FACTOR_BUDGET = 10**6
# Trial division walks primes up to this bound at most, whatever the budget.
TRIAL_CAP = 10**6
# Pollard rho runs at most this many iterations per number, whatever the
# budget; the rest of a budget that buys a whole curve beyond it goes to
# ECM curves.
RHO_CAP = 10**4
# The price a budget pays for one ECM curve, in modular multiplications:
# what a curve took when stage 2 ran on projective points.  A curve now
# does about 52,900.
ECM_CURVE_PRICE = 67_063
# ECM stage 1 multiplies by every prime power up to ECM_B1, stage 2
# catches one more prime up to ECM_B2, in giant steps of _ECM_D.
ECM_B1 = 2000
ECM_B2 = 2 * 10**5
_ECM_D = 210
# the baby steps j of stage 2: 0 < j < D/2 and gcd(j, D) = 1
_ECM_BABY_STEPS = tuple(j for j in range(1, _ECM_D // 2, 2) if gcd(j, _ECM_D) == 1)
# giant steps of stage 2 that share one inversion
_ECM_CHUNK = 64


# The walk sieves windows of odd numbers (Bays and Hudson, BIT 17,
# 1977), one at a time and each let go before the next: the first of
# _FIRST_WINDOW, each next one twice as long up to _WINDOW, so a walk
# that stops early pays for about what it reached.
_FIRST_WINDOW = 2**8
_WINDOW = 2**15


def _odd_window(lo: int, top: int) -> bytearray:
    """w[i] == 1 iff lo + 2i is prime, for odd 1 <= lo <= top: the odd
    numbers from lo to top crossed off by the odd primes up to
    sqrt(top), which a walk of their own gives, and 1 marked not prime."""
    n = (top - lo) // 2 + 1
    w = bytearray([1]) * n
    if lo == 1:
        w[0] = 0
    for p in islice(_primes(isqrt(top)), 1, None):
        # the first odd multiple of p from max(p^2, lo)
        start = max(p * p, -(-lo // p) * p)
        start += p * (1 - start % 2)
        i = (start - lo) // 2
        # a bytearray, because a slice assignment copies bytes into one
        w[i::p] = bytearray(len(range(i, n, p)))
    return w


def _primes(hi: int) -> Iterator[int]:
    """The primes <= hi in increasing order, sieved lazily one window at
    a time, so a caller that stops early never pays for much more than
    the primes it reached, and a walk holds one window at most."""
    if hi >= 2:
        yield 2
    lo, size = 3, _FIRST_WINDOW
    while lo <= hi:
        top = min(hi, lo + 2 * size - 2)
        w = _odd_window(lo, top)
        yield from compress(range(lo, top + 1, 2), w)
        # let go of the window before the next is sieved, so the two
        # never count to the peak memory together
        del w
        lo, size = top + 2, min(2 * size, _WINDOW)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes Miller's strong test to base a, 0 < a < n:
    for n - 1 = d 2^r with d odd, a^d = 1 or a^(d 2^i) = -1 mod n for
    some 0 <= i < r."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Whether odd n > 2 passes the strong Lucas test with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with Jacobi symbol
    (D | n) = -1, P = 1 and Q = (1 - D) / 4.  For n + 1 = k 2^s with k
    odd, n passes when U_k = 0 or V_(k 2^i) = 0 mod n for some
    0 <= i < s.  No D of a perfect square has symbol -1, so squares are
    rejected before the search."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := kronecker(d, n)) != -1:
        if j == 0:
            # D shares a factor with n: n is prime only as |D| itself
            return abs(d) == n
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # U_m, V_m and Q^m mod n for m the leading bits of k, from m = 1:
    # U_2m = U_m V_m and V_2m = V_m^2 - 2 Q^m; with P = 1 a step to
    # m + 1 is U = (U + V) / 2, V = (D U + V) / 2, halved mod odd n
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = ((u + n * (u & 1)) >> 1) % n
            v = ((v + n * (v & 1)) >> 1) % n
            qm = qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % n
        if v == 0:
            return True
        qm = qm * qm % n
    return False


def _baillie_psw(n: int) -> bool:
    """Baillie-PSW for odd n > 2: strong probable prime to base 2 and
    strong Lucas probable prime."""
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def is_prime(n: int) -> bool:
    """Baillie-PSW below 2^64, where it is exact; Miller-Rabin to the
    fixed bases _MR_BASES from there to 3.3e24, where they make it
    deterministic; Baillie-PSW above, which no known composite passes."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if _BPSW_EXACT_BOUND <= n < _MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _baillie_psw(n)


@lru_cache(maxsize=None)
def factor_small(n: int) -> tuple[tuple[int, int], ...]:
    """Complete factorization of n >= 1 by trial division to TRIAL_CAP.
    What is left must be a prime below _MR_DETERMINISTIC_BOUND, where
    is_prime proves it; any other n, such as a product of two primes
    above TRIAL_CAP, is refused with ValueError rather than searched."""
    if n < 1:
        raise ValueError("factor_small requires n >= 1")
    found, m = _trial_division(n, TRIAL_CAP)
    if m > 1:
        if not (m < _MR_DETERMINISTIC_BOUND and is_prime(m)):
            raise ValueError(
                f"cannot factor {n}: trial division to {TRIAL_CAP} leaves {m}, "
                "which is not a proved prime"
            )
        found[m] = 1
    return tuple(found.items())


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    out = [1]
    for p, e in factor_small(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def divisor_sum(m: int, j: int) -> int:
    """sigma_j(m) = sum of d^j over the positive divisors d of m."""
    if m < 1:
        raise ValueError("divisor_sum requires m >= 1")
    if j < 0:
        raise ValueError("divisor_sum requires j >= 0")
    total = 1
    for p, e in factor_small(m):
        if j == 0:
            total *= e + 1
        else:
            total *= (p ** (j * (e + 1)) - 1) // (p**j - 1)
    return total


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extended to all integer n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    # n odd and positive: reciprocity loop
    while True:
        a %= n
        if a == 0:
            return k if n == 1 else 0
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n, a


def valuation(x: int | Fraction, ell: int) -> int:
    """Largest e with ell^e dividing x; negative for denominators."""
    if not is_prime(ell):
        raise ValueError(f"valuation requires a prime, got {ell}")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if isinstance(x, Fraction):
        return valuation(x.numerator, ell) - valuation(x.denominator, ell)
    x = abs(x)
    e = 0
    while x % ell == 0:
        x //= ell
        e += 1
    return e


_bernoulli_cache: list[Fraction] = [Fraction(1)]


def _tangent_numbers(m: int) -> list[int]:
    """T_0..T_m with tan x = sum_k T_k x^(2k-1) / (2k-1)! (T_0 = 0).

    Brent-Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers" (arXiv:1108.0286), Algorithm TangentNumbers: O(m^2)
    additions and small multiples of Python ints, in place.
    """
    t = [0] * (m + 1)
    if m < 1:
        return t
    t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        prev = 0
        for i in range(m - k + 1):
            prev = i * prev + (i + 2) * t[k + i]
            t[k + i] = prev
    return t


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    T_k.  A miss extends the memo to at least twice its length, so
    callers walking 0..n cost O(n^2) in all.
    """
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    if n >= sys.maxsize // 8:
        raise ValueError(f"B_{n} needs a table of {n + 1} entries, more than a list can hold")
    top = len(_bernoulli_cache) - 1
    if n > top:
        top = max(n, 2 * top)
        t = _tangent_numbers(top // 2)
        out = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, top // 2 + 1):
            four_k = 4**k
            b = Fraction(2 * k * t[k], four_k * (four_k - 1))
            out += (b if k % 2 else -b, Fraction(0))
        _bernoulli_cache[:] = out[: top + 1]
    return _bernoulli_cache[n]


class PartialFactorization(Value):
    """Factored part of an integer plus whatever resisted the budget.

    factored lists (prime, exponent) pairs in increasing prime order;
    cofactor is the remaining unfactored part, and the factorization is
    complete exactly when it is 1.  value, the product of everything,
    is the original integer.  factorize proves each listed prime once,
    while finding it, and winv builds w_2k(F) as one with cofactor 1
    from primes it has proved, so only the shape is checked here.
    """

    __slots__ = ("factored", "cofactor")
    _defaults = {"cofactor": 1}
    factored: tuple[tuple[int, int], ...]
    cofactor: int

    def __post_init__(self) -> None:
        for p, e in self.factored:
            if e < 1:
                raise ValueError(f"bad factorization entry ({p}, {e})")

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def value(self) -> int:
        return self.cofactor * prod(p**e for p, e in self.factored)

    def format(self) -> str:
        """Render like '2^11·3^2·7·17', with a trailing '·C' marker for
        an unfactored composite cofactor."""
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factored]
        if not self.complete:
            parts.append(str(self.cofactor))
            return "·".join(parts) + "·C"
        return "·".join(parts) if parts else "1"


def _pollard_rho_brent(n: int, budget: int) -> int | None:
    """A nontrivial factor of composite odd n, or None within budget."""
    rng = random.Random(n)
    iterations = 0
    while iterations < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and iterations < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and iterations < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    # x - y may be negative: q changes only by a sign
                    # mod n, which leaves gcd(q, n) alone
                    q = q * (x - y) % n
                iterations += min(m, r - k)
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: integer Newton steps down from a
    power of 2 above the root."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int, tried: int) -> tuple[int, int] | None:
    """(r, k) with n = r^k for a prime k, or None; for n >= 2 with no
    prime factor up to tried >= 2.  Then r > tried, so k is at most
    log n / log(tried + 1)."""
    for k in _primes(n.bit_length() // ((tried + 1).bit_length() - 1)):
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


# ECM on the Montgomery curves B y^2 = x^3 + A x^2 + x, in projective
# x-only coordinates (X : Z); a24 = (A + 2) / 4 mod n.  The two formulas
# cost 5 and 6 modular multiplications.


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """2P for P = (x : z)."""
    s = (x + z) ** 2 % n
    t = (x - z) ** 2 % n
    d = s - t
    return s * t % n, d * (t + a24 * d) % n


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int],
          n: int) -> tuple[int, int]:
    """P + Q from P, Q and P - Q."""
    s = (p[0] - p[1]) * (q[0] + q[1]) % n
    t = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (s + t) ** 2 % n, diff[0] * (s - t) ** 2 % n


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """kP and (k + 1)P for P = (x : z) and k >= 1, by Montgomery's
    ladder: one doubling and one addition, 11 multiplications, per bit
    of k after the first.  The hot loop of ECM, so _xdbl and _xadd are
    written out."""
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, a24, n)
    for bit in bin(k)[3:]:
        # (R0, R1) becomes (2 R0, R0 + R1) on a 0 bit and (R0 + R1, 2 R1)
        # on a 1 bit; R1 - R0 = P throughout
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        sp, sm = x0 + z0, x0 - z0
        s = sm * (x1 + z1) % n
        t = sp * (x1 - z1) % n
        x1, z1 = z * (s + t) ** 2 % n, x * (s - t) ** 2 % n
        s, t = sp * sp % n, sm * sm % n
        d = s - t
        x0, z0 = s * t % n, d * (t + a24 * d) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0, x1, z1


@lru_cache(maxsize=None)
def _ecm_stage1_scalar() -> int:
    """lcm(1, ..., ECM_B1): the largest power up to ECM_B1 of each prime."""
    k = 1
    for p in _primes(ECM_B1):
        q = p
        while q * p <= ECM_B1:
            q *= p
        k *= q
    return k


@lru_cache(maxsize=None)
def _ecm_stage2_plan() -> bytes:
    """Stage 2's schedule for D = _ECM_D, one byte per step: 0 is a
    giant step from mDQ to (m + 1)DQ, starting at m = 2, and j > 0 pairs
    mDQ with the baby step jQ, for a prime p = mD +- j in (ECM_B1,
    ECM_B2]; a pair that covers two primes comes once, and the pairs of
    one giant step come in increasing j.  About 15k bytes, read off one
    window of the odd numbers up to ECM_B2 in columns: mD + j and mD - j
    for m = 0, 1, ... lie D/2 entries apart in it."""
    half = _ECM_D // 2
    top = (ECM_B2 + half) // _ECM_D  # the last giant step m
    window = _odd_window(1, ECM_B2)
    lo, hi = (ECM_B1 + 1) // 2, (ECM_B2 + 1) // 2  # the entries of (B1, B2]

    def column(c: int) -> int:
        """The entries m half + c for m = 0..top, 1 for a prime in (B1,
        B2] and 0 otherwise, one byte each, read as a big-endian int so
        that two columns OR together."""
        first = max(0, -((c - lo) // half))
        last = (hi - 1 - c) // half
        flags = window[first * half + c : last * half + c + 1 : half]
        return int.from_bytes(bytes(first) + flags + bytes(top - last), "big")

    # one row per m: its baby steps, then 255 where the giant step goes
    width = len(_ECM_BABY_STEPS) + 1
    grid = bytearray(width * (top + 1))
    for i, j in enumerate(_ECM_BABY_STEPS):
        # a 0/1 byte per m: mD + j or mD - j is a prime in range
        hit = (column(j // 2) | column(-(j // 2) - 1)).to_bytes(top + 1, "big")
        grid[i::width] = hit.replace(b"\1", bytes((j,)))
    grid[width - 1 :: width] = b"\xff" * (top + 1)
    # from m = 2 on, without the 0s of the baby steps that pair nothing
    rows = bytes(grid[2 * width :]).translate(None, b"\0")
    return rows.replace(b"\xff", b"\0").rstrip(b"\0")


def _to_affine(xs: list[int], zs: list[int], n: int) -> int:
    """Replace each xs[i] by xs[i] / zs[i] mod n and return 1, with one
    inversion for all of them and 4 multiplications a point (Montgomery's
    simultaneous inversion); or, when some zs[i] is not a unit, leave xs
    alone and return gcd(prod zs, n) > 1."""
    before = []  # before[i] = zs[0] ... zs[i - 1]
    c = 1
    for zi in zs:
        before.append(c)
        c = c * zi % n
    if (g := gcd(c, n)) != 1:
        return g
    inv = pow(c, -1, n)
    for i in range(len(zs) - 1, -1, -1):
        # inv = 1 / (zs[0] ... zs[i])
        xs[i] = xs[i] * before[i] % n * inv % n
        inv = inv * zs[i] % n
    return 1


def _ecm_stage2(x: int, z: int, a24: int, n: int) -> int:
    """The product over the pairs (m, j) of _ecm_stage2_plan of
    x(mDQ) - x(jQ) mod n on affine x-coordinates, for Q = (x : z): a
    prime of n divides it when the order of Q modulo that prime is a
    prime in (ECM_B1, ECM_B2].  Each term costs one multiplication.  The
    baby steps are put at Z = 1 with one inversion; the giant steps are
    walked in chunks of _ECM_CHUNK, each chunk's points that a pair uses
    with one more.

    It is the projective product of X_m Z_j - X_j Z_m times the unit
    prod 1 / (Z_m Z_j), so its gcd with n is the same, as long as every
    such Z is a unit.  If one is not, a multiple of Q is O modulo a
    prime of n, and what comes back is gcd(prod Z, n) over the points of
    that inversion: the one case where a curve may find a factor the
    projective product would have missed, or miss one it would have
    found."""
    q = (x, z)
    q2 = _xdbl(x, z, a24, n)
    odd = [q, _xadd(q2, q, q, n)]  # odd[i] = (2i + 1) Q, up to (D/2) Q
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(odd[-1], q2, odd[-2], n))
    xs = [odd[j // 2][0] for j in _ECM_BABY_STEPS]
    if (g := _to_affine(xs, [odd[j // 2][1] for j in _ECM_BABY_STEPS], n)) != 1:
        return g
    baby = [0] * (_ECM_D // 2)
    for j, xj in zip(_ECM_BABY_STEPS, xs):
        baby[j] = xj
    xr, zr = _xdbl(*odd[-1], a24, n)  # R = DQ
    sr, dr = xr + zr, xr - zr
    xp, zp = xr, zr  # (m - 1)DQ
    xm, zm = _xdbl(xr, zr, a24, n)  # mDQ, from m = 2
    plan = _ecm_stage2_plan()
    acc = 1
    at = 0  # where the pairs of mDQ start in the plan
    while at <= len(plan):
        # the next _ECM_CHUNK giant points that a pair uses, and their pairs
        xs, zs, pairs = [], [], []
        for _ in range(_ECM_CHUNK):
            end = plan.find(0, at)
            if end < 0:
                end = len(plan)
            if end > at:
                xs.append(xm)
                zs.append(zm)
                pairs.append(plan[at:end])
            at = end + 1
            if at > len(plan):
                break
            # (m + 1)DQ = mDQ + R, whose difference is (m - 1)DQ
            s = (xm - zm) * sr % n
            t = (xm + zm) * dr % n
            xp, zp, xm, zm = xm, zm, zp * (s + t) ** 2 % n, xp * (s - t) ** 2 % n
        if (g := _to_affine(xs, zs, n)) != 1:
            return g
        for xa, js in zip(xs, pairs):
            for j in js:
                acc = acc * (xa - baby[j]) % n
    return acc


def _ecm_curve(n: int, sigma: int) -> int | None:
    """A divisor 1 < g < n found on the curve of Suyama's
    parametrization at sigma (whose order modulo any prime p of n is
    divisible by 12), or None."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x, z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x * v % n
    g = gcd(den, n)
    if g == 1:
        a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
        # the base point enters at Z = 1: z = v^3 is a unit, as den is
        x, z, _, _ = _ladder(_ecm_stage1_scalar(), x * pow(z, -1, n) % n, 1, a24, n)
        g = gcd(z, n)
        if g == 1:
            g = gcd(_ecm_stage2(x, z, a24, n), n)
    return g if 1 < g < n else None


def _ecm(n: int, budget: int) -> int | None:
    """A nontrivial factor of odd composite n, or None: one ECM curve
    after another while the whole price of the next still fits in the
    budget of modular multiplications.  The curves are drawn from
    random.Random(n), so the outcome depends on n and budget alone."""
    rng = random.Random(n)
    while budget >= ECM_CURVE_PRICE:
        budget -= ECM_CURVE_PRICE
        if g := _ecm_curve(n, rng.randrange(6, n - 1)):
            return g
    return None


def _coprime_base(numbers: list[int]) -> list[int]:
    """Pairwise coprime integers > 1, in increasing order, such that
    every input is a product of some of them; their primes are exactly
    the primes of the inputs.  Quadratic in the (short) input list."""
    base: list[int] = []
    todo = [a for a in numbers if a > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                todo += [c for c in (g, b // g, a // g) if c > 1]
                break
        else:
            base.append(a)
    return sorted(base)


def _budget_shares(budget: int) -> tuple[int, int]:
    """The rho iterations and ECM multiplications of one number's budget
    N: (RHO_CAP, N - RHO_CAP) once N - RHO_CAP buys a whole curve, else
    (N, 0)."""
    if budget - RHO_CAP >= ECM_CURVE_PRICE:
        return RHO_CAP, budget - RHO_CAP
    return budget, 0


def _rho_stack(stack: list[int], budget: int) -> tuple[set[int], list[int]]:
    """Split every stack entry by primality test, Pollard rho, then, for
    what rho gives up on, an integer root and ECM, with the budget shared
    by _budget_shares: the primes met (each proved once) and the
    composites left, each once.  A repeat of a composite already given
    up on is not searched again: the search depends on the number alone,
    so it would fail again.

    Every entry divides what trial division with the same budget left,
    so its primes, and those of every number split off it, all exceed
    max(min(budget, TRIAL_CAP), 2); the root test tries only the
    exponents that allows."""
    tried = max(min(budget, TRIAL_CAP), 2)
    found: set[int] = set()
    stubborn: list[int] = []
    while stack:
        c = stack.pop()
        if c in found or c in stubborn:
            continue
        if is_prime(c):
            found.add(c)
            continue
        rho, ecm = _budget_shares(budget)
        if g := _pollard_rho_brent(c, rho):
            stack += (g, c // g)
        elif power := _perfect_power(c, tried):
            r, k = power
            stack += [r] * k
        elif ecm and (g := _ecm(c, ecm)):
            stack += (g, c // g)
        else:
            stubborn.append(c)
    return found, stubborn


def _split_along_pieces(
    m: int, pieces: tuple[int, ...], budget: int
) -> tuple[dict[int, int], int]:
    """Prime powers of m found through the pieces, and the cofactor.

    Rho and ECM run on a coprime base of m and of each piece's common
    part with m, so a prime shared by several pieces is split once, on a
    number far smaller than m.  Whatever of m no piece explains is a
    base element of its own and goes through the same stack; with no
    pieces the base is [m].  The composites rho and ECM gave up on are
    refined by gcds against each other, the primes found and the rest
    of m (only the new parts are tested for primality); exponents are
    read by dividing m, and what is left of it is the cofactor.
    """
    base = _coprime_base([m, *(gcd(piece, m) for piece in pieces)])
    met, stubborn = _rho_stack(base, budget)
    found: dict[int, int] = {}
    new = sorted(met)
    while new:
        for p in new:
            found[p] = 0
            while m % p == 0:
                m //= p
                found[p] += 1
        new = [
            c
            for c in _coprime_base([*found, *stubborn, m])
            if c not in found and c not in stubborn and is_prime(c)
        ] if m > 1 else []
    return found, m


def _trial_division(n: int, limit: int) -> tuple[dict[int, int], int]:
    """The prime powers of n >= 1 that trial division over the primes up
    to max(min(limit, TRIAL_CAP), 2) finds, and what is left of n.  The
    primes are sieved only as far as the number needs, and a survivor
    below the square of the last prime tried is listed as prime, with no
    primality test."""
    found: dict[int, int] = {}
    m = n
    tested_to = 1
    for p in _primes(max(min(limit, TRIAL_CAP), 2)):
        tested_to = p
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            found[p] = found.get(p, 0) + 1
    if m > 1 and m <= tested_to * tested_to:
        found[m] = found.get(m, 0) + 1
        m = 1
    return found, m


def factorize(
    n: int, budget: int = FACTOR_BUDGET, pieces: tuple[int, ...] = ()
) -> PartialFactorization:
    """Best-effort factorization of n >= 1 under a budget N >= 0.

    Trial division runs over the primes up to min(N, TRIAL_CAP) (2 at
    least).  What is left goes through _split_along_pieces in every
    case: Pollard rho (Brent variant) on a coprime base, an integer root
    test on what rho cannot split, ECM on what is still composite, and
    gcd refinement of the composites left.  Each number searched gets
    RHO_CAP rho iterations and ECM curves for the other N - RHO_CAP
    modular multiplications, at ECM_CURVE_PRICE a curve, once that buys
    a whole curve; a smaller N gives rho all N iterations and ECM
    nothing.  Anything still composite when the budget runs out is
    returned as an explicit cofactor, never mislabeled.

    pieces are optional positive integers whose primes should cover
    those of n, typically the factors n was multiplied from: rho then
    runs on their parts in common with n instead of on n itself.  They
    are hints only; n stays the ground truth, and primes of n that no
    piece carries are found through n's own base element.  With no
    pieces the base is just what trial division left.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    found, m = _trial_division(n, budget)
    large, cofactor = _split_along_pieces(m, pieces, budget)
    found.update(large)
    return PartialFactorization(tuple(sorted(found.items())), cofactor)
