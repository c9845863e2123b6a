"""Small number-theory helpers owned by the benchmark.

The workload generator and the output checker use these instead of
`evenk`, so that a defect in the program cannot hide itself from the
checks that are meant to catch it.
"""

from __future__ import annotations

from math import gcd

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 16 prime bases: exact below 3.3e24,
    and an error rate below 4^-16 per composite above that."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """Discriminant of a real quadratic field."""
    if d <= 1:
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (2, 3) and squarefree(d // 4)
    return False


def euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    # Jacobi symbol (d|n) for odd n
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def primitive_root(m: int) -> int:
    """A generator of (Z/mZ)^* for m an odd prime power."""
    phi = euler_phi(m)
    factors = [p for p in range(2, phi + 1) if phi % p == 0 and is_prime(p)]
    for g in range(2, m):
        if gcd(g, m) == 1 and all(pow(g, phi // p, m) != 1 for p in factors):
            return g
    raise ValueError(f"(Z/{m}Z)^* is not cyclic")

