"""Exact integer utilities: factorization, primality, and the two
counting formulas (order of GL2(Z/nZ) and irreducible polynomials over F_p).

Everything here runs on Python ints, and trial division is plenty at the
scale of the scans (moduli < 1000, group orders around 10^12). Only
irred_count is cached: the tables repeat its (m, p) 92% of the time and its
powers of p dominate them; caches on factorize and gl2_order gained nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ArithmeticBug, InputError


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization of m >= 1: the (prime, exponent) pairs
    in increasing prime order, empty for m = 1."""
    if m < 1:
        raise InputError(f"factorize requires m >= 1, got {m}")
    value = m
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    if math.prod(q**e for q, e in factors) != value:
        raise ArithmeticBug(f"factorization does not multiply back to {value}")
    return tuple(factors)


def is_prime(m: int) -> bool:
    """Trial division by 2 and by the odd numbers up to sqrt(m)."""
    if m < 4:
        return m > 1
    return m % 2 == 1 and all(m % d for d in range(3, math.isqrt(m) + 1, 2))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, math.isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [i for i, flag in enumerate(sieve) if flag]


def gl2_order(n: int) -> int:
    """|GL2(Z/nZ)| = prod over p^e || n of p^(4(e-1)) (p^2-1)(p^2-p)."""
    if n < 2:
        raise InputError(f"gl2_order requires n >= 2, got {n}")
    out = 1
    for p, e in factorize(n):
        out *= p ** (4 * (e - 1)) * (p * p - 1) * (p * p - p)
    return out


@lru_cache(maxsize=None)
def irred_count(m: int, p: int) -> int:
    """Number of monic irreducible polynomials of degree m over F_p:
    (1/m) * sum over d | m of mu(m/d) p^d, where only the squarefree
    k = m/d, products of distinct primes of m, have mu(k) != 0.
    """
    if m < 1:
        raise InputError(f"irred_count requires degree m >= 1, got {m}")
    if not is_prime(p):
        raise InputError(f"irred_count requires p prime, got {p}")
    terms = [(1, 1)]  # (squarefree k | m, mu(k))
    for q, _ in factorize(m):
        terms += [(k * q, -mu) for k, mu in terms]
    total = sum(mu * p ** (m // k) for k, mu in terms)
    if total % m != 0:
        raise ArithmeticBug(f"Möbius sum {total} not divisible by {m}")
    count = total // m
    if count <= 0:
        raise ArithmeticBug(f"irred_count({m}, {p}) came out nonpositive")
    return count

