"""Units of Z[w]/nZ[w], w^2 = delta w + c, and their orders.

An element u + v w is the pair (u, v) of ints; mul is the one product, over
Z or mod m. order_mod takes the Frobenius element pi = (u, v, delta, c) of
frobenius.pi: its order mod n is that of the Frobenius matrix, a conjugate
of multiplication by pi (see frobenius.sigma). The order is found locally at
each prime power q^e || n by stripping the primes of |GL2(F_q)|, found once
per q, from a multiple of it that the eigenvalues mod q give; the local
orders combine by lcm.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import factorize
from .errors import ArithmeticBug, InputError


def mul(x: tuple[int, int], y: tuple[int, int], delta: int, c: int,
        m: int = 0) -> tuple[int, int]:
    """x * y for pairs x = u + v w, y in Z[w], w^2 = delta w + c: reduced
    into [0, m) when m >= 2, over Z when m = 0."""
    u1, v1 = x
    u2, v2 = y
    vv = v1 * v2
    u, v = u1 * u2 + c * vv, u1 * v2 + u2 * v1 + delta * vv
    return (u % m, v % m) if m else (u, v)


def power(x: tuple[int, int], k: int, delta: int, c: int, m: int) -> tuple[int, int]:
    """x^k mod m by repeated squaring, for k >= 0 and m >= 2."""
    result = (1, 0)
    while k:
        if k & 1:
            result = mul(result, x, delta, c, m)
        x = mul(x, x, delta, c, m)
        k >>= 1
    return result


def order_mod(pi: tuple[int, int, int, int], factors: tuple[tuple[int, int], ...]) -> int:
    """Least k >= 1 with pi^k = 1 mod n, for pi = (u, v, delta, c) standing
    for u + v w with w^2 = delta w + c, given factorize(n). pi is a unit mod
    n iff its norm u^2 + delta u v - c v^2 is prime to n. The local orders at
    each prime power q^e || n recombine by lcm.
    """
    n = math.prod(q**e for q, e in factors)
    if n < 2:
        raise InputError(f"modulus must be >= 2, got {n}")
    u, v, delta, c = pi
    norm = u * u + delta * u * v - c * v * v
    if math.gcd(norm, n) != 1:
        raise InputError(f"{u % n} + {v % n}w mod {n} is not a unit (norm {norm % n})")
    order = 1
    for q, e in factors:
        m = q**e
        order = math.lcm(order, _order_prime_power(u % m, v % m, delta % m, c % m, q, e))
    return order


# Factorizing q - 1 and q + 1 is trial division to sqrt(q), 0.5-0.7 s for a q
# near N_MAX, and a curve scan asks for the same few q at every p and b.
@lru_cache(maxsize=1024)
def _group_primes(q: int) -> frozenset[int]:
    """The primes of |GL2(F_q)| = q(q - 1)^2(q + 1), {2, 3} for q = 2."""
    return frozenset({q}.union(r for part in (q - 1, q + 1) for r, _ in factorize(part)))


# Serves the curve scans of one process, whose Frobenius elements at many
# primes reduce to the same one mod q^e, and the tests' exact-path loops;
# table rows read their orders off pi^f - 1 and never get here.
@lru_cache(maxsize=65536)
def _order_prime_power(u: int, v: int, delta: int, c: int, q: int, e: int) -> int:
    """Order of x = u + v w, w^2 = delta w + c, in (Z[w]/q^eZ[w])*.

    The order divides a multiple N read off x mod q. x is a root of its
    characteristic polynomial, of discriminant disc = v^2 (delta^2 + 4c).
    For odd q, the order of x mod q divides q - 1 when disc is a nonzero
    square mod q (F_q[x] is F_q x F_q), q^2 - 1 when disc is a non-square
    (F_q[x] is the field F_(q^2)), and q(q - 1) when disc = 0 mod q
    (x = lambda + nu, lambda in F_q*, nu^2 = 0, so x^q = lambda). For q = 2
    it divides 6, the exponent of GL2(F_2) = S3, which holds the matrix of
    x. The kernel of reduction mod q has exponent q^(e-1), since
    (1 + q^j y)^q = 1 mod q^(j+1). So N = q^(e-1) times a divisor of
    |GL2(F_q)|, and its primes are among _group_primes(q). For each prime
    r^k || N, the r-part of the order is the least r^i with
    (x^(N/r^k))^(r^i) = 1.
    """
    m = q**e
    if q == 2:
        multiple = 3 * m
    else:
        disc = v * v * (delta * delta + 4 * c) % q
        if disc == 0:
            multiple = m * (q - 1)
        elif pow(disc, (q - 1) // 2, q) == 1:
            multiple = m // q * (q - 1)
        else:
            multiple = m // q * (q * q - 1)
    order = 1
    for r in (r for r in _group_primes(q) if multiple % r == 0):
        r_part = 1
        while multiple % (r_part * r) == 0:
            r_part *= r
        y = power((u, v), multiple // r_part, delta, c, m)
        while y != (1, 0):
            if r_part == 1:
                raise ArithmeticBug(f"order of {u} + {v}w mod {m} does not divide {multiple}")
            y = power(y, r, delta, c, m)
            order *= r
            r_part //= r
    return order
