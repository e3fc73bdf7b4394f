"""2x2 matrices over Z/nZ and element orders in GL2(Z/nZ).

A matrix mod m is a flat tuple (a, b, c, d) of ints in [0, m), standing for
[[a, b], [c, d]]. Only this module knows that layout: order_mod takes an
integral matrix ((a, b), (c, d)) as frobenius.sigma returns it. The order
is found locally at each prime power q^e || n by stripping primes from a
multiple of it that the eigenvalues mod q give, and the local orders combine
by lcm. The primes stripped are those of |GL2(F_q)|, found once per q.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import factorize
from .errors import ArithmeticBug, InputError

IDENTITY = (1, 0, 0, 1)


def mat_mul(A: tuple, B: tuple, m: int) -> tuple:
    """A * B mod m, entries reduced into [0, m)."""
    a, b, c, d = A
    e, f, g, h = B
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def mat_pow(M: tuple, k: int, m: int) -> tuple:
    """M^k mod m by repeated squaring, for m >= 2."""
    if k < 0:
        raise InputError("negative powers not supported")
    result = IDENTITY
    base = M
    while k:
        if k & 1:
            result = mat_mul(result, base, m)
        base = mat_mul(base, base, m)
        k >>= 1
    return result


def order_mod(M: tuple[tuple[int, int], tuple[int, int]],
              factors: tuple[tuple[int, int], ...]) -> int:
    """Least k >= 1 with M^k = I mod n, for an integral matrix
    M = ((a, b), (c, d)) invertible mod n, given factorize(n).

    The local orders at each prime power q^e || n recombine by lcm.
    """
    n = math.prod(q**e for q, e in factors)
    if n < 2:
        raise InputError(f"modulus must be >= 2, got {n}")
    (a, b), (c, d) = M
    det = a * d - b * c
    if math.gcd(det, n) != 1:
        raise InputError(
            f"matrix {(a % n, b % n, c % n, d % n)} mod {n} is not invertible "
            f"(det {det % n})"
        )
    order = 1
    for q, e in factors:
        m = q**e
        order = math.lcm(order, _order_prime_power((a % m, b % m, c % m, d % m), q, e))
    return order


# Factorizing q - 1 and q + 1 is trial division to sqrt(q), 0.5-0.7 s for a q
# near N_MAX, and a curve scan asks for the same few q at every p and b.
@lru_cache(maxsize=1024)
def _group_primes(q: int) -> frozenset[int]:
    """The primes of |GL2(F_q)| = q(q - 1)^2(q + 1), {2, 3} for q = 2."""
    return frozenset({q}.union(r for part in (q - 1, q + 1) for r, _ in factorize(part)))


# Serves the curve scans of one process, whose Frobenius matrices at many
# primes reduce to the same M mod q^e, and the tests' exact-path loops;
# table rows read their orders off sigma^f - I and never get here.
@lru_cache(maxsize=65536)
def _order_prime_power(M: tuple, q: int, e: int) -> int:
    """Order of M, reduced mod q^e, in GL2(Z/q^eZ).

    The order divides a multiple N read off M mod q. For odd q, with trace
    t, determinant d and delta = t^2 - 4d mod q, the order of M mod q divides
    q - 1 when delta is a nonzero square (M is diagonalizable over F_q),
    q^2 - 1 when delta is a non-square (F_q[M] is the field F_(q^2)), and
    q(q - 1) when delta = 0 (M = lambda(I + N') with N' nilpotent, so
    (I + N')^q = I). For q = 2 it divides 6, the exponent of GL2(F_2) = S3.
    The kernel of reduction mod q has exponent q^(e-1), since
    (I + q^j X)^q = I mod q^(j+1). So N = q^(e-1) times a divisor of
    |GL2(F_q)|, and its primes are among _group_primes(q). For each prime
    r^k || N, the r-part of the order is the least r^i with
    (M^(N/r^k))^(r^i) = I.
    """
    m = q**e
    if q == 2:
        multiple = 3 * m
    else:
        a, b, c, d = M
        t = a + d
        delta = (t * t - 4 * (a * d - b * c)) % q
        if delta == 0:
            multiple = m * (q - 1)
        elif pow(delta, (q - 1) // 2, q) == 1:
            multiple = m // q * (q - 1)
        else:
            multiple = m // q * (q * q - 1)
    order = 1
    for r in (r for r in _group_primes(q) if multiple % r == 0):
        r_part = 1
        while multiple % (r_part * r) == 0:
            r_part *= r
        A = mat_pow(M, multiple // r_part, m)
        while A != IDENTITY:
            if r_part == 1:
                raise ArithmeticBug(f"order of {M} mod {m} does not divide {multiple}")
            A = mat_pow(A, r, m)
            order *= r
            r_part //= r
    return order
