"""2x2 matrices over Z/nZ and element orders in GL2(Z/nZ).

A matrix mod m is a flat tuple (a, b, c, d) of ints in [0, m), standing for
[[a, b], [c, d]]. Only this module knows that layout: order_mod takes an
integral matrix ((a, b), (c, d)) as frobenius.sigma returns it. The order
is found locally at each prime power q^e || n by the usual divisor-stripping
trick starting from |GL2(Z/q^eZ)|, and the local orders combine by lcm.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

from .arith import factorize, gl2_order
from .errors import InputError

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


def order_mod(M: tuple[tuple[int, int], tuple[int, int]], n: int) -> int:
    """Least k >= 1 with M^k = I mod n, for an integral matrix
    M = ((a, b), (c, d)) that is invertible mod n.

    Computed locally at each prime power q^e || n and recombined by lcm.
    """
    if n < 2:
        raise InputError(f"modulus must be >= 2, got {n}")
    (a, b), (c, d) = M
    det = a * d - b * c
    if math.gcd(det, n) != 1:
        raise InputError(
            f"matrix {(a % n, b % n, c % n, d % n)} mod {n} is not invertible "
            f"(det {det % n})"
        )
    orders = []
    for q, e in factorize(n):
        m = q**e
        orders.append(_order_prime_power((a % m, b % m, c % m, d % m), q, e))
    return reduce(math.lcm, orders, 1)


@lru_cache(maxsize=65536)
def _order_prime_power(M: tuple, q: int, e: int) -> int:
    """Order of M, reduced mod q^e, in GL2(Z/q^eZ) by stripping primes
    from the group order."""
    m = q**e
    # group order is q^(4e-3) (q-1)^2 (q+1), so its prime factors are q
    # together with those of q^2-1
    prime_factors = {q}
    prime_factors.update(p for p, _ in factorize(q * q - 1))
    order = gl2_order(m)
    for p in prime_factors:
        while order % p == 0 and mat_pow(M, order // p, m) == IDENTITY:
            order //= p
    return order
