"""Exact integer utilities: factorization, primality, and the two
counting formulas (order of GL2(Z/nZ) and irreducible polynomials over F_p).

Everything here runs on Python ints, and trial division is plenty at the
scale of the scans: moduli < 1000 and group orders around 10^12 in the
published tables, and the gcds g_f that obstruction.scan factorizes for its
candidates (under a second for the table of any p < 400 at
obstruction.TABLE_N_MAX). Nothing is cached: the verdicts decide most
comparisons by a bound without calling irred_count, and a cache on it,
factorize or gl2_order gained nothing.
"""

from __future__ import annotations

import math

from .errors import ArithmeticBug, InputError

# (a, psi): the first 13 primes a, each with the least strong pseudoprime
# to it and all the bases before it (Jaeschke, Math. Comp. 61, 1993; Jiang
# and Deng, Math. Comp. 83, 2014; Sorenson and Webster, Math. Comp. 86,
# 2017). Miller-Rabin with the bases up to a is exact below its psi.
_MR_BASES = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751),
    (11, 2152302898747), (13, 3474749660383), (17, 341550071728321),
    (19, 341550071728321), (23, 3825123056546413051),
    (29, 3825123056546413051), (31, 3825123056546413051),
    (37, 318665857834031151167461), (41, 3317044064679887385961981),
)
_BASES = frozenset(a for a, _ in _MR_BASES)
_BASE_PRODUCT = math.prod(_BASES)


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
    """Deterministic Miller-Rabin over as many of the first 13 prime bases
    as _MR_BASES says m needs. A composite m is always found out; an
    m >= psi_13 that passes all 13 bases raises InputError, since no base
    set here proves it prime.

    One gcd with the product of the bases settles every m < 43^2 = 1849.
    Proof. If gcd(m, 2 * 3 * ... * 41) > 1, some base a divides m, and m is
    prime only if m = a. Otherwise no prime <= 41 divides m. A composite m
    has a prime factor <= sqrt(m), which is < 43 when m < 1849, so is <= 41;
    hence such an m >= 2 is prime.
    """
    if m < 2:
        return False
    if math.gcd(m, _BASE_PRODUCT) != 1:
        return m in _BASES
    if m < 1849:
        return True
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in _MR_BASES:
        x = pow(a, d, m)
        if x != 1 and x != m - 1:
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        if m < psi:
            return True
    raise InputError(f"primality is decided only below {psi}, got {m}")


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


def gl2_order(factors: tuple[tuple[int, int], ...]) -> int:
    """|GL2(Z/nZ)| = prod over p^e || n of p^(4(e-1)) (p^2-1)(p^2-p), given factorize(n)."""
    return math.prod(p ** (4 * (e - 1)) * (p * p - 1) * (p * p - p) for p, e in factors)


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


def irred_count_capped(m: int, p: int, cap: int) -> int:
    """min(irred_count(m, p), cap), returning cap without building the
    supply when bit lengths alone prove I_m(p) >= cap.

    Proof. Let x = cap - 1 and L = (2 * m * x).bit_length(). Since
    p >= 2^(bitlen(p) - 1), m * (bitlen(p) - 1) > L gives p^m >= 2^(L + 1)
    > 2mx. The Moebius sum m * I_m(p) = sum over d | m of mu(m/d) p^d keeps
    p^m and loses at most the terms with d <= m/2, which sum to
    p(p^k - 1)/(p - 1) < 2p^k for k = floor(m/2); so m * I_m(p) > p^m - 2p^k
    (Lidl and Niederreiter, Finite Fields, ch. 3). When p^(m-k) >= 4,
    2p^k <= p^m / 2, hence m * I_m(p) > p^m / 2 > mx. The rest, p^(m-k) < 4,
    is m <= 2 with p = 2 or 3, where bitlen(p) - 1 = 1: the premise m > L
    then gives 2mx < 2^L <= 2^(m-1) <= 2, so x <= 0 < I_m(p). (A cap <= 0 is
    below I_m(p) >= 1 whatever the premise says.) Either way I_m(p) > x,
    that is I_m(p) >= cap.
    """
    if m * (p.bit_length() - 1) <= (2 * m * (cap - 1)).bit_length():
        return min(irred_count(m, p), cap)
    if m < 1 or not is_prime(p):
        irred_count(m, p)  # raises its InputError before any supply is built
    return cap

