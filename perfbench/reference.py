"""Reference arithmetic for the benchmark's checks.

Written apart from divmono and sharing no code with it, so that a fault in
the package cannot hide itself by agreeing with its own check. Everything
runs on plain Python integers and 4-tuples (a, b, c, d) for 2x2 matrices.
"""

from __future__ import annotations

import math

# I_d(p) is computed exactly by the Möbius sum while p^d has at most this
# many bits; above it the supply is only bounded, which decides every
# comparison the checks make (|GL2(Z/nZ)| < n^4 is far smaller).
EXACT_BITS = 20000

# CPython's default limit on int-to-str conversion: larger ints raise
# ValueError when printed.
STR_DIGITS_LIMIT = 4300
_UNPRINTABLE = 10**STR_DIGITS_LIMIT


def factorize(m: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of m >= 1 by trial division, primes ascending."""
    out = []
    q = 2
    while q * q <= m:
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        if e:
            out.append((q, e))
        q += 1
    if m > 1:
        out.append((m, 1))
    return out


def is_prime(m: int) -> bool:
    return m >= 2 and factorize(m) == [(m, 1)]


def primes_up_to(bound: int) -> list[int]:
    return [m for m in range(2, bound + 1) if is_prime(m)]


def mobius(m: int) -> int:
    fact = factorize(m)
    if any(e > 1 for _, e in fact):
        return 0
    return (-1) ** len(fact)


def gl2_order(n: int) -> int:
    """|GL2(Z/nZ)| = prod over q^e || n of q^(4e-3) (q-1)^2 (q+1)."""
    out = 1
    for q, e in factorize(n):
        out *= q ** (4 * e - 3) * (q - 1) ** 2 * (q + 1)
    return out


def gl2_order_primes(n: int) -> set[int]:
    """The primes dividing |GL2(Z/nZ)|: those of q, q - 1 and q + 1 for q | n."""
    out = set()
    for q, _ in factorize(n):
        out.add(q)
        for m in (q - 1, q + 1):
            out.update(r for r, _ in factorize(m))
    return out


def admissible_b(p: int, a: int) -> list[int]:
    """Indices b >= 1 with b^2 | a^2 - 4p and a quotient that is 0 or 1 mod 4."""
    disc = a * a - 4 * p
    return [
        b
        for b in range(1, math.isqrt(-disc) + 1)
        if disc % (b * b) == 0 and (disc // (b * b)) % 4 in (0, 1)
    ]


def admissible_data(p: int) -> list[tuple[int, int]]:
    """All (a, b) for p in the published row order: by |a|, then b, a >= 0 first."""
    bound = math.isqrt(4 * p)
    pairs = [(a, b) for a in range(-bound, bound + 1) for b in admissible_b(p, a)]
    return sorted(pairs, key=lambda ab: (abs(ab[0]), ab[1], ab[0] < 0))


def frobenius_matrix(p: int, a: int, b: int) -> tuple[int, int, int, int]:
    """The integral Frobenius matrix of Duke and Tóth (Exp. Math., 2002):

        [ (a + b*delta)/2           b               ]
        [ b*(D - delta)/4           (a - b*delta)/2 ]

    with D = (a^2 - 4p)/b^2 and delta = D mod 4. Trace a, determinant p.
    """
    disc = (a * a - 4 * p) // (b * b)
    delta = disc % 4
    return ((a + b * delta) // 2, b, b * (disc - delta) // 4, (a - b * delta) // 2)


def mat_mul(x, y, n):
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


def mat_pow(m, k, n):
    result = (1 % n, 0, 0, 1 % n)
    base = tuple(v % n for v in m)
    while k:
        if k & 1:
            result = mat_mul(result, base, n)
        base = mat_mul(base, base, n)
        k >>= 1
    return result


def _is_identity(m, n) -> bool:
    return m == (1 % n, 0, 0, 1 % n)


def is_order(m, n: int, d: int) -> bool:
    """True iff d is the order of m mod n: m^d = I and m^(d/r) != I for
    every prime r | d."""
    if d < 1 or not _is_identity(mat_pow(m, d, n), n):
        return False
    return all(not _is_identity(mat_pow(m, d // r, n), n) for r, _ in factorize(d))


def frobenius_order(p: int, a: int, b: int, n: int) -> int:
    """Order of the Frobenius matrix mod n (gcd(n, p) = 1), found by
    dividing primes out of |GL2(Z/nZ)| while the power stays the identity."""
    m = frobenius_matrix(p, a, b)
    d = gl2_order(n)
    for r in gl2_order_primes(n):
        while d % r == 0 and _is_identity(mat_pow(m, d // r, n), n):
            d //= r
    return d


def _exact(d: int, p: int) -> bool:
    return d * math.log2(p) <= EXACT_BITS


def irred_count(d: int, p: int) -> int:
    """I_d(p), the number of monic irreducible polynomials of degree d over
    F_p, by the Möbius sum (1/d) * sum over e | d of mu(d/e) p^e."""
    total = sum(mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0)
    return total // d


def supply_at_least(d: int, p: int, target: int) -> bool:
    """d * I_d(p) >= target.

    Exact while p^d is small. Otherwise d * I_d(p) >= p^d - 2 p^(d/2)
    (Lidl and Niederreiter, Finite Fields, ch. 3), compared in logarithms.
    """
    if _exact(d, p):
        return d * irred_count(d, p) >= target
    log_lower = d * math.log(p) + math.log1p(-2.0 * p ** (-d / 2))
    if log_lower > math.log(target) + 1:
        return True
    return d * irred_count(d, p) >= target


def classify(p: int, d: int, group_order: int) -> str:
    """Classification under a full image of degree group_order: obstruction
    if d * I_d(p) falls short even of half the degree, red if only of the
    full degree, else no_obstruction."""
    if not supply_at_least(d, p, -(-group_order // 2)):
        return "obstruction"
    if not supply_at_least(d, p, group_order):
        return "red"
    return "no_obstruction"


def supply_too_long_to_print(d: int, p: int) -> bool:
    """True iff I_d(p) has more decimal digits than CPython prints by default."""
    if _exact(d, p):
        return irred_count(d, p) >= _UNPRINTABLE
    return True


def discriminant(coeffs) -> int:
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def trace_of_frobenius(coeffs, p: int) -> int:
    """a_p = p + 1 - #E(F_p). For odd p, completing the square gives
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so a_p is minus the
    sum of the quadratic character over x. For p = 2, brute force."""
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        affine = sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
        )
        return 2 + 1 - (affine + 1)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        chi = pow((4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % p, half, p)
        total += 1 if chi == 1 else (-1 if chi else 0)
    return -total


def corollary_primes(index: int) -> tuple[int, int]:
    """Least prime p > 3 with |GL2(Z/(p+1)Z)| > 4 * index * I_2(p), and least
    prime p > 3 with 3 (p+1)^4 > 16 * index * (p^2 - p)."""
    exact = bound = None
    p = 3
    while exact is None or bound is None:
        p += 1
        if not is_prime(p):
            continue
        if exact is None and gl2_order(p + 1) > 4 * index * (p * p - p) // 2:
            exact = p
        if bound is None and 3 * (p + 1) ** 4 > 16 * index * (p * p - p):
            bound = p
    return exact, bound
