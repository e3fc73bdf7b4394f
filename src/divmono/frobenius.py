"""Frobenius reduction data (p, a_p, b_p) and the Frobenius element
pi = u + v w of the endomorphism order Z[w], whose multiplication represents
the Frobenius class in every prime-to-p torsion field.

The admissible (a_p, b_p) pairs are enumerated arithmetically: a_p runs
over the Hasse range, and b_p over the indices whose square divides
a_p^2 - 4p with quotient a quadratic discriminant (0 or 1 mod 4). Every
such pair is realized by some curve over F_p, so table rows are keyed by
(a_p, b_p) rather than by specific curves.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import is_prime
from .errors import ArithmeticBug, InputError


class FrobeniusDatum(namedtuple("FrobeniusDatum", "p a_p b_p")):
    """Reduction datum (p, a_p, b_p) with derived discriminants.

    delta_pi = a_p^2 - 4p is the discriminant of x^2 - a_p x + p;
    delta_end = delta_pi / b_p^2 is the discriminant of the endomorphism
    order; delta_parity is 0 or 1 according to delta_end mod 4.
    Construction rejects an inadmissible datum with InputError.
    """

    __slots__ = ()

    def __new__(cls, p: int, a_p: int, b_p: int):
        self = super().__new__(cls, p, a_p, b_p)
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if a_p * a_p > 4 * p:
            raise InputError(f"Hasse bound violated: a_p^2 = {a_p * a_p} > 4p = {4 * p}")
        if b_p < 1:
            raise InputError(f"b_p must be positive, got {b_p}")
        if self.delta_pi % (b_p * b_p) != 0:
            raise InputError(f"b_p^2 = {b_p * b_p} does not divide {self.delta_pi}")
        if self.delta_parity not in (0, 1):
            raise InputError(
                f"delta_end = {self.delta_end} is not 0 or 1 mod 4; "
                f"b_p = {b_p} is not an admissible index for (p, a_p) = ({p}, {a_p})"
            )
        return self

    @classmethod
    def _make(cls, iterable):  # _replace calls this: validate as __new__ does
        return cls(*iterable)

    @property
    def delta_pi(self) -> int:
        return self.a_p * self.a_p - 4 * self.p

    @property
    def delta_end(self) -> int:
        return self.delta_pi // (self.b_p * self.b_p)

    @property
    def delta_parity(self) -> int:
        return self.delta_end % 4


def enumerate_b(p: int, a_p: int) -> list[int]:
    """All admissible indices b >= 1 for the trace a_p, ascending: b^2 must
    divide a_p^2 - 4p and the quotient must be 0 or 1 mod 4.

    The b are read off the square divisors of D = 4p - a_p^2 >= 1 (no prime
    is a square), in O(D^(1/3)) steps. Trial division removes every prime
    d with d^3 <= c, the cofactor left so far. It stops with every prime
    factor of c at least d > c^(1/3), so c has at most two prime factors,
    counted with multiplicity; c then has a square divisor other than 1 only
    when c = q^2 for a prime q, that is when isqrt(c)^2 = c > 1.
    """
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if a_p * a_p > 4 * p:
        raise InputError(f"({p}, {a_p}) is not an admissible reduction datum")
    delta_pi = a_p * a_p - 4 * p
    c = -delta_pi
    roots = [1]  # every b with b^2 | D
    d = 2
    while d * d * d <= c:
        if c % d == 0:
            e = 0
            while c % d == 0:
                c //= d
                e += 1
            roots += [k * d**i for k in roots for i in range(1, e // 2 + 1)]
        d += 1 if d == 2 else 2
    r = math.isqrt(c)
    if r > 1 and r * r == c:
        roots += [k * r for k in roots]
    return sorted(b for b in roots if (delta_pi // (b * b)) % 4 in (0, 1))


def enumerate_data(p: int) -> list[FrobeniusDatum]:
    """All admissible data for p, in table order: grouped by |a_p|, then
    by b_p ascending, positive trace before negative. enumerate_b depends
    on a_p only through a_p^2, so each |a_p| is walked once.
    """
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    data = []
    for a in range(math.isqrt(4 * p) + 1):
        for b in enumerate_b(p, a):
            data.append(FrobeniusDatum(p, a, b))
            if a:
                data.append(FrobeniusDatum(p, -a, b))
    return data


def pi(datum: FrobeniusDatum) -> tuple[int, int, int, int]:
    """The Frobenius element (a_p + b_p sqrt(delta_end))/2 as (u, v, delta, c):
    pi = u + v w, where w = (delta + sqrt(delta_end))/2, delta = delta_parity,
    w^2 = delta w + c, c = (delta_end - delta)/4, u = (a_p - b_p delta)/2 and
    v = b_p. pi has trace 2u + v delta = a_p and norm u^2 + delta u v - c v^2 = p.
    """
    a, b, delta = datum.a_p, datum.b_p, datum.delta_parity
    twice_u, four_c = a - b * delta, datum.delta_end - delta
    if twice_u % 2 or four_c % 4:
        raise ArithmeticBug(f"non-integral Frobenius element for {datum}")
    u, v, c = twice_u // 2, b, four_c // 4
    if 2 * u + v * delta != a or u * u + delta * u * v - c * v * v != datum.p:
        raise ArithmeticBug(f"Frobenius element has wrong char poly for {datum}")
    return u, v, delta, c


def sigma(datum: FrobeniusDatum) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Frobenius matrix ((u + v delta, v), (v c, u)), (u, v, delta, c) =
    pi(datum), for output. Multiplication by pi sends 1 to u + v w and w to
    v c + (u + v delta) w, so its matrix in the basis (1, w) is
    [pi] = [[u, v c], [v, u + v delta]]; sigma is J [pi] J, J = [[0, 1], [1, 0]].
    """
    u, v, delta, c = pi(datum)
    return ((u + v * delta, v), (v * c, u))
