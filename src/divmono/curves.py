"""Integral long-Weierstrass curves: standard invariants, point counting
over F_p, trace of Frobenius, and the three named one/two-parameter
families.

Point counting completes the square in y and, in one pass over F_p,
tests the resulting cubic's values against the set of nonzero squares mod
p, O(p) per count; p = 2 enumerates F_2 x F_2.
Reduction uses the given model directly: bad reduction is declared when
p divides the discriminant (no minimal-model computation).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, repeat

from .arith import is_prime
from .errors import InputError


class WeierstrassCurve(namedtuple("WeierstrassCurve", "a1 a2 a3 a4 a6")):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integer
    coefficients and nonzero discriminant. The five coefficients are the
    whole curve: disc is computed from them where it is read, and the
    curve mod p from their residues."""

    __slots__ = ()

    def __new__(cls, a1: int, a2: int, a3: int, a4: int, a6: int):
        if invariants(a1, a2, a3, a4, a6)[1] == 0:
            raise InputError(f"singular curve: discriminant is 0 for {(a1, a2, a3, a4, a6)}")
        return super().__new__(cls, a1, a2, a3, a4, a6)

    @classmethod
    def _make(cls, iterable):  # _replace calls this: rebuild through __new__'s check
        return cls(*iterable)

    @property
    def disc(self) -> int:
        return invariants(*self)[1]

    def has_good_reduction(self, p: int) -> bool:
        """p does not divide disc, read off the coefficients reduced mod p."""
        return invariants(*(a % p for a in self))[1] % p != 0


def _b_invariants(a1: int, a2: int, a3: int, a4: int, a6: int) -> tuple[int, int, int]:
    """(b2, b4, b6): completing the square in y turns the curve into
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6


def invariants(a1: int, a2: int, a3: int, a4: int, a6: int) -> tuple[int, int]:
    """(c4, discriminant) by the standard b-invariant formulas."""
    b2, b4, b6 = _b_invariants(a1, a2, a3, a4, a6)
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, disc


def count_points(curve: WeierstrassCurve, p: int) -> int:
    """#E(F_p) including the point at infinity.

    For odd p, y -> 2y + a1 x + a3 is a bijection of F_p, so each x
    contributes the number of square roots of g(x) = 4x^3 + b2 x^2 + 2 b4 x
    + b6 (see _b_invariants): one where g(x) = 0, two where g(x) is a nonzero
    square, that is one of y^2 for y = 1 .. (p - 1)/2.

    The values g(0), ..., g(p - 1) come from g's forward differences at 0,
    summed three times: g(0) = b6, g(1) - g(0) = 4 + b2 + 2 b4,
    g(2) - 2 g(1) + g(0) = 24 + 2 b2, and the third difference of a cubic
    with leading coefficient 4 is the constant 4 * 3! = 24.
    """
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    residues = [a % p for a in curve]
    if invariants(*residues)[1] % p == 0:
        raise InputError(f"bad reduction at {p}: the discriminant is 0 mod {p}")
    if p == 2:
        a1, a2, a3, a4, a6 = residues
        return 1 + sum((y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x
                        - a4 * x - a6) % 2 == 0 for x in (0, 1) for y in (0, 1))
    b2, b4, b6 = (b % p for b in _b_invariants(*residues))
    squares = {y * y % p for y in range(1, (p + 1) // 2)}
    second = accumulate(repeat(24, p - 3), initial=24 + 2 * b2)
    first = accumulate(second, initial=4 + b2 + 2 * b4)
    values = [g % p for g in accumulate(first, initial=b6)]
    return 1 + values.count(0) + 2 * sum(map(squares.__contains__, values))


def trace_of_frobenius(curve: WeierstrassCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p)."""
    return p + 1 - count_points(curve, p)


def daniels_t(t: int) -> WeierstrassCurve:
    """y^2 + xy = x^3 + t (singular at 2 when t is even)."""
    return WeierstrassCurve(1, 0, 0, 0, t)


def semistable_s(s: int) -> WeierstrassCurve:
    """y^2 + y = x^3 + x^2 + s; discriminant -432 s^2 - 280 s - 43, always odd."""
    return WeierstrassCurve(0, 1, 1, 0, s)


def uv(u: int, v: int) -> WeierstrassCurve:
    """y^2 + u y = x^3 + v x^2; semistable when u odd, v even, gcd(3u, v) = 1."""
    return WeierstrassCurve(0, v, u, 0, 0)


# family name -> (constructor, parameter names); the CLI's --family choices
FAMILIES = {
    "daniels": (daniels_t, ("t",)),
    "semistable": (semistable_s, ("s",)),
    "uv": (uv, ("u", "v")),
}
