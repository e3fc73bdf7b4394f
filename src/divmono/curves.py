"""Integral long-Weierstrass curves: standard invariants, brute-force
point counting over F_p, trace of Frobenius, and the three named
one/two-parameter families.

Point counting is naive enumeration of F_p x F_p, intended for small p.
Reduction uses the given model directly: bad reduction is declared when
p divides the discriminant (no minimal-model computation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .errors import InputError


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integer
    coefficients and nonzero discriminant."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.disc == 0:
            raise InputError(f"singular curve: discriminant is 0 for {self.coeffs()}")

    @property
    def disc(self) -> int:
        return invariants(*self.coeffs())[1]

    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def has_good_reduction(self, p: int) -> bool:
        return self.disc % p != 0


def invariants(a1: int, a2: int, a3: int, a4: int, a6: int) -> tuple[int, int]:
    """(c4, discriminant) by the standard b-invariant formulas."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, disc


def count_points(curve: WeierstrassCurve, p: int) -> int:
    """#E(F_p) including the point at infinity, by full enumeration."""
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if not curve.has_good_reduction(p):
        raise InputError(f"bad reduction at {p}: discriminant {curve.disc} is 0 mod {p}")
    a1, a2, a3, a4, a6 = (a % p for a in curve.coeffs())
    count = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return count


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
