import copy
import math
import pickle
import random

import pytest

from divmono import curves
from divmono.arith import primes_up_to
from divmono.curves import (
    FAMILIES,
    WeierstrassCurve,
    count_points,
    daniels_t,
    invariants,
    semistable_s,
    trace_of_frobenius,
    uv,
)
from divmono.errors import InputError
from divmono.obstruction import essential_divisor_scan


def count_points_naive(curve, p):
    """#E(F_p) by enumerating F_p x F_p; test oracle for count_points."""
    a1, a2, a3, a4, a6 = (a % p for a in curve.coeffs())
    count = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return count


def count_points_by_root_table(curve, p):
    """#E(F_p) by the two loops that count_points ran before its one-pass
    count: a table of square-root counts mod p, then one lookup per x of
    4 f(x) + (a1 x + a3)^2 with f(x) = x^3 + a2 x^2 + a4 x + a6; test oracle
    for count_points at odd p."""
    a1, a2, a3, a4, a6 = (a % p for a in curve.coeffs())
    roots = bytearray(p)  # roots[r] = number of y in F_p with y^2 = r
    for y in range(p):
        roots[y * y % p] += 1
    count = 1
    for x in range(p):
        h = a1 * x + a3
        count += roots[(4 * (((x + a2) * x + a4) * x + a6) + h * h) % p]
    return count


def c4(curve):
    return invariants(*curve.coeffs())[0]


def is_semistable_certificate(curve):
    """True iff gcd(c4, disc) = 1, which certifies semistability.

    This is a sufficient condition only: False means "not certified by
    this model", not "not semistable".
    """
    return math.gcd(*invariants(*curve.coeffs())) == 1


class TestInvariants:
    def test_short_weierstrass(self):
        assert invariants(0, 0, 0, 0, 1) == (0, -432)

    @pytest.mark.parametrize("s", range(-50, 51))
    def test_semistable_family_formula(self, s):
        curve = semistable_s(s)
        assert c4(curve) == 16
        assert curve.disc == -432 * s * s - 280 * s - 43

    @pytest.mark.parametrize("u,v", [(1, 2), (3, -4), (-5, 6), (7, 0)])
    def test_uv_family_formula(self, u, v):
        curve = uv(u, v)
        assert c4(curve) == 16 * v * v
        assert curve.disc == -u * u * (16 * v**3 + 27 * u * u)

    def test_rejects_singular(self):
        with pytest.raises(InputError):
            WeierstrassCurve(0, 0, 0, 0, 0)

    def test_value_semantics(self):
        # the benchmark's tracer counts distinct (curve, p) arguments
        curve = WeierstrassCurve(1, 0, 0, 0, 3)
        assert curve == daniels_t(3) and hash(curve) == hash(daniels_t(3))
        assert curve != daniels_t(5)
        assert len({(curve, 5), (daniels_t(3), 5)}) == 1
        with pytest.raises(AttributeError):
            curve.a6 = 5
        with pytest.raises(AttributeError):
            curve.disc = 1

    def test_replace_rebuilds_the_curve(self):
        # namedtuple's _replace would keep the old disc and skip __new__
        with pytest.raises(InputError, match="singular curve"):
            WeierstrassCurve(1, 0, 0, 0, 3)._replace(a6=0)
        curve = WeierstrassCurve(1, 0, 0, 0, 3)._replace(a6=5)
        assert curve == daniels_t(5) and curve.disc == daniels_t(5).disc
        assert WeierstrassCurve._make(daniels_t(3)) == daniels_t(3)
        assert copy.deepcopy(curve) == curve and pickle.loads(pickle.dumps(curve)) == curve

    def test_discriminant_is_computed_once_per_curve(self, monkeypatch):
        # a scan reads disc twice at every good prime
        calls = []

        def counted(*coeffs):
            calls.append(coeffs)
            return invariants(*coeffs)
        monkeypatch.setattr(curves, "invariants", counted)
        curve = WeierstrassCurve(1, 0, 0, 10**1400 + 7, 3)
        reports = essential_divisor_scan(curve, 11, 2000)
        assert len(reports) == len(primes_up_to(2000))
        assert calls == [curve.coeffs()]

    def test_b8_relation(self):
        rng = random.Random(1)
        for _ in range(300):
            a1, a2, a3, a4, a6 = (rng.randint(-20, 20) for _ in range(5))
            b2 = a1 * a1 + 4 * a2
            b4 = 2 * a4 + a1 * a3
            b6 = a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            assert 4 * b8 == b2 * b6 - b4 * b4


class TestPointCounting:
    def test_daniels_at_two(self):
        assert count_points(daniels_t(1), 2) == 4

    def test_semistable_at_two(self):
        assert count_points(semistable_s(1), 2) == 1

    def test_rejects_bad_reduction(self):
        with pytest.raises(InputError):
            count_points(WeierstrassCurve(0, 0, 0, 0, 1), 3)  # disc = -432

    def test_matches_enumeration(self):
        # long Weierstrass models, a1 and a3 included, at every good p < 200
        rng = random.Random(4)
        checked = 0
        while checked < 12:
            try:
                curve = WeierstrassCurve(*(rng.randint(-30, 30) for _ in range(5)))
            except InputError:
                continue
            for p in primes_up_to(199):
                if curve.has_good_reduction(p):
                    assert count_points(curve, p) == count_points_naive(curve, p), (curve, p)
            checked += 1

    @pytest.mark.parametrize("coeffs", [
        (1, -1, 1, -3, 5), (1, 0, 1, 4, -6), (-1, 1, -1, 0, 2), (3, -2, 5, 7, -11),
        (1, 0, 0, 10**1400 + 7, 3),  # reduced mod p before the cubic is evaluated
    ])
    def test_matches_root_table_to_3000(self, coeffs):
        curve = WeierstrassCurve(*coeffs)
        good = [p for p in primes_up_to(3000) if curve.has_good_reduction(p)]
        assert coeffs[3] > 10**1400 or 3 in good
        for p in good:
            oracle = count_points_naive if p == 2 else count_points_by_root_table
            assert count_points(curve, p) == oracle(curve, p), (coeffs, p)

    def test_quadratic_character_oracle(self):
        # for y^2 = x^3 + Ax + B and odd p, #E = p + 1 + sum chi(x^3+Ax+B)
        rng = random.Random(2)
        checked = 0
        while checked < 60:
            A, B = rng.randint(-20, 20), rng.randint(-20, 20)
            p = rng.choice([q for q in primes_up_to(50) if q > 2])
            if (-16 * (4 * A**3 + 27 * B * B)) % p == 0:
                continue
            curve = WeierstrassCurve(0, 0, 0, A, B)
            # chi(a) = a^((p-1)/2) mod p mapped from {1, p-1} to {1, -1}
            chi_sum = sum(
                0 if (x**3 + A * x + B) % p == 0
                else (1 if pow((x**3 + A * x + B) % p, (p - 1) // 2, p) == 1 else -1)
                for x in range(p)
            )
            assert count_points(curve, p) == p + 1 + chi_sum
            checked += 1

    def test_hasse_bound(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            coeffs = [rng.randint(-20, 20) for _ in range(5)]
            p = rng.choice(primes_up_to(50))
            try:
                curve = WeierstrassCurve(*coeffs)
            except InputError:
                continue
            if not curve.has_good_reduction(p):
                continue
            a_p = trace_of_frobenius(curve, p)
            assert a_p * a_p <= 4 * p
            checked += 1


class TestFamilyTraces:
    @pytest.mark.parametrize("t", range(-99, 100, 2))
    def test_daniels_odd_t(self, t):
        assert trace_of_frobenius(daniels_t(t), 2) == -1

    def test_daniels_even_t_is_singular_at_two(self):
        assert not daniels_t(2).has_good_reduction(2)

    @pytest.mark.parametrize("s", range(-99, 100))
    def test_semistable_trace(self, s):
        # the reduction mod 2 only depends on s mod 2: trace 2 for odd s,
        # -2 for even s (both rows carry the same obstruction list)
        assert trace_of_frobenius(semistable_s(s), 2) == (2 if s % 2 else -2)

    def test_uv_trace_zero(self):
        for u in range(-9, 10, 2):
            for v in range(-8, 10, 2):
                try:
                    curve = uv(u, v)
                except InputError:
                    continue
                assert trace_of_frobenius(curve, 2) == 0


class TestSemistability:
    @pytest.mark.parametrize("s", range(-50, 51))
    def test_semistable_family_certified(self, s):
        assert is_semistable_certificate(semistable_s(s))

    def test_uv_certified(self):
        for u in range(-9, 10, 2):
            for v in range(-8, 10, 2):
                if math.gcd(3 * u, v) != 1:
                    continue
                try:
                    curve = uv(u, v)
                except InputError:
                    continue
                assert is_semistable_certificate(curve)

    def test_zero_c4_not_certified(self):
        assert not is_semistable_certificate(WeierstrassCurve(0, 0, 0, 0, 4))


class TestFamilyConstructor:
    def test_named_families(self):
        assert FAMILIES["daniels"][0](1).coeffs() == (1, 0, 0, 0, 1)
        assert FAMILIES["semistable"][0](0).disc == -43
        assert FAMILIES["uv"][0](1, 2).coeffs() == (0, 2, 1, 0, 0)

    def test_singular_parameters_rejected(self):
        with pytest.raises(InputError):
            FAMILIES["uv"][0](0, 1)  # disc = 0 when u = 0
