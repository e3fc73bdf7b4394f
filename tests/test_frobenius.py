import copy
import math
import pickle
import random
import time

import pytest

from divmono.arith import factorize, is_prime, primes_up_to
from divmono.errors import InputError
from divmono.frobenius import (
    FrobeniusDatum,
    enumerate_b,
    enumerate_data,
    pi,
    sigma,
)
from divmono.gl2 import order_mod


class TestAdmissibleTraces:
    """enumerate_data's walk over the traces a with a^2 <= 4p."""

    def test_rejects_composite(self):
        with pytest.raises(InputError, match="p = 10 is not prime"):
            enumerate_data(10)


def enumerate_b_by_loop(p, a_p):
    """Every b up to sqrt(4p - a_p^2) tried in turn: enumerate_b before it
    read b off the square divisors; test oracle."""
    delta_pi = a_p * a_p - 4 * p
    out = []
    b = 1
    while b * b <= -delta_pi:
        if delta_pi % (b * b) == 0 and (delta_pi // (b * b)) % 4 in (0, 1):
            out.append(b)
        b += 1
    return out


class TestEnumerateB:
    def test_squarefree_discriminant(self):
        # a = 1 at p = 2 gives discriminant -7, so the index is forced to 1
        assert enumerate_b(2, 1) == [1]

    def test_supersingular_three(self):
        assert enumerate_b(3, 0) == [1, 2]

    def test_ordinary_with_square_factor(self):
        assert enumerate_b(7, 1) == [1, 3]

    def test_rejects_inadmissible_trace(self):
        with pytest.raises(InputError):
            enumerate_b(2, 3)

    def test_rejects_composite_in_the_words_of_the_datum(self):
        with pytest.raises(InputError, match="^p = 9 is not prime$"):
            enumerate_b(9, 0)

    @pytest.mark.parametrize("p", [p for p in primes_up_to(97) if p > 3])
    def test_supersingular_dichotomy(self, p):
        # maximal order is Z[sqrt(-p)] alone when p = 1 mod 4, else both
        # Z[sqrt(-p)] and Z[(1+sqrt(-p))/2] occur
        expected = [1] if p % 4 == 1 else [1, 2]
        assert enumerate_b(p, 0) == expected

    @pytest.mark.parametrize("p", primes_up_to(600))
    def test_matches_the_loop_on_every_trace(self, p):
        bound = math.isqrt(4 * p)
        for a in range(-bound, bound + 1):
            assert enumerate_b(p, a) == enumerate_b_by_loop(p, a), a

    def test_matches_the_loop_on_a_large_square_prime_factor(self):
        # D = 4p - a^2 = k * q^2 with k < q leaves the cofactor q^2 after
        # trial division, the isqrt branch; b = q is then admissible, since
        # -k = a^2 mod 4
        rng = random.Random(3)
        primes = primes_up_to(2000)[100:]
        cases = 0
        while cases < 20:
            q, k, a = rng.choice(primes), rng.randint(1, 40), rng.randint(-2000, 2000)
            if (a * a + k * q * q) % 4 == 0 and is_prime(p := (a * a + k * q * q) // 4):
                got = enumerate_b(p, a)
                assert got == enumerate_b_by_loop(p, a) and q in got, (p, a)
                cases += 1

    def test_large_prime(self):
        # b^2 | 4p only for b = 1, 2 with the 14-digit prime p = 1 mod 4,
        # and -4p / 4 = -p = 3 mod 4 rules out b = 2; trial division to
        # sqrt(p) instead of p^(1/3) would take seconds
        start = time.perf_counter()
        assert enumerate_b(99999999999973, 0) == [1]
        assert time.perf_counter() - start < 0.5
        p = 9999999967
        for a in (-199999, -3, 0, 1, 2, 77777, 199998):
            assert enumerate_b(p, a) == enumerate_b_by_loop(p, a), a


class TestSigma:
    @pytest.mark.parametrize(
        "p,a,b,expected",
        [
            (2, 1, 1, ((1, 1), (-2, 0))),
            (2, 0, 1, ((0, 1), (-2, 0))),
            (7, 0, 2, ((1, 2), (-4, -1))),
            (3, -3, 1, ((-1, 1), (-1, -2))),
            (11, -4, 2, ((-1, 2), (-4, -3))),
        ],
    )
    def test_table_matrices(self, p, a, b, expected):
        assert sigma(FrobeniusDatum(p, a, b)) == expected

    @pytest.mark.parametrize("p", primes_up_to(200))
    def test_integral_with_right_char_poly(self, p):
        # sigma() itself asserts integrality, trace a_p, and determinant p
        for datum in enumerate_data(p):
            (s11, s12), (s21, s22) = sigma(datum)
            assert s11 + s22 == datum.a_p
            assert s11 * s22 - s12 * s21 == p

    @pytest.mark.parametrize("p", primes_up_to(200))
    def test_read_off_pi_with_trace_and_norm(self, p):
        for datum in enumerate_data(p):
            u, v, delta, c = pi(datum)
            assert delta == datum.delta_parity and v == datum.b_p
            assert delta * delta + 4 * c == datum.delta_end
            assert 2 * u + v * delta == datum.a_p
            assert u * u + delta * u * v - c * v * v == p
            assert sigma(datum) == ((u + v * delta, v), (v * c, u))

    @pytest.mark.parametrize("p", [p for p in primes_up_to(97) if p > 3])
    def test_supersingular_forms(self, p):
        assert sigma(FrobeniusDatum(p, 0, 1)) == ((0, 1), (-p, 0))
        if p % 4 == 3:
            assert sigma(FrobeniusDatum(p, 0, 2)) == (
                (1, 2),
                ((-p - 1) // 2, -1),
            )


class TestDatumValidation:
    def test_hasse_violation(self):
        with pytest.raises(InputError):
            FrobeniusDatum(2, 3, 1)

    def test_bad_index(self):
        with pytest.raises(InputError):
            FrobeniusDatum(2, 0, 2)

    def test_value_semantics(self):
        d = FrobeniusDatum(7, 0, 2)
        assert d == FrobeniusDatum(7, 0, 2) and hash(d) == hash(FrobeniusDatum(7, 0, 2))
        assert d != FrobeniusDatum(7, 0, 1)
        with pytest.raises(AttributeError):
            d.b_p = 1

    def test_replace_and_make_validate(self):
        # namedtuple's _make, and _replace through it, would skip __new__
        with pytest.raises(InputError, match="does not divide -7"):
            FrobeniusDatum(2, 1, 1)._replace(b_p=5)
        with pytest.raises(InputError, match="p = 4 is not prime"):
            FrobeniusDatum._make((4, 0, 1))
        assert FrobeniusDatum(7, 0, 2)._replace(b_p=1) == FrobeniusDatum(7, 0, 1)
        d = FrobeniusDatum(7, 0, 2)
        assert copy.copy(d) == d and pickle.loads(pickle.dumps(d)) == d

    def test_derived_fields(self):
        d = FrobeniusDatum(2, 1, 1)
        assert (d.delta_pi, d.delta_end, d.delta_parity) == (-7, -7, 1)
        d = FrobeniusDatum(7, 0, 2)
        assert (d.delta_pi, d.delta_end, d.delta_parity) == (-28, -7, 1)

    def test_char_poly_invariant_mod_n(self):
        for n in range(2, 30):
            for p in (7, 11):
                if n % p == 0:
                    continue
                for d in enumerate_data(p):
                    (s11, s12), (s21, s22) = sigma(d)
                    assert (s11 + s22) % n == d.a_p % n
                    assert (s11 * s22 - s12 * s21) % n == p % n

    def test_sigma_mod_requires_coprime(self):
        # pi has norm p, so it is not a unit mod n when p | n
        with pytest.raises(InputError):
            order_mod(pi(FrobeniusDatum(2, 1, 1)), factorize(6))


def test_table_row_order_p7():
    rows = [(d.a_p, d.b_p) for d in enumerate_data(7)]
    assert rows == [
        (0, 1), (0, 2), (1, 1), (-1, 1), (1, 3), (-1, 3), (2, 1), (-2, 1),
        (3, 1), (-3, 1), (4, 1), (-4, 1), (4, 2), (-4, 2), (5, 1), (-5, 1),
    ]
