import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from divmono.arith import factorize, gl2_order, primes_up_to
from divmono.errors import InputError
from divmono.frobenius import FrobeniusDatum, enumerate_b, sigma
from divmono.gl2 import (
    IDENTITY,
    _group_primes,
    _order_prime_power,
    mat_mul,
    mat_pow,
    order_mod,
)


def order_naive(M, n, cap=None):
    """Order of the integral matrix M = ((a, b), (c, d)) mod n by direct
    iteration; test oracle for order_mod."""
    (a, b), (c, d) = M
    if math.gcd(a * d - b * c, n) != 1:
        raise InputError("matrix not invertible")
    if cap is None:
        cap = gl2_order(factorize(n))
    flat = (a % n, b % n, c % n, d % n)
    power = flat
    for k in range(1, cap + 1):
        if power == IDENTITY:
            return k
        power = mat_mul(power, flat, n)
    raise InputError(f"no order found below cap {cap}")


def order_by_group_stripping(M, q, e):
    """Order of the flat matrix M mod q^e by stripping primes from all of
    |GL2(Z/q^eZ)| = q^(4e-3) (q-1)^2 (q+1); test oracle for the stripping
    from the smaller multiple that the eigenvalues mod q give."""
    m = q**e
    order = gl2_order(factorize(m))
    for r in {q}.union(r for r, _ in factorize(q * q - 1)):
        while order % r == 0 and mat_pow(M, order // r, m) == IDENTITY:
            order //= r
    return order


@st.composite
def prime_power_matrices(draw):
    """(M, q, e) with q <= 997 and e <= 3, M invertible mod q^e; a third are
    scalar mod q and a third conjugates of a Jordan block mod q, the cases
    with a repeated eigenvalue."""
    q = draw(st.sampled_from(primes_up_to(997)))
    e = draw(st.integers(min_value=1, max_value=3))
    m = q**e
    lift = st.integers(min_value=0, max_value=m // q - 1)
    lam = draw(st.integers(min_value=1, max_value=q - 1)) if q > 2 else 1
    kind = draw(st.sampled_from(("random", "scalar", "jordan")))
    if kind == "random":
        M = draw(st.tuples(*[st.integers(min_value=0, max_value=m - 1)] * 4))
    elif kind == "scalar":
        M = tuple((x + q * draw(lift)) % m for x in (lam, 0, 0, lam))
    else:
        P = draw(st.tuples(*[st.integers(min_value=0, max_value=m - 1)] * 4))
        det = P[0] * P[3] - P[1] * P[2]
        if math.gcd(det, q) != 1:
            P, det = IDENTITY, 1
        inv = pow(det, -1, m)
        P_inv = (P[3] * inv % m, -P[1] * inv % m, -P[2] * inv % m, P[0] * inv % m)
        J = ((lam + q * draw(lift)) % m, 1, q * draw(lift) % m, lam)
        M = mat_mul(mat_mul(P, J, m), P_inv, m)
    return M, q, e


def reduced(M, n):
    """The integral matrix ((a, b), (c, d)) as a flat tuple mod n."""
    return tuple(x % n for x in (*M[0], *M[1]))


class TestMatModN:
    """Matrices mod n as flat tuples (a, b, c, d)."""

    def test_entries_reduced(self):
        assert mat_mul((-1, 7, 13, -6), IDENTITY, 6) == (5, 1, 1, 0)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(InputError):
            order_mod(((1, 0), (0, 1)), factorize(1))

    def test_identity_times_anything(self):
        m = (3, 1, 4, 1)
        assert mat_mul(IDENTITY, m, 5) == m

    def test_swap_matrix_is_involution(self):
        swap = (0, 1, 1, 0)
        assert mat_mul(swap, swap, 6) == IDENTITY

    def test_product_reduced(self):
        m = (1, 1, 9, 0)
        assert mat_mul(m, m, 11) == (10, 1, 9, 9)


class TestCharPoly:
    """The Frobenius matrix mod n has characteristic polynomial
    x^2 - a_p x + p mod n."""

    def test_frobenius_at_two(self):
        a, b, c, d = reduced(sigma(FrobeniusDatum(2, 1, 1)), 11)
        assert ((a + d) % 11, (a * d - b * c) % 11) == (1, 2)

    def test_reduction_mod_four(self):
        a, b, c, d = reduced(sigma(FrobeniusDatum(7, 0, 2)), 4)
        assert ((a + d) % 4, (a * d - b * c) % 4) == (0, 3)


class TestOrder:
    def test_paper_example(self):
        assert order_mod(sigma(FrobeniusDatum(2, 1, 1)), factorize(11)) == 10

    @pytest.mark.parametrize("n", [2, 5, 12, 60])
    def test_identity_order(self, n):
        assert order_mod(((1, 0), (0, 1)), factorize(n)) == 1

    def test_square_is_scalar(self):
        # M^2 = -5 I = I mod 6
        assert order_mod(((0, 1), (-5, 0)), factorize(6)) == 2

    def test_rejects_non_invertible(self):
        with pytest.raises(InputError):
            order_mod(((2, 0), (0, 2)), factorize(4))

    def test_order_divides_group_order(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 61)
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            if math.gcd(a * d - b * c, n) != 1:
                continue
            assert gl2_order(factorize(n)) % order_mod(((a, b), (c, d)), factorize(n)) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.tuples(*[st.integers(min_value=-59, max_value=59)] * 4),
    )
    def test_matches_naive_order(self, n, entries):
        a, b, c, d = entries
        if math.gcd(a * d - b * c, n) == 1:
            assert order_mod(((a, b), (c, d)), factorize(n)) == order_naive(((a, b), (c, d)), n)

    @settings(max_examples=400, deadline=None)
    @given(prime_power_matrices())
    def test_matches_group_order_stripping(self, case):
        M, q, e = case
        if math.gcd(M[0] * M[3] - M[1] * M[2], q) == 1:
            assert _order_prime_power(M, q, e) == order_by_group_stripping(M, q, e)

    def test_group_primes_are_the_primes_of_the_group_order(self):
        for q in primes_up_to(997):
            group = gl2_order(factorize(q))  # q (q - 1)^2 (q + 1)
            assert _group_primes(q) == {r for r in primes_up_to(q + 1) if group % r == 0}

    def test_power_consistency(self):
        m = reduced(sigma(FrobeniusDatum(3, 1, 1)), 40)
        k = order_mod(sigma(FrobeniusDatum(3, 1, 1)), factorize(40))
        assert mat_pow(m, k, 40) == IDENTITY
        assert not any(mat_pow(m, j, 40) == IDENTITY for j in range(1, k))


class TestSupersingularInvolution:
    @pytest.mark.parametrize("p", [p for p in primes_up_to(97) if p >= 5])
    def test_square_is_identity_mod_p_plus_one(self, p):
        # sigma^2 = -p I = I mod p+1 for a_p = 0, either admissible index
        for b in enumerate_b(p, 0):
            m = reduced(sigma(FrobeniusDatum(p, 0, b)), p + 1)
            assert mat_pow(m, 2, p + 1) == IDENTITY
