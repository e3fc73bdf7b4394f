import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from divmono.arith import factorize, gl2_order, primes_up_to
from divmono.errors import InputError
from divmono.frobenius import FrobeniusDatum, enumerate_b, enumerate_data, pi, sigma
from divmono.gl2 import _group_primes, _order_prime_power, mul, order_mod, power

IDENTITY = ((1, 0), (0, 1))
# a safe prime just below N_MAX: q - 1 = 2 * 49999999997963
SAFE_PRIME = 99999999995927


def mat_mul(A, B, m=None):
    """A * B for integral matrices ((a, b), (c, d)), reduced into [0, m)
    unless m is None; the matrix product of the oracles below."""
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    if m is None:
        return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)
    return ((a * e + b * g) % m, (a * f + b * h) % m), ((c * e + d * g) % m, (c * f + d * h) % m)


def mat_pow(M, k, m):
    """M^k mod m by repeated squaring, for m >= 2."""
    result = IDENTITY
    while k:
        if k & 1:
            result = mat_mul(result, M, m)
        M = mat_mul(M, M, m)
        k >>= 1
    return result


def matrix(x):
    """The matrix of u + v w, w^2 = delta w + c, as frobenius.sigma writes it:
    multiplication by x in the basis (1, w), conjugated by [[0, 1], [1, 0]]."""
    u, v, delta, c = x
    return ((u + v * delta, v), (v * c, u))


def norm(x):
    u, v, delta, c = x
    return u * u + delta * u * v - c * v * v


def order_naive(M, n, cap=None):
    """Order of the integral matrix M = ((a, b), (c, d)) mod n by direct
    iteration; test oracle for order_mod."""
    (a, b), (c, d) = M
    if math.gcd(a * d - b * c, n) != 1:
        raise InputError("matrix not invertible")
    if cap is None:
        cap = gl2_order(factorize(n))
    M = tuple(tuple(x % n for x in row) for row in M)
    power = M
    for k in range(1, cap + 1):
        if power == IDENTITY:
            return k
        power = mat_mul(power, M, n)
    raise InputError(f"no order found below cap {cap}")


@lru_cache(maxsize=None)
def primes_of_q_squared_minus_1(q):
    """Factorized as q - 1 and q + 1, each a trial division to about sqrt(q)."""
    return {r for part in (q - 1, q + 1) for r, _ in factorize(part)}


@lru_cache(maxsize=None)
def order_by_group_stripping(M, q, e):
    """Order of the integral matrix M mod q^e by stripping primes from all of
    |GL2(Z/q^eZ)| = q^(4e-3) (q-1)^2 (q+1); test oracle for the stripping
    from the smaller multiple that the eigenvalues mod q give."""
    m = q**e
    M = tuple(tuple(x % m for x in row) for row in M)
    order = gl2_order(((q, e),))
    for r in {q} | primes_of_q_squared_minus_1(q):
        while order % r == 0 and mat_pow(M, order // r, m) == IDENTITY:
            order //= r
    return order


def matrix_order(M, factors):
    """Order of the integral matrix M mod n = prod q^e over factors, the lcm
    of its orders by group stripping at each q^e || n; test oracle for
    order_mod."""
    orders = []
    for q, e in factors:
        m = q**e
        orders.append(order_by_group_stripping(tuple(tuple(x % m for x in row) for row in M), q, e))
    return math.lcm(*orders)


@st.composite
def prime_power_elements(draw):
    """(u, v, delta, c, q, e) with q <= 997, e <= 3 and entries in [0, q^e):
    a third scalar mod q (v = 0 mod q, u a unit) and a third with a repeated
    eigenvalue mod q (delta^2 + 4c = 0 mod q)."""
    q = draw(st.sampled_from(primes_up_to(997)))
    e = draw(st.integers(min_value=1, max_value=3))
    m = q**e
    entry = st.integers(min_value=0, max_value=m - 1)
    lift = st.integers(min_value=0, max_value=m // q - 1)
    u, v, delta, c = (draw(entry) for _ in range(4))
    kind = draw(st.sampled_from(("random", "scalar", "repeated")))
    if kind == "scalar":
        lam = draw(st.integers(min_value=1, max_value=q - 1)) if q > 2 else 1
        u, v = (lam + q * draw(lift)) % m, q * draw(lift) % m
    elif kind == "repeated" and q == 2:
        delta = 2 * draw(lift)
    elif kind == "repeated":
        c = (-delta * delta * pow(4, -1, q) + q * draw(lift)) % m
    return u, v, delta, c, q, e


def reduced(M, n):
    """The integral matrix ((a, b), (c, d)) as a flat tuple mod n."""
    return tuple(x % n for x in (*M[0], *M[1]))


class TestMatModN:
    """Products mod n of elements u + v w of Z[w], w^2 = delta w + c, as
    pairs (u, v): the format of the Frobenius element, whose matrix is the
    matrix of multiplication by it."""

    def test_entries_reduced(self):
        assert mul((-1, 7), (1, 0), 3, -5, 6) == (5, 1)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(InputError):
            order_mod((1, 0, 0, 0), factorize(1))

    def test_identity_times_anything(self):
        assert mul((1, 0), (3, 4), 2, 7, 5) == (3, 4)
        assert mul((3, 4), (1, 0), 2, 7, 5) == (3, 4)

    def test_swap_matrix_is_involution(self):
        # [[0, 1], [1, 0]] is the matrix of w when w^2 = 1
        assert matrix((0, 1, 0, 1)) == ((0, 1), (1, 0))
        assert mul((0, 1), (0, 1), 0, 1, 6) == (1, 0)

    @pytest.mark.parametrize("delta,c", [(0, -1), (1, -2), (0, 5), (-3, 7), (4, 0)])
    def test_w_squared(self, delta, c):
        assert mul((0, 1), (0, 1), delta, c) == (c, delta)
        assert mul((0, 1), (0, 1), delta, c, 11) == (c % 11, delta % 11)

    def test_product_reduced(self):
        # (1 + 2w)(3 + w) = 3 + 7w + 2w^2 = -1 + 9w for w^2 = w - 2
        assert mul((1, 2), (3, 1), 1, -2, 11) == (10, 9)
        assert mul((1, 2), (3, 1), 1, -2) == (-1, 9)

    def test_matches_the_matrix_product(self):
        rng = random.Random(5)
        for _ in range(500):
            delta, c = rng.randrange(-50, 51), rng.randrange(-50, 51)
            x, y = [(rng.randrange(-99, 100), rng.randrange(-99, 100)) for _ in range(2)]
            assert matrix((*mul(x, y, delta, c), delta, c)) == \
                mat_mul(matrix((*x, delta, c)), matrix((*y, delta, c)))


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
        assert order_mod(pi(FrobeniusDatum(2, 1, 1)), factorize(11)) == 10

    @pytest.mark.parametrize("n", [2, 5, 12, 60])
    def test_identity_order(self, n):
        assert order_mod((1, 0, 0, 0), factorize(n)) == 1

    def test_square_is_scalar(self):
        # w^2 = -5 = 1 mod 6
        assert order_mod((0, 1, 0, -5), factorize(6)) == 2

    def test_rejects_non_invertible(self):
        with pytest.raises(InputError):
            order_mod((2, 0, 0, 0), factorize(4))

    def test_order_divides_group_order(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 61)
            x = tuple(rng.randrange(-99, 100) for _ in range(4))
            if math.gcd(norm(x), n) != 1:
                continue
            assert gl2_order(factorize(n)) % order_mod(x, factorize(n)) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.tuples(*[st.integers(min_value=-59, max_value=59)] * 4),
    )
    def test_matches_naive_order(self, n, x):
        if math.gcd(norm(x), n) == 1:
            assert order_mod(x, factorize(n)) == order_naive(matrix(x), n)

    @settings(max_examples=400, deadline=None)
    @given(prime_power_elements())
    def test_matches_group_order_stripping(self, case):
        *x, q, e = case
        if norm(x) % q:
            assert _order_prime_power(*x, q, e) == order_by_group_stripping(matrix(x), q, e)

    def test_matches_the_matrix_oracle_on_the_five_tables(self):
        for p in (2, 3, 5, 7, 11):
            for datum in enumerate_data(p):
                for n in range(2, 1000):
                    if n % p:
                        factors = factorize(n)
                        assert order_mod(pi(datum), factors) == \
                            matrix_order(sigma(datum), factors), (datum, n)

    def test_matches_the_matrix_oracle_at_a_safe_prime(self):
        factors = factorize(SAFE_PRIME)
        for p in (2, 3, 5, 7, 11):
            for datum in enumerate_data(p):
                assert order_mod(pi(datum), factors) == \
                    matrix_order(sigma(datum), factors), datum

    def test_group_primes_are_the_primes_of_the_group_order(self):
        for q in primes_up_to(997):
            group = gl2_order(factorize(q))  # q (q - 1)^2 (q + 1)
            assert _group_primes(q) == {r for r in primes_up_to(q + 1) if group % r == 0}

    def test_power_consistency(self):
        u, v, delta, c = pi(FrobeniusDatum(3, 1, 1))
        k = order_mod((u, v, delta, c), factorize(40))
        assert power((u, v), k, delta, c, 40) == (1, 0)
        assert not any(power((u, v), j, delta, c, 40) == (1, 0) for j in range(1, k))


class TestSupersingularInvolution:
    @pytest.mark.parametrize("p", [p for p in primes_up_to(97) if p >= 5])
    def test_square_is_identity_mod_p_plus_one(self, p):
        # pi^2 = -p = 1 mod p+1 for a_p = 0, either admissible index
        for b in enumerate_b(p, 0):
            u, v, delta, c = pi(FrobeniusDatum(p, 0, b))
            assert power((u, v), 2, delta, c, p + 1) == (1, 0)
