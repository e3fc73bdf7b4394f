import math

import pytest
import sympy
from hypothesis import given, strategies as st

from divmono.arith import (
    factorize, gl2_order, irred_count, irred_count_capped, is_prime, primes_up_to,
)
from divmono.errors import InputError

# the least strong pseudoprime to all of the first 13 prime bases
PSI_13 = 3317044064679887385961981


def brute_gl2_order(n):
    """Count 2x2 matrices mod n with determinant a unit; test oracle."""
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if math.gcd(a * d - b * c, n) == 1:
                        count += 1
    return count


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_13200(self):
        assert factorize(13200) == ((2, 4), (3, 1), (5, 2), (11, 1))

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_round_trip(self, m):
        fact = factorize(m)
        assert math.prod(p**e for p, e in fact) == m
        assert all(is_prime(p) for p, _ in fact)


class TestIsPrime:
    def test_matches_sieve(self):
        assert [m for m in range(-5, 10**4 + 1) if is_prime(m)] == primes_up_to(10**4)

    @given(st.integers(min_value=-(10**3), max_value=10**12))
    def test_matches_sympy(self, m):
        assert is_prime(m) == sympy.isprime(m)

    @given(st.integers(min_value=10**12, max_value=PSI_13 - 1))
    def test_matches_sympy_up_to_the_limit(self, m):
        assert is_prime(m) == sympy.isprime(m)

    @pytest.mark.parametrize("m", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
        318665857834031151167461,  # passes every base 2..37
    ])
    def test_strong_pseudoprimes_are_composite(self, m):
        # psi_k, the least strong pseudoprime to the first k prime bases
        assert not is_prime(m)

    def test_primes_near_the_limit(self):
        assert is_prime(10**18 + 3)
        assert is_prime(PSI_13 - 2) == sympy.isprime(PSI_13 - 2)

    @pytest.mark.parametrize("m", [PSI_13, sympy.nextprime(PSI_13)])
    def test_limit_is_input_error(self, m):
        with pytest.raises(InputError):
            is_prime(m)

    @pytest.mark.parametrize("m", [PSI_13 + 1, 10**30, 10**30 + 1])
    def test_composites_past_the_limit(self, m):
        assert not sympy.isprime(m) and not is_prime(m)


class TestGl2Order:
    def test_eleven(self):
        # 1320 primes above 2 in the 11-torsion field, each of degree 10
        assert gl2_order(factorize(11)) == 13200

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_brute_force(self, n):
        group = brute_gl2_order(n)
        assert gl2_order(factorize(n)) == group

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=2, max_value=60))
    def test_multiplicative_on_coprime(self, a, b):
        if math.gcd(a, b) == 1:
            product = gl2_order(factorize(a)) * gl2_order(factorize(b))
            assert gl2_order(factorize(a * b)) == product


class TestIrredCount:
    def test_degree_ten_base_two(self):
        assert irred_count(10, 2) == 99

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_linear(self, p):
        assert irred_count(1, p) == p

    def test_quadratics(self):
        assert irred_count(2, 5) == 10

    @pytest.mark.parametrize("p", primes_up_to(11))
    @pytest.mark.parametrize("m", range(1, 13))
    def test_gauss_inversion(self, m, p):
        # summing d * irred(d, p) over divisors of m recovers p^m
        assert sum(d * irred_count(d, p) for d in sympy.divisors(m)) == p**m

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_mobius_sum_over_all_divisors(self, p):
        # the sum over every divisor d, mu(m/d) = 0 terms included
        for m in range(1, 61):
            total = sum(sympy.mobius(m // d) * p**d for d in sympy.divisors(m))
            assert m * irred_count(m, p) == total, (m, p)

    def test_rejects_composite_base(self):
        with pytest.raises(InputError):
            irred_count(2, 6)


class TestIrredCountCapped:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_supply_exceeds_half_of_p_to_the_m(self, p):
        # the inequality that the bound here and obstruction.scan's pruning use
        for m in range(1, 81):
            if p ** ((m + 1) // 2) >= 4:
                assert 2 * m * irred_count(m, p) > p**m, (m, p)

    def test_equals_the_exact_supply_capped(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            for m in range(1, 61):
                supply = irred_count(m, p)
                for cap in [*range(-1, 41), supply, supply + 1, 2 * supply + 1]:
                    assert irred_count_capped(m, p, cap) == min(supply, cap), (m, p, cap)

    def test_rejects_degree_zero(self):
        with pytest.raises(InputError):
            irred_count_capped(0, 2, 1)

    def test_rejects_composite_base_when_the_bound_decides(self):
        # 4^1000 > 2 * 1000 * 9 by far: the bound alone would return the cap
        with pytest.raises(InputError):
            irred_count_capped(1000, 4, 10)

