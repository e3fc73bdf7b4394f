import math
import random
import sys
from functools import lru_cache

import pytest

from divmono.arith import factorize, gl2_order, irred_count, is_prime, primes_up_to
from divmono.cli import _printed_supply
from divmono.curves import WeierstrassCurve, daniels_t, semistable_s, uv
from divmono.errors import InputError
from divmono.frobenius import FrobeniusDatum, enumerate_b, enumerate_data, pi, sigma
from divmono.gl2 import mul, order_mod
from divmono.obstruction import (
    INDEX_MAX,
    TABLE_N_MAX,
    Classification,
    CorollaryThreshold,
    CurvePrimeStatus,
    ImageAssumption,
    corollary_threshold,
    essential_divisor_scan,
    full_table,
    scan,
    supersingular_check,
)
from divmono.obstruction import test as verdict  # "test" confuses pytest collection
from test_cli import interrupt_after
from test_gl2 import mat_mul

FULL = ImageAssumption.FULL_GL2
INDEX2 = ImageAssumption.INDEX2_SUBGROUP


def count_factorize(monkeypatch):
    """Record the argument of every factorize call from now on, in a list."""
    calls = []

    def counted(m):
        calls.append(m)
        return factorize(m)

    # every binding of factorize in the package, so calls between modules count
    for name, module in list(sys.modules.items()):
        if name == "divmono" or name.startswith("divmono."):
            for attr, obj in list(vars(module).items()):
                if obj is factorize:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def entries(report):
    """A table row as (n, classification) pairs."""
    return [(v.n, v.classification) for v in report.obstructed]


class TestVerdicts:
    def test_worked_example(self):
        v = verdict(FrobeniusDatum(2, 1, 1), 11, FULL)
        assert v.residue_degree == 10
        assert v.num_primes == 1320
        assert v.irred_supply == 99
        assert v.classification is Classification.OBSTRUCTION

    def test_red_entry(self):
        d = FrobeniusDatum(2, 0, 1)
        assert verdict(d, 5, FULL).classification is Classification.OBSTRUCTION_ONLY_FULL_IMAGE
        assert verdict(d, 5, INDEX2).classification is Classification.NO_OBSTRUCTION

    def test_absence(self):
        v = verdict(FrobeniusDatum(2, 1, 1), 7, FULL)
        assert v.classification is Classification.NO_OBSTRUCTION

    def test_rejects_shared_factor(self):
        with pytest.raises(InputError):
            verdict(FrobeniusDatum(3, 0, 1), 6, FULL)
        with pytest.raises(InputError, match="n must be >= 2"):
            verdict(FrobeniusDatum(3, 0, 1), 1, FULL)

    def test_one_factorization_of_n_per_verdict(self, monkeypatch):
        calls = count_factorize(monkeypatch)
        for n in (11, 45, 495, 997 * 9):
            for image in (FULL, INDEX2):
                calls.clear()
                verdict(FrobeniusDatum(2, 1, 1), n, image)
                assert calls.count(n) == 1

    def test_residue_degree_divides_both_degrees(self):
        for n in range(3, 40, 2):
            v_full = verdict(FrobeniusDatum(2, 1, 1), n, FULL)
            v_half = verdict(FrobeniusDatum(2, 1, 1), n, INDEX2)
            assert gl2_order(factorize(n)) % v_full.residue_degree == 0
            assert v_full.num_primes == 2 * v_half.num_primes
        # the index-2 verdict is the full one read off: InputError exactly when
        # the full prime count is odd, else half the primes, red read as none
        for p in (2, 3, 5, 7, 11):
            for d in enumerate_data(p):
                for n in range(2, 301):
                    if n % p == 0:
                        continue
                    v_full = verdict(d, n, FULL)
                    assert gl2_order(factorize(n)) % v_full.residue_degree == 0
                    if v_full.num_primes % 2:
                        with pytest.raises(InputError, match="index-2 image assumption"):
                            verdict(d, n, INDEX2)
                        continue
                    red = v_full.classification is Classification.OBSTRUCTION_ONLY_FULL_IMAGE
                    assert verdict(d, n, INDEX2) == v_full._replace(
                        num_primes=v_full.num_primes // 2,
                        classification=Classification.NO_OBSTRUCTION if red
                        else v_full.classification)

    def test_index2_obstruction_implies_full(self):
        for p in (2, 3, 5):
            for a in (-1, 0, 1):
                d = FrobeniusDatum(p, a, 1)
                for n in range(2, 100):
                    if n % p == 0:
                        continue
                    try:
                        v_half = verdict(d, n, INDEX2)
                    except InputError:
                        # no index-2 subgroup contains sigma at this n
                        continue
                    if v_half.classification is Classification.OBSTRUCTION:
                        assert verdict(d, n, FULL).classification is Classification.OBSTRUCTION


@lru_cache(maxsize=None)
def exact_supply(m, p):
    return irred_count(m, p)


def exact_classification(datum, n, image):
    """The verdict's class from the exact supply, with no bound: the
    comparison test() made for every cell before the bound; test oracle."""
    order = order_mod(pi(datum), factorize(n))
    group = gl2_order(factorize(n))
    if image is INDEX2 and (group // 2) % order:
        return None  # test() rejects this n with InputError
    supply = exact_supply(order, datum.p)
    if 2 * supply * order < group:
        return Classification.OBSTRUCTION
    if supply * order < group and image is FULL:
        return Classification.OBSTRUCTION_ONLY_FULL_IMAGE
    return Classification.NO_OBSTRUCTION


class TestSupplyBound:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_verdicts_match_the_exact_comparison(self, p):
        # every admissible datum and every n <= 300 coprime to p, both images;
        # the printed supply is exact below 10^D and the token from 10^D on
        digits = sys.get_int_max_str_digits()
        limit = 10**digits
        for datum in enumerate_data(p):
            for n in range(2, 301):
                if math.gcd(n, p) != 1:
                    continue
                for image in (FULL, INDEX2):
                    want = exact_classification(datum, n, image)
                    if want is None:
                        with pytest.raises(InputError):
                            verdict(datum, n, image)
                        continue
                    v = verdict(datum, n, image)
                    assert v.classification is want, (datum, n, image)
                    supply = exact_supply(v.residue_degree, p)
                    printed = supply if supply < limit else f">=10^{digits}"
                    assert _printed_supply(v) == printed, (datum, n)


def exact_scan(datum, n_max):
    """test() every n in [2, n_max] coprime to p, keeping obstructions: the
    scan as it was before it tested only the divisors of the g_f; test oracle."""
    hits = []
    for n in range(2, n_max + 1):
        if math.gcd(n, datum.p) != 1:
            continue
        v = verdict(datum, n, FULL)
        if v.classification is not Classification.NO_OBSTRUCTION:
            hits.append(v)
    return tuple(hits)


class TestScan:
    def test_matches_every_verdict_of_the_five_tables(self, all_verdicts):
        for (p, a, b), row in all_verdicts.items():
            want = tuple(v for _, v in sorted(row.items())
                         if v.classification is not Classification.NO_OBSTRUCTION)
            assert scan(FrobeniusDatum(p, a, b), 999).obstructed == want, (p, a, b)

    def test_matches_the_exact_scan_on_random_data(self):
        rng = random.Random(11)
        primes = primes_up_to(97)
        for _ in range(25):
            p = rng.choice(primes)
            datum = rng.choice(enumerate_data(p))
            n_max = rng.randint(2, 3000)
            assert scan(datum, n_max).obstructed == exact_scan(datum, n_max), (datum, n_max)

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_matches_the_exact_scan_at_the_smallest_n_max(self, n_max):
        for p in primes_up_to(97):
            for datum in enumerate_data(p):
                assert scan(datum, n_max).obstructed == exact_scan(datum, n_max), datum

    def test_content_of_pi_f_minus_1_is_that_of_sigma_f_minus_identity(self):
        # gcd(u_f - 1, v_f) for pi^f = u_f + v_f w over Z, as scan reads it,
        # against the gcd of the entries of sigma^f - I, for every f < F
        for p in (2, 3, 5, 7, 11):
            for datum in enumerate_data(p):
                u, v, delta, c = pi(datum)
                u_f, v_f = u, v
                S = M = sigma(datum)
                f = 1
                while p**f < 2 * 999**4:
                    (a, b), (c_f, d) = M
                    assert math.gcd(u_f - 1, v_f) == math.gcd(a - 1, b, c_f, d - 1), (datum, f)
                    u_f, v_f = mul((u_f, v_f), (u, v), delta, c)
                    M = mat_mul(M, S)
                    f += 1

    def test_rejects_n_max_out_of_range(self):
        with pytest.raises(InputError, match="n_max must be >= 2"):
            scan(FrobeniusDatum(2, 1, 1), 1)
        with pytest.raises(InputError, match="n_max must be <="):
            scan(FrobeniusDatum(2, 1, 1), TABLE_N_MAX + 1)

    def test_row_a2_1(self):
        report = scan(FrobeniusDatum(2, 1, 1), 999)
        assert entries(report) == [(11, Classification.OBSTRUCTION)]

    def test_row_a2_minus_1(self):
        report = scan(FrobeniusDatum(2, -1, 1), 999)
        assert [v.n for v in report.obstructed] == [11, 23]

    def test_empty_row(self):
        assert scan(FrobeniusDatum(11, 3, 1), 999).obstructed == ()

    def test_only_coprime_increasing(self):
        report = scan(FrobeniusDatum(3, 0, 1), 400)
        ns = [v.n for v in report.obstructed]
        assert ns == sorted(ns)
        assert all(n % 3 != 0 and n >= 2 for n in ns)


class TestFullTable:
    def test_row_count_and_order_p2(self):
        rows = full_table(2, 50)
        assert [(r.datum.a_p, r.datum.b_p) for r in rows] == [
            (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1),
        ]

    def test_sign_symmetric_rows_p2(self):
        rows = {(r.datum.a_p, r.datum.b_p): entries(r) for r in full_table(2, 300)}
        assert rows[(2, 1)] == rows[(-2, 1)]

    def test_sign_asymmetric_rows_p11(self):
        rows = {(r.datum.a_p, r.datum.b_p): entries(r) for r in full_table(11, 30)}
        assert rows[(1, 1)] != rows[(-1, 1)]  # 10 obstructs only for a = -1


class TestSupersingular:
    @pytest.mark.parametrize("p", [p for p in primes_up_to(97) if p > 3])
    def test_orders_are_two(self, p):
        check = supersingular_check(p)
        expected_count = 1 if p % 4 == 1 else 2
        assert check.orders == (2,) * expected_count
        assert check.obstructed

    def test_closed_forms(self):
        # order 2 for every admissible b, |GL2(Z/(p+1)Z)|/2 primes against
        # (p^2 - p)/2 irreducible quadratics
        for p in (q for q in primes_up_to(2000) if q >= 5):
            check = supersingular_check(p)
            assert check.orders == (2,) * len(enumerate_b(p, 0))
            assert check.num_primes_full == gl2_order(factorize(p + 1)) // 2
            assert check.irred_supply == (p * p - p) // 2
            assert check.obstructed == (check.num_primes_full > check.irred_supply)

    @pytest.mark.parametrize(
        "primes", [[p for p in primes_up_to(2000) if p >= 5], [99999999999931]],
        ids=["p<2000", "p=99999999999931"])
    def test_matches_a_verdict_per_b(self, primes):
        # test() at n = p + 1 for every admissible b, as supersingular_check
        # computed it before it used its own proof; test oracle
        for p in primes:
            check = supersingular_check(p)
            for b in enumerate_b(p, 0):
                v = verdict(FrobeniusDatum(p, 0, b), p + 1)
                assert v.residue_degree == 2, (p, b)
                assert (v.classification is not Classification.NO_OBSTRUCTION) == \
                    check.obstructed, (p, b)
                assert (v.num_primes, v.irred_supply) == \
                    (check.num_primes_full, check.irred_supply), (p, b)

    def test_counts_at_five(self):
        check = supersingular_check(5)
        assert check.num_primes_full == gl2_order(factorize(6)) // 2
        assert check.irred_supply == 10

    def test_rejects_small_p(self):
        with pytest.raises(InputError):
            supersingular_check(3)


def corollary_walk(index):
    """corollary_threshold by one walk over every integer from 4, testing
    the exact criterion and the closed-form bound side by side."""
    prime = bound_prime = None
    p = 3
    while prime is None or bound_prime is None:
        p += 1
        if not is_prime(p):
            continue
        if prime is None:
            # once prime is found, group and supply keep their values there
            group, supply = gl2_order(factorize(p + 1)), irred_count(2, p)
            if group > 4 * index * supply:
                prime = p
        if bound_prime is None and 3 * (p + 1) ** 4 > 16 * index * (p * p - p):
            bound_prime = p
    return CorollaryThreshold(prime, group // (4 * index), supply, bound_prime)


class TestCorollary:
    def test_index_one(self):
        result = corollary_threshold(1)
        assert result.prime == 5
        assert result.exact_lhs == 72
        assert result.irred_supply == 10

    def test_index_two(self):
        result = corollary_threshold(2)
        assert result.prime == 5
        assert result.exact_lhs == 36

    def test_large_index_by_oracle(self):
        index = 10**6
        result = corollary_threshold(index)
        # brute-force the same criterion independently
        p = 5
        while not gl2_order(factorize(p + 1)) > 4 * index * irred_count(2, p):
            p += 2
            while not all(p % q for q in range(3, int(p**0.5) + 1, 2)):
                p += 2
        assert result.prime == p

    def test_rejects_zero_index(self):
        with pytest.raises(InputError):
            corollary_threshold(0)

    def test_matches_the_joint_walk(self):
        # every index to 3000, and 40 indices spread over the scales of
        # [10^4, 10^9] (uniform in log index)
        rng = random.Random(19)
        sample = [round(10 ** rng.uniform(4, 9)) for _ in range(40)]
        for index in [*range(1, 3001), *sample]:
            result = corollary_threshold(index)
            assert result == corollary_walk(index), index
            assert result.bound_prime <= result.prime

    def test_search_at_index_max_within_1_s(self):
        result = corollary_threshold(10**8)
        assert (result.prime, result.exact_lhs, result.irred_supply, result.bound_prime) == (
            23131, 268379224, 267510015, 23099)
        with interrupt_after(1):
            corollary_threshold(INDEX_MAX)


class TestEssentialDivisorScan:
    def test_daniels_at_two(self):
        reports = essential_divisor_scan(daniels_t(3), 11, 2)
        assert len(reports) == 1
        r = reports[0]
        assert (r.p, r.a_p, r.status) == (2, -1, CurvePrimeStatus.CONFIRMED)

    def test_semistable_thirteen(self):
        (r,) = essential_divisor_scan(semistable_s(1), 13, 2)
        assert (r.p, r.a_p, r.status) == (2, 2, CurvePrimeStatus.CONFIRMED)

    def test_uv_eleven(self):
        (r,) = essential_divisor_scan(uv(1, 2), 11, 2)
        assert (r.p, r.a_p, r.status) == (2, 0, CurvePrimeStatus.CONFIRMED)

    def test_skips_divisors_of_n(self):
        reports = essential_divisor_scan(daniels_t(1), 6, 3)
        assert [(r.p, r.status) for r in reports] == [
            (2, CurvePrimeStatus.SKIPPED_DIVIDES_N),
            (3, CurvePrimeStatus.SKIPPED_DIVIDES_N),
        ]

    def test_skips_bad_reduction(self):
        # disc(y^2 = x^3 + 1) = -432 = -2^4 * 27
        reports = essential_divisor_scan(WeierstrassCurve(0, 0, 0, 0, 1), 11, 3)
        assert [(r.p, r.status) for r in reports] == [
            (2, CurvePrimeStatus.SKIPPED_BAD_REDUCTION),
            (3, CurvePrimeStatus.SKIPPED_BAD_REDUCTION),
        ]

    def test_one_factorization_of_n_per_scan(self, monkeypatch):
        calls = count_factorize(monkeypatch)
        for curve, n, p_max in ((daniels_t(3), 11, 50), (semistable_s(1), 15, 30),
                                (uv(1, 2), 997 * 9, 20)):
            calls.clear()
            reports = essential_divisor_scan(curve, n, p_max)
            assert sum(len(r.verdicts) for r in reports) > 1
            assert calls.count(n) == 1

    def test_conditional_when_b_values_disagree(self):
        # p = 3, a_3 = 0 admits b in {1, 2}; at n = 2 only b = 2 obstructs
        # (red), so a supersingular-at-3 curve gets a CONDITIONAL verdict
        curve = WeierstrassCurve(0, 0, 0, 1, 0)  # y^2 = x^3 + x, a_3 = 0
        skipped, r = essential_divisor_scan(curve, 2, 3)
        assert skipped.status is CurvePrimeStatus.SKIPPED_DIVIDES_N
        assert r.p == 3 and r.a_p == 0
        assert r.status is CurvePrimeStatus.CONDITIONAL
