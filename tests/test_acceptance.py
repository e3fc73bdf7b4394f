"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run pytest with -rA or -s to see the lines for passing tests).

Criterion 5 asserts the family traces exactly as specified, including
a_2 = 2 for every s in [-99, 99] in the y^2 + y = x^3 + x^2 + s family.
That claim is false for even s (the reduction mod 2 only depends on s mod
2, and even s gives a_2 = -2), so the criterion fails honestly on those
parameters; the obstruction conclusions are unaffected because the a_2 = 2
and a_2 = -2 table rows are identical.
"""

import math
import random
import time

import sympy

from divmono import gl2
from divmono.arith import factorize, gl2_order, irred_count, primes_up_to
from divmono.curves import WeierstrassCurve, daniels_t, semistable_s, trace_of_frobenius, uv
from divmono.errors import InputError
from divmono.frobenius import FrobeniusDatum, enumerate_b, enumerate_data, sigma
from divmono.gl2 import order_mod
from divmono.obstruction import (
    Classification,
    ImageAssumption,
    corollary_threshold,
    full_table,
    supersingular_check,
    test as obstruction_test,
)

from golden_tables import GOLDEN, normalize
from test_arith import brute_gl2_order
from test_gl2 import matrix, norm, order_naive


def report(num, desc: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_worked_example():
    datum = FrobeniusDatum(2, 1, 1)
    start = time.perf_counter()
    v = obstruction_test(datum, 11, ImageAssumption.FULL_GL2)
    elapsed_ms = (time.perf_counter() - start) * 1000
    ok = (
        v.residue_degree == 10
        and v.num_primes == 1320
        and v.irred_supply == 99
        and v.classification is Classification.OBSTRUCTION
        and elapsed_ms < 10
    )
    report(1, "p=2, a=1, b=1, n=11 gives ord 10, 1320 primes, 99 polys",
           ok, f"{elapsed_ms:.3f} ms")


def test_criterion_2_golden_tables():
    # cold-cache timing for the full five-prime scan
    gl2._order_prime_power.cache_clear()
    start = time.perf_counter()
    scans = {p: full_table(p, 999) for p in sorted(GOLDEN)}
    elapsed = time.perf_counter() - start

    mismatches = []
    for p, reports in scans.items():
        got_rows = {
            (r.datum.a_p, r.datum.b_p): [
                (v.n, v.classification is Classification.OBSTRUCTION_ONLY_FULL_IMAGE)
                for v in r.obstructed
            ]
            for r in reports
        }
        for key, row in GOLDEN[p].items():
            if got_rows.get(key) != normalize(row):
                mismatches.append((p, key))
    ok = not mismatches and elapsed < 60
    report(2, "tables for p in {2,3,5,7,11} match cell-for-cell incl. red flags",
           ok, f"{elapsed:.1f} s, mismatched rows: {mismatches or 'none'}")


def test_criterion_3_supersingular_theorem():
    failures = []
    for p in (q for q in primes_up_to(97) if q > 3):
        check = supersingular_check(p)
        n_bs = len(enumerate_b(p, 0))
        if check.orders != (2,) * n_bs:
            failures.append((p, "order", check.orders))
        if not gl2_order(factorize(p + 1)) // 2 > (p * p - p) // 2:
            failures.append((p, "degree comparison"))
    report(3, "for 5 <= p <= 97: ord(sigma, p+1) = 2 and |GL2|/2 > (p^2-p)/2",
           not failures, f"failures: {failures or 'none'}")


def test_criterion_4_counting_formulas():
    irred_ok = all(irred_count(2, p) == (p * p - p) // 2 for p in primes_up_to(97))
    gl2_ok = all(gl2_order(factorize(n)) == brute_gl2_order(n) for n in range(2, 13))
    report(4, "irred(2,p) = (p^2-p)/2 for p <= 97; |GL2(Z/nZ)| matches brute force n <= 12",
           irred_ok and gl2_ok)


def test_criterion_5_family_traces():
    start = time.perf_counter()
    bad = []
    for t in range(-99, 100, 2):
        if trace_of_frobenius(daniels_t(t), 2) != -1:
            bad.append(("E_t", t))
    for s in range(-99, 100):
        if trace_of_frobenius(semistable_s(s), 2) != 2:
            bad.append(("E_s", s))
    for u in range(-9, 10):
        for v in range(-9, 10):
            if u % 2 == 0 or v % 2 != 0:
                continue
            try:
                curve = uv(u, v)
            except InputError:
                continue  # excluded: discriminant 0
            if trace_of_frobenius(curve, 2) != 0:
                bad.append(("E_uv", (u, v)))
    elapsed = time.perf_counter() - start
    detail = f"{elapsed:.2f} s"
    if bad:
        detail += (f"; {len(bad)} counterexamples, first {bad[0]}: the E_s claim "
                   "holds only for odd s (even s reduces to a_2 = -2)")
    report(5, "a_2 = -1 (E_t, odd t), 2 (E_s, all s), 0 (E_uv, u odd v even)",
           not bad and elapsed < 1, detail)


def test_criterion_6_property_suites():
    failures = []

    # char poly of the Frobenius matrix over all admissible data, p <= 200
    for p in primes_up_to(200):
        for datum in enumerate_data(p):
            (s11, s12), (s21, s22) = sigma(datum)
            if s11 + s22 != datum.a_p or s11 * s22 - s12 * s21 != p:
                failures.append(("char_poly", p, datum.a_p, datum.b_p))

    # Gauss inversion
    for p in primes_up_to(11):
        for m in range(1, 13):
            if sum(d * irred_count(d, p) for d in sympy.divisors(m)) != p**m:
                failures.append(("gauss", p, m))

    # CRT order vs naive matrix order, >= 1000 randomized units u + v w of
    # Z[w]/nZ[w], w^2 = delta w + c, for integers delta and c
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 61)
        x = tuple(rng.randrange(-99, 100) for _ in range(4))  # (u, v, delta, c)
        if math.gcd(norm(x), n) != 1:
            continue
        if order_mod(x, factorize(n)) != order_naive(matrix(x), n):
            failures.append(("order", x, n))
        checked += 1

    # Hasse bound on >= 500 randomized curves
    checked = 0
    while checked < 500:
        coeffs = [rng.randint(-20, 20) for _ in range(5)]
        p = rng.choice(primes_up_to(50))
        try:
            curve = WeierstrassCurve(*coeffs)
        except InputError:
            continue
        if not curve.has_good_reduction(p):
            continue
        a_p = trace_of_frobenius(curve, p)
        if a_p * a_p > 4 * p:
            failures.append(("hasse", coeffs, p))
        checked += 1

    report(6, "char-poly, Gauss inversion, CRT order vs naive, Hasse bound",
           not failures, f"failures: {failures[:3] or 'none'}")


def test_criterion_7_negative_control(all_verdicts):
    violations = []
    for p, table in GOLDEN.items():
        for (a, b), row in table.items():
            listed = {n for n, _ in normalize(row)}
            for n, v in all_verdicts[(p, a, b)].items():
                if n not in listed and v.classification is not Classification.NO_OBSTRUCTION:
                    violations.append((p, a, b, n))
    report(7, "every n < 1000 absent from a table row is NO_OBSTRUCTION",
           not violations, f"violations: {violations[:5] or 'none'}")


def test_corollary_threshold_oracle():
    # index 1 -> p = 5 by the exact brute-force criterion
    result = corollary_threshold(1)
    ok = result.prime == 5 and result.exact_lhs == 72 and result.irred_supply == 10
    report("corollary", "threshold at index 1 is p = 5", ok)
