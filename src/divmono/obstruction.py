"""The obstruction engine.

For a reduction datum (p, a_p, b_p) and n coprime to p, the residue degree
of every prime above p in the n-torsion field equals the order of the
Frobenius element pi mod n. Modeling the field degree as |GL2(Z/nZ)| (or half
of it for an index-2 image), p splits into degree/order primes, all of
residue degree ord. If F_p[x] has fewer irreducible polynomials of that
degree than there are primes, p divides the index of every monogenic
order: an essential discriminant divisor.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import namedtuple

from .arith import factorize, gl2_order, irred_count, irred_count_capped, is_prime, primes_up_to
from .curves import WeierstrassCurve, trace_of_frobenius
from .errors import ArithmeticBug, InputError
from .frobenius import FrobeniusDatum, enumerate_b, enumerate_data, pi
from .gl2 import mul, order_mod


class ImageAssumption(enum.Enum):
    """Which Galois image test() assumes: a surjective mod-n representation
    (the engine's), or the index-2 worst case of a Serre curve."""

    FULL_GL2 = "full"
    INDEX2_SUBGROUP = "index2"


# Largest n that test() accepts. Factorizing n is trial division to sqrt(n),
# so a prime n just below this limit takes about 1.2 s on a 2-core machine;
# the paper's tables stop at n = 999.
N_MAX = 10**14
# Largest index that corollary_threshold() accepts. It factorizes p + 1 by
# trial division for each prime p it tests, with p about 2.31 sqrt(index):
# the slowest of 300 indices just below this limit, 9969968247344058328230,
# takes 0.27 s on a 2-core machine, and the slowest just below 10^24 0.55 s.
# is_prime's psi_13 caps p far above this.
INDEX_MAX = 10**22
# Largest p_max that essential_divisor_scan() accepts. It counts points in
# O(p) at every prime p <= p_max: about 1.2 s at this limit as a CLI call on a
# 2-core machine, 4 s at 2 * 10^4. The worst n, a safe prime just below
# N_MAX, takes about 3 s at this limit: its q - 1 is factorized once per
# process, and 2408 verdicts reduce mod q.
P_MAX = 10**4
# Largest n_max that scan() accepts. A row factorizes gcds of size up to
# about n_max^2 by trial division: the slowest table of any prime p < 400 at
# this limit takes 0.8 s on a 2-core machine, and p = 23 at 10^9 takes 16 s.
TABLE_N_MAX = 10**8
# Largest p that full_table() accepts. A table has about sqrt(p) rows per
# trace, up to about 8,600 lines at n_max = 999. The slowest p found below
# this limit, 868561 (of 60 random primes in [20000, 10^6)), takes 0.9-1.5 s
# as a CLI call at TABLE_N_MAX on a 2-core machine, against 0.4-0.5 s for
# p = 999983; p near 10^7 takes 5.9 s there.
TABLE_P_MAX = 10**6


def _check_range(name: str, value: int, low: int, high: int):
    """Raise InputError unless low <= value <= high."""
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise InputError(f"{name} must be <= {high}, got {value}")


class Classification(enum.Enum):
    OBSTRUCTION = "obstruction"
    OBSTRUCTION_ONLY_FULL_IMAGE = "red"
    NO_OBSTRUCTION = "no_obstruction"


class Verdict(namedtuple("Verdict", "p a_p b_p n residue_degree num_primes classification")):
    """Outcome of the splitting-versus-supply comparison for one (datum, n)."""

    __slots__ = ()

    @property
    def irred_supply(self) -> int:
        """Irreducible polynomials of the residue degree over F_p; it can
        have about residue_degree * log10(p) digits."""
        return irred_count(self.residue_degree, self.p)


def test(
    datum: FrobeniusDatum,
    n: int,
    image: ImageAssumption = ImageAssumption.FULL_GL2,
) -> Verdict:
    """Compare the number of primes above p in the n-torsion field with
    the count of irreducible polynomials of the matching degree. n is
    limited to N_MAX, because factorizing n is trial division.

    Under FULL_GL2 the classification is three-way: an entry obstructed
    under the full image but not under an index-2 image is flagged
    OBSTRUCTION_ONLY_FULL_IMAGE (a "red" entry). INDEX2_SUBGROUP reads a
    binary verdict off the full one, whose prime count is c = |GL2|/ord.
    As ord divides |GL2|, it divides |GL2|/2 iff c is even: for odd c no
    index-2 subgroup contains this Frobenius class (InputError). For even
    c, p splits into c/2 primes, and an obstruction needs I < c/2, which
    is the full-image OBSTRUCTION; so a red entry reads NO_OBSTRUCTION.
    """
    _check_range("n", n, 2, N_MAX)
    if math.gcd(n, datum.p) != 1:
        raise InputError(f"n = {n} is not coprime to p = {datum.p}")
    factors = factorize(n)
    group_order = gl2_order(factors)
    v = _compare(datum, n, order_mod(pi(datum), factors), group_order)
    if image is ImageAssumption.FULL_GL2:
        return v
    if v.num_primes % 2:
        raise InputError(f"index-2 image assumption is inconsistent at n={n}: "
                         f"order {v.residue_degree} does not divide {group_order // 2}")
    cls = v.classification
    if cls is Classification.OBSTRUCTION_ONLY_FULL_IMAGE:
        cls = Classification.NO_OBSTRUCTION
    return v._replace(num_primes=v.num_primes // 2, classification=cls)


def _compare(datum: FrobeniusDatum, n: int, order: int, group_order: int) -> Verdict:
    """The full-image verdict at n, given order = ord_n(pi) and
    group_order = |GL2(Z/nZ)|: every verdict in the package is decided
    here, and test() reads the index-2 one off it."""
    if group_order % order != 0:
        raise ArithmeticBug(f"order {order} does not divide |GL2| for n={n}")
    num_primes = group_order // order
    # With c = num_primes, min(I, c) < c iff I < c and min(I, c) < c/2 iff
    # I < c/2: the supply capped at c decides all three classes.
    supply = irred_count_capped(order, datum.p, num_primes)
    if 2 * supply < num_primes:
        cls = Classification.OBSTRUCTION
    elif supply < num_primes:
        cls = Classification.OBSTRUCTION_ONLY_FULL_IMAGE
    else:
        cls = Classification.NO_OBSTRUCTION
    return Verdict(p=datum.p, a_p=datum.a_p, b_p=datum.b_p, n=n, residue_degree=order,
                   num_primes=num_primes, classification=cls)


class ScanReport(namedtuple("ScanReport", "datum obstructed")):
    """All obstructed n of a scan for one datum, a tuple of Verdicts in
    increasing n: one table row."""

    __slots__ = ()


def scan(datum: FrobeniusDatum, n_max: int) -> ScanReport:
    """The verdict of every n in [2, n_max] that can be obstructed, keeping
    the obstructions, in increasing n.

    The candidates are the divisors n <= n_max of g_f = gcd(u_f - 1, v_f),
    where pi^f = u_f + v_f w over Z, for f = 1, ..., F - 1, and F is the
    least f with p^f >= 2 n_max^4. Then also p^ceil(F/2) >= 4: otherwise
    p <= 3 and F <= 2, so p^F <= 9 < 2 * 2^4. g_f is never 0, since the
    norm of pi^f is p^f, and no multiple of p divides it, since pi^f = 1
    mod p would make p^f = 1 mod p.

    Proof that every other n is unobstructed. The entries of pi^f - 1, as a
    matrix in the basis (1, w), are u_f - 1, v_f c, v_f and
    u_f - 1 + v_f delta, so pi^f = 1 mod n iff n | g_f, and g_f is also the
    gcd of the entries of sigma^f - I, a conjugate of that matrix. So
    ord_n(pi) | f iff n | g_f, and every n with ord_n(pi) < F is a
    candidate. An obstruction, red included, needs
    ord * I_ord(p) < |GL2(Z/nZ)| (test() compares the capped supply, and
    min(I, cap) < cap iff I < cap), and |GL2(Z/nZ)| < n^4 <= n_max^4.
    irred_count_capped's proof gives m * I_m(p) > p^m / 2 whenever
    p^ceil(m/2) >= 4, which holds for every m >= F. So ord >= F gives
    ord * I_ord(p) > p^ord / 2 >= p^F / 2 >= n_max^4, and n is not
    obstructed.

    The least f < F with n | g_f is ord_n(pi) itself, since ord | f iff
    n | g_f and ord <= f < F; each candidate is compared at that order.
    """
    _check_range("n_max", n_max, 2, TABLE_N_MAX)
    p = datum.p
    u, v, delta, c = pi(datum)
    u_f, v_f = u, v  # pi^f, from f = 1
    first_f = {}  # candidate n -> least f < F with n | g_f, that is ord_n(pi)
    f = 1
    while p**f < 2 * n_max**4:  # f < F
        divisors = [1]
        for q, e in factorize(math.gcd(u_f - 1, v_f)):
            divisors += [k * q**i for k in divisors for i in range(1, e + 1)
                         if k * q**i <= n_max]
        for n in divisors[1:]:
            first_f.setdefault(n, f)
        u_f, v_f = mul((u_f, v_f), (u, v), delta, c)
        f += 1
    hits = []
    for n in sorted(first_f):
        verdict = _compare(datum, n, first_f[n], gl2_order(factorize(n)))
        if verdict.classification is not Classification.NO_OBSTRUCTION:
            hits.append(verdict)
    return ScanReport(datum, tuple(hits))


def full_table(p: int, n_max: int) -> list[ScanReport]:
    """One ScanReport per admissible (a_p, b_p), in table row order."""
    if p > TABLE_P_MAX:
        raise InputError(f"p must be <= {TABLE_P_MAX}, got {p}")
    return [scan(datum, n_max) for datum in enumerate_data(p)]


class SupersingularCheck(namedtuple("SupersingularCheck",
                                   "orders num_primes_full irred_supply obstructed")):
    """Orders of the supersingular Frobenius elements mod p+1, one per
    admissible b (b=1, and b=2 if p = 3 mod 4), and the obstruction
    comparison at n = p + 1."""

    __slots__ = ()


def supersingular_check(p: int) -> SupersingularCheck:
    """For supersingular p > 3, the verdict at n = p + 1 for every
    admissible b: the residue degrees, and the full-image count of primes
    against the supply of irreducible polynomials of that degree.

    Every order is exactly 2. With a_p = 0, pi is a root of
    x^2 - a_p x + p, so pi^2 = -p, which is 1 mod p + 1; and pi is not
    1 mod p + 1, since its trace 0 is not 2 mod p + 1 >= 6. So the
    comparison is |GL2(Z/(p+1)Z)| / 2 primes against (p^2 - p) / 2
    irreducible quadratics, the same for every b.
    """
    if p <= 3:
        raise InputError(f"supersingular check requires p > 3, got {p}")
    if p + 1 > N_MAX:  # test() would reject n = p + 1; say so in terms of p
        raise InputError(f"n = p + 1 must be <= {N_MAX}, got p = {p}")
    bs = enumerate_b(p, 0)  # rejects a composite p
    v = _compare(FrobeniusDatum(p, 0, 1), p + 1, 2, gl2_order(factorize(p + 1)))
    return SupersingularCheck(
        orders=(2,) * len(bs),
        num_primes_full=v.num_primes,
        irred_supply=v.irred_supply,
        obstructed=v.classification is not Classification.NO_OBSTRUCTION,
    )


class CorollaryThreshold(namedtuple("CorollaryThreshold",
                                    "prime exact_lhs irred_supply bound_prime")):
    """Least supersingular-style threshold prime for a given adelic index:
    prime, the least p > 3 passing the exact group-order criterion;
    exact_lhs, the floor of |GL2(Z/(p+1)Z)| / (4 * index) at that prime;
    and bound_prime, the least p > 3 satisfying the
    (3/16 I)(p+1)^4 > p^2 - p bound."""

    __slots__ = ()


def corollary_threshold(index: int) -> CorollaryThreshold:
    """The least prime p > 3 where an adelic image of index `index` still
    forces more primes above p than irreducible quadratics:
    |GL2(Z/(p+1)Z)| > 4 * index * irred(2, p), and the least prime p > 3
    meeting the closed-form bound 3 (p+1)^4 > 16 * index * (p^2 - p).

    Proof that bound_prime <= prime. For p > 3, p + 1 is even, so
    |GL2(Z/(p+1)Z)| = (p+1)^4 * prod over q | p + 1 of (1 - 1/q^2)(1 - 1/q)
    <= (p+1)^4 * (3/4)(1/2), and irred(2, p) = (p^2 - p) / 2. So the exact
    criterion implies 3 (p+1)^4 / 8 > 2 * index * (p^2 - p), the bound.

    The bound holds at every integer from the least p >= 4 that meets it:
    the ratio 3 (p+1)^4 / (16 (p^2 - p)) increases for p >= 3, since its
    log-derivative 4/(p+1) - (2p-1)/(p^2-p) has the sign of 2p^2 - 5p + 1.
    Bisection finds that p at or below 4 * index + 4, which meets the
    bound: any p with 3p^2 >= 16 * index does, as (p+1)^4 > p^2 (p^2 - p).
    bound_prime is the least prime at or above it, and the exact criterion
    is tested prime by prime from there.
    """
    _check_range("index", index, 1, INDEX_MAX)
    low, high = 4, 4 * index + 4  # high meets the bound
    while low < high:
        mid = (low + high) // 2
        if 3 * (mid + 1) ** 4 > 16 * index * (mid * mid - mid):
            high = mid
        else:
            low = mid + 1
    bound_prime = next(filter(is_prime, itertools.count(low)))
    for p in filter(is_prime, itertools.count(bound_prime)):
        group, supply = gl2_order(factorize(p + 1)), irred_count(2, p)
        if group > 4 * index * supply:
            return CorollaryThreshold(p, group // (4 * index), supply, bound_prime)


class CurvePrimeStatus(enum.Enum):
    """A prime's outcome in a curve scan; its value is the words printed."""

    CONFIRMED = "CONFIRMED"  # every admissible b yields an obstruction
    CONDITIONAL = "CONDITIONAL"  # verdicts differ across b or need full image
    NONE = "NONE"  # no admissible b yields an obstruction
    SKIPPED_BAD_REDUCTION = "skipped (bad reduction)"
    SKIPPED_DIVIDES_N = "skipped (divides n)"


class CurvePrimeReport(namedtuple("CurvePrimeReport", "p a_p status verdicts")):
    """One prime of a curve scan: a_p is None and verdicts, one Verdict per
    admissible b, is empty when p is skipped."""

    __slots__ = ()


def essential_divisor_scan(
    curve: WeierstrassCurve, n: int, p_max: int
) -> list[CurvePrimeReport]:
    """For each prime p <= p_max of good reduction with p coprime to n,
    count points to get a_p, then test every admissible b_p.

    The endomorphism-order index of the actual curve is not computed, so
    an obstruction is CONFIRMED only when all admissible b agree; mixed
    verdicts (or verdicts that hold only under a surjective image) are
    CONDITIONAL. n is limited to N_MAX and factorized once per scan.
    """
    _check_range("n", n, 2, N_MAX)
    _check_range("p_max", p_max, 2, P_MAX)
    factors = factorize(n)
    group_order = gl2_order(factors)
    disc = curve.disc
    reports = []
    for p in primes_up_to(p_max):
        if n % p == 0 or disc % p == 0:
            status = (CurvePrimeStatus.SKIPPED_DIVIDES_N if n % p == 0
                      else CurvePrimeStatus.SKIPPED_BAD_REDUCTION)
            reports.append(CurvePrimeReport(p, None, status, ()))
            continue
        a_p = trace_of_frobenius(curve, p)
        data = [FrobeniusDatum(p, a_p, b) for b in enumerate_b(p, a_p)]
        verdicts = tuple(_compare(d, n, order_mod(pi(d), factors), group_order) for d in data)
        classes = {v.classification for v in verdicts}
        if classes == {Classification.OBSTRUCTION}:
            status = CurvePrimeStatus.CONFIRMED
        elif classes == {Classification.NO_OBSTRUCTION}:
            status = CurvePrimeStatus.NONE
        else:
            status = CurvePrimeStatus.CONDITIONAL
        reports.append(CurvePrimeReport(p, a_p, status, verdicts))
    return reports
