import math

import pytest

from divmono.frobenius import enumerate_data
from divmono.obstruction import ImageAssumption, test as obstruction_test

GOLDEN_PRIMES = (2, 3, 5, 7, 11)
N_MAX = 999


@pytest.fixture(scope="session")
def all_verdicts():
    """Every verdict for every admissible (a_p, b_p) row of the five table
    primes and every n <= 999 coprime to p, including non-obstructions.

    Computed once per session; the golden-table equality test and the
    negative control both read from this.
    """
    out = {}
    for p in GOLDEN_PRIMES:
        for datum in enumerate_data(p):
            row = {}
            for n in range(2, N_MAX + 1):
                if math.gcd(n, p) != 1:
                    continue
                row[n] = obstruction_test(datum, n, ImageAssumption.FULL_GL2)
            out[(p, datum.a_p, datum.b_p)] = row
    return out
