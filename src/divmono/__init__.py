"""Monogeneity obstructions for elliptic curve division fields.

Decides whether a prime p obstructs monogeneity of the n-torsion field of
an elliptic curve, from the reduction datum (p, a_p, b_p) alone, and scans
n-ranges to reproduce the obstruction tables.
"""

from .arith import (
    Factorization,
    factorize,
    gl2_order,
    irred_count,
    mobius,
)
from .curves import (
    WeierstrassCurve,
    count_points,
    daniels_t,
    family,
    invariants,
    is_semistable_certificate,
    semistable_s,
    trace_of_frobenius,
    uv,
)
from .errors import ArithmeticBug, InputError
from .frobenius import (
    FrobeniusDatum,
    admissible_traces,
    enumerate_b,
    enumerate_data,
    sigma,
)
from .gl2 import mat_mul, mat_pow, order_mod
from .obstruction import (
    Classification,
    CurvePrimeReport,
    CurvePrimeStatus,
    ImageAssumption,
    ScanReport,
    SupersingularCheck,
    Verdict,
    corollary_threshold,
    essential_divisor_scan,
    full_table,
    scan,
    supersingular_check,
    test,
)

__all__ = [
    "ArithmeticBug",
    "Classification",
    "CurvePrimeReport",
    "CurvePrimeStatus",
    "Factorization",
    "FrobeniusDatum",
    "ImageAssumption",
    "InputError",
    "ScanReport",
    "SupersingularCheck",
    "Verdict",
    "WeierstrassCurve",
    "admissible_traces",
    "corollary_threshold",
    "count_points",
    "daniels_t",
    "enumerate_b",
    "enumerate_data",
    "essential_divisor_scan",
    "factorize",
    "family",
    "full_table",
    "gl2_order",
    "invariants",
    "irred_count",
    "is_semistable_certificate",
    "mat_mul",
    "mat_pow",
    "mobius",
    "order_mod",
    "scan",
    "semistable_s",
    "sigma",
    "supersingular_check",
    "test",
    "trace_of_frobenius",
    "uv",
]

__version__ = "0.1.0"
