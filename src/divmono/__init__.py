"""Monogeneity obstructions for elliptic curve division fields.

Decides whether a prime p obstructs monogeneity of the n-torsion field of
an elliptic curve, from the reduction datum (p, a_p, b_p) alone, and scans
n-ranges to reproduce the obstruction tables. The API is the modules:
`from divmono.obstruction import test`.
"""

__version__ = "0.1.0"
