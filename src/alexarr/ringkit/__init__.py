"""Exact commutative-algebra kernel: Laurent polynomials, integer normal
forms, rational-function coefficients, and diagonalization over the
univariate PID they generate."""

from .laurent import (
    LaurentPolynomial,
    degree_spread,
    divides,
    exact_divide,
    laurent_gcd,
    unit_normalize,
)
from .matrices import (
    Matrix,
    iter_minors,
    smith_normal_form_int,
)
from .ratfunc import (
    RationalFunction,
    UniPoly,
    diagonalize_over_pid,
    grade_substitute,
)

__all__ = [
    "LaurentPolynomial",
    "degree_spread",
    "divides",
    "exact_divide",
    "laurent_gcd",
    "unit_normalize",
    "Matrix",
    "iter_minors",
    "smith_normal_form_int",
    "RationalFunction",
    "UniPoly",
    "diagonalize_over_pid",
    "grade_substitute",
]
