"""Commutative-algebra kernel: Laurent polynomials, integer normal forms,
rational-function coefficients and diagonalization over the univariate PID
they generate, and diagonalization over F_P[t^{±1}] at specialized points."""

from .laurent import (
    LaurentPolynomial,
    degree_spread,
    exact_divide,
    laurent_gcd,
    unit_normalize,
)
from .matrices import (
    Matrix,
    iter_minors,
    smith_normal_form_int,
)
from .modp import (
    ModPoly,
    diagonalize_mod_p,
    specialize,
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
    "exact_divide",
    "laurent_gcd",
    "unit_normalize",
    "Matrix",
    "iter_minors",
    "smith_normal_form_int",
    "ModPoly",
    "diagonalize_mod_p",
    "specialize",
    "RationalFunction",
    "UniPoly",
    "diagonalize_over_pid",
    "grade_substitute",
]
