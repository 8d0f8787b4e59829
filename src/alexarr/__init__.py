"""Exact Alexander-type invariants of plane curve and line arrangement
complements: multivariable Alexander polynomials, the zeroth higher-order
degree by two independent routes, elementary ideals, combinatorial degree
bounds, and group presentations from real arrangement sweeps."""

from .alexinv import (
    DELTA0_INFINITE,
    Delta0,
    InconsistentPresentationError,
    InvariantReport,
    alexander_polynomial,
    characteristic_codim_flag,
    compute_invariants,
    delta0_via_degree,
    delta0_via_pid,
    elementary_ideal_gens,
)
from .arrangements import (
    ArrangementError,
    Line,
    classify_arrangement,
    combinatorial_bounds,
    curve_at_infinity_bound,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    parse_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from .foxcalc import (
    AlexanderMatrix,
    GroupRingElement,
    alexander_matrix,
    check_fundamental_identity,
    fox_derivative,
)
from .groups import (
    AbelianizationData,
    Presentation,
    PresentationError,
    Word,
    abelianize,
    free_reduce,
    parse_presentation,
    presentation,
    serialize_presentation,
)
from .ringkit import (
    LaurentPolynomial,
    Matrix,
    RationalFunction,
    UniPoly,
    degree_spread,
    diagonalize_over_pid,
    exact_divide,
    grade_substitute,
    laurent_gcd,
    smith_normal_form_int,
    unit_normalize,
)

__version__ = "0.1.0"
