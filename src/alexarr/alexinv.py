"""Alexander-type invariants of a presented group: elementary ideals, the
multivariable Alexander polynomial, and the zeroth higher-order degree by
two independent routes.

Route one takes the gcd of the next-to-maximal minors of the abelianized
Fox matrix A (m generator rows, q relator columns) and reads off its
degree spread.  It enumerates only the minors with one row deleted.  Fox's
fundamental formula gives sum_k A_kj * (x_k - 1) = 0 for every column j,
where x_k is the image of generator k in Z[H].  So for each set S of
m - 1 columns the minors with different deleted rows are tied together:

    det A[k^, S] * (x_i - 1) = +-det A[i^, S] * (x_k - 1).

Fix the last row i with x_i != 1 and let g = gcd_k (x_k - 1).  Then

    Delta = gcd_S ( det A[i^, S] * g / (x_i - 1) ).

Each quotient is exact: Z[H] is a UFD, and at every prime the minimum over
k of the valuations of det A[k^, S] is that of det A[i^, S] * g / (x_i - 1).
This divides the enumeration by m.  The division by the binomial x_i - 1
is synthetic, fiber by fiber, in O(terms + span); when g = 1 (the usual
case) it is taken from the minor itself, with no product.  When every
x_k = 1 (H trivial) the formula says nothing, and all minors of size
m - 1 are enumerated.  The full enumeration survives only as the oracle
in the tests.  The gcd stops at the first unit, and `iter_minors` visits
the column sets in a spread order, so an input with Delta = 1 stops after
a few minors.  Most of what the quotients share is a power of some
t_k - 1, which the gcd also takes out synthetically before its
coprimality certificate.

Route two localizes: every variable is rewritten as u_i * t, with u = 1
for one distinguished variable (the first, by default), and the module is
diagonalized over the PID K[t^{±1}], K the rational-function field in the
other u's; the free rank and the total t-degree of the torsion give the
answer.  `delta0_via_pid` replaces K by the prime field F_P, P = FIELD =
2^192 - 2^64 - 1, at one random point and diagonalizes once over
F_P[t^{±1}].  `delta0_via_pid_exact` keeps the exact arithmetic over K as
the oracle of the tests and the selftest.  The two routes agree, including
the infinite cases, and the tests enforce this on the whole corpus.

Error of the draw.  Let r be the rank over K of the substituted n x q
matrix, d the largest u-degree of a term once each u_i is shifted by its
least exponent over the matrix, and w the t-spread of all entries
together.  Specialization never raises the rank, so a free rank of zero is
never a false report.  The draw can move the answer only if it is a zero
of a nonzero polynomial in the u's with three factors:

- a nonzero t-coefficient of a nonzero r x r minor (else the rank drops),
  of u-degree at most r d;
- the leading and trailing t-coefficients of G, the gcd of the r x r
  minors mu_j (else the t-spread of G drops), at most r d each;
- the resultant in t of nu_1 and nu', where nu_j = mu_j / G are the
  cofactors and nu' is a fixed integer combination of them coprime to
  nu_1 (a pair of cofactors may share factors while the family is
  coprime), else specialization adds a common factor: a Sylvester matrix
  of at most 2 r w rows, each of u-degree at most r d.

So D = r d (3 + 2 r w), and by the Schwartz-Zippel lemma (Schwartz 1980;
Zippel 1979) a point uniform in (F_P^*)^(s-1) is bad with probability at
most D / (P - 1), provided P does not divide every coefficient of that
polynomial.  Under routes="both" the reported degree is the exact degree
route's, so a bad draw can only turn into a reported route disagreement,
never a wrong degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .foxcalc import AlexanderMatrix, alexander_matrix
from .groups import Presentation, abelianize
from .ringkit import (
    LaurentPolynomial,
    Matrix,
    degree_spread,
    diagonalize_mod_p,
    diagonalize_over_pid,
    grade_substitute,
    iter_minors,
    laurent_gcd,
    specialize,
)
from .ringkit.laurent import _binomial_quotient
from .ringkit.modp import FIELD


class InconsistentPresentationError(ValueError):
    """The localized module has no free summand; the presentation cannot
    come from a connected curve complement with the claimed meridians."""


@dataclass(frozen=True)
class Delta0:
    """Zeroth higher-order degree: a natural number or infinity."""

    finite: bool
    value: int | None = None

    @classmethod
    def of(cls, value: int) -> "Delta0":
        if value < 0:
            raise ValueError("degree must be nonnegative")
        return cls(True, value)

    def __str__(self):
        return str(self.value) if self.finite else "infinite"


DELTA0_INFINITE = Delta0(False, None)


def _coerce_matrix(source) -> AlexanderMatrix:
    if isinstance(source, AlexanderMatrix):
        return source
    if isinstance(source, Presentation):
        return alexander_matrix(source)
    raise TypeError("expected a Presentation or AlexanderMatrix")


def elementary_ideal_gens(A: AlexanderMatrix, i: int) -> list:
    """Generators of the i-th elementary ideal of the presented module.

    For an m x q presentation matrix these are the minors of size m - i,
    with the boundary conventions: the whole ring ([1]) when i >= m, the
    zero ideal ([]) when m - i > q.
    """
    if i < 0:
        raise ValueError("ideal index must be nonnegative")
    A = _coerce_matrix(A)
    m, q = A.rows, A.cols
    if i >= m:
        return [LaurentPolynomial.one(A.num_vars)]
    k = m - i
    if k > q:
        return []
    return list(iter_minors(A.matrix, k))


def alexander_polynomial(source) -> LaurentPolynomial:
    """Multivariable Alexander polynomial: gcd of the first elementary
    ideal, unit-normalized.  Zero when that ideal is the zero ideal.

    Only the minors with one row deleted are enumerated; the module
    docstring states why their gcd, scaled by g / (x_i - 1), is exact.
    """
    A = _coerce_matrix(source)
    m, q, s = A.rows, A.cols, A.num_vars
    if 1 >= m:
        return LaurentPolynomial.one(s)
    if m - 1 > q:
        return LaurentPolynomial.zero(s)
    one = LaurentPolynomial.one(s)
    binomials = [LaurentPolynomial.monomial(1, x) - one for x in A.ab.quotient_map]
    moving = [k for k, b in enumerate(binomials) if not b.is_zero()]
    if not moving:
        return laurent_gcd(iter_minors(A.matrix, m - 1))
    i = moving[-1]
    g = laurent_gcd(binomials)
    unscaled = g == one

    def scaled(minor: LaurentPolynomial) -> LaurentPolynomial:
        quotient = _binomial_quotient(minor if unscaled else minor * g,
                                      A.ab.quotient_map[i])
        if quotient is None:
            raise RuntimeError(
                f"Fox fundamental formula fails: x_{i + 1} - 1 does not divide "
                f"a minor with row {i + 1} deleted, times {g}"
            )
        return quotient

    rest = A.matrix.submatrix([k for k in range(m) if k != i], range(q))
    return laurent_gcd(scaled(minor) for minor in iter_minors(rest, m - 1))


def _delta0_of(delta: LaurentPolynomial) -> Delta0:
    if delta.is_zero():
        return DELTA0_INFINITE
    return Delta0.of(degree_spread(delta))


def delta0_via_degree(source) -> Delta0:
    """Degree route: infinite iff the first elementary ideal is zero,
    otherwise the degree spread of the Alexander polynomial."""
    return _delta0_of(alexander_polynomial(source))


def _substituted_matrix(A: AlexanderMatrix, distinguished: int) -> Matrix:
    return Matrix([[grade_substitute(p, distinguished) for p in row]
                   for row in A.matrix.entries], A.rows, A.cols)


def _localized_matrix(source, distinguished: int) -> AlexanderMatrix:
    A = _coerce_matrix(source)
    if A.num_vars < 1:
        raise InconsistentPresentationError(
            "the group has trivial torsion-free abelianization; no linking direction exists"
        )
    if not 0 <= distinguished < A.num_vars:
        raise ValueError("distinguished variable index out of range")
    return A


def _localized_degree(factors: list, free_rank: int) -> Delta0:
    """The degree read off the diagonalized localized module.

    The presented module is the relative first homology of the pair; for a
    curve-complement presentation it carries exactly one free summand, and
    the degree is the total t-degree of the torsion part.  Two or more free
    summands mean the unlocalized module already had positive rank, so the
    degree is infinite.  No free summand at all is reported as an
    inconsistency in the input presentation.
    """
    if free_rank >= 2:
        return DELTA0_INFINITE
    if free_rank == 0:
        raise InconsistentPresentationError(
            "localized module has no free summand; presentation is not "
            "compatible with a curve-complement deficiency"
        )
    return Delta0.of(sum(f.spread() for f in factors))


def delta0_via_pid_exact(source, distinguished: int = 0) -> Delta0:
    """Localized route in exact arithmetic over K = Q(u): the oracle of
    `delta0_via_pid`.  Coefficient growth in K makes it slow beyond small
    inputs."""
    A = _localized_matrix(source, distinguished)
    return _localized_degree(*diagonalize_over_pid(_substituted_matrix(A, distinguished)))


def delta0_via_pid(source, distinguished: int = 0) -> Delta0:
    """Localized route at one random point, diagonalized over F_P[t^{±1}].

    A term c * x^e of a Fox entry becomes c * prod_i u_i^(e_i) mod P in
    t-degree sum(e), with u = 1 for the distinguished variable and u_i
    uniform in F_P^* for the others; the module docstring bounds the error.
    """
    A = _localized_matrix(source, distinguished)
    rng = random.SystemRandom()  # os.urandom, not the seedable global state
    points = [1 if i == distinguished else rng.randrange(1, FIELD)
              for i in range(A.num_vars)]
    psi = [1] * A.num_vars
    M = Matrix([[specialize(p, psi, points) for p in row]
                for row in A.matrix.entries], A.rows, A.cols)
    return _localized_degree(*diagonalize_mod_p(M))


def characteristic_codim_flag(delta: LaurentPolynomial) -> bool:
    """True iff the Alexander polynomial is a nonzero integer constant,
    i.e. the first characteristic variety has codimension greater than one."""
    return delta.is_constant() and not delta.is_zero()


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of the invariants of one presentation."""

    alexander_poly: LaurentPolynomial
    delta0: Delta0
    delta0_degree_route: Delta0
    delta0_pid_route: Delta0 | None
    route_agreement: bool
    codim_gt_one: bool
    s: int
    num_gens: int
    num_relators: int
    warnings: tuple = field(default_factory=tuple)
    notes: tuple = field(default_factory=tuple)


def compute_invariants(p: Presentation, routes: str = "both") -> InvariantReport:
    """Run the full invariant pipeline on a presentation.

    routes: "degree", "pid", or "both".  With "both" the two independent
    computations of the degree are compared and the agreement recorded (a
    skipped localized route disagrees); a single route always agrees.
    """
    if routes not in ("degree", "pid", "both"):
        raise ValueError("routes must be one of degree, pid, both")
    ab = abelianize(p)
    A = alexander_matrix(p, ab)
    warnings = []
    notes = []
    if ab.torsion_detected:
        warnings.append(
            "abelianization has torsion; invariants use the torsion-free quotient"
        )
    if not ab.meridian_psi_ok:
        warnings.append(
            "a flagged meridian has linking number != 1 in the computed quotient"
        )

    delta = alexander_polynomial(A)
    d_degree = _delta0_of(delta) if routes != "pid" else None
    d_pid = None
    if routes != "degree":
        try:
            d_pid = delta0_via_pid(A)
        except InconsistentPresentationError as exc:
            warnings.append(str(exc))

    chosen = d_pid if routes == "pid" else d_degree
    agreement = routes != "both" or d_pid == d_degree

    codim = characteristic_codim_flag(delta)
    if codim:
        if ab.s == 1:
            notes.append(
                "one-variable Alexander polynomial is trivial: every "
                "higher-order degree vanishes, not just the zeroth"
            )
        notes.append(
            "Alexander polynomial is a nonzero constant: the first "
            "characteristic variety has codimension > 1 and delta_0 = 0"
        )

    return InvariantReport(
        alexander_poly=delta,
        delta0=chosen,
        delta0_degree_route=d_degree,
        delta0_pid_route=d_pid,
        route_agreement=agreement,
        codim_gt_one=codim,
        s=ab.s,
        num_gens=p.num_gens,
        num_relators=p.num_relators,
        warnings=tuple(warnings),
        notes=tuple(notes),
    )
