"""Bundled verification corpus: family and swept presentations with known
invariants, the curve-at-infinity bound table, and the two-route degree
comparison across everything, with the modular localized route checked
against its exact oracle on every corpus case.

The corpus doubles as the data source for the acceptance test suite and
for the ``selftest`` CLI command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .alexinv import (
    DELTA0_INFINITE,
    Delta0,
    InconsistentPresentationError,
    compute_invariants,
    delta0_via_pid,
    delta0_via_pid_exact,
)
from .arrangements import (
    Line,
    classify_arrangement,
    combinatorial_bounds,
    curve_bound_from_counts,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from .groups import Presentation, parse_presentation
from .ringkit import LaurentPolynomial, unit_normalize


def product_minus_one_power(m: int, power: int) -> LaurentPolynomial:
    """(t_1 ... t_m - 1)^power in m variables."""
    prod = LaurentPolynomial.monomial(1, (1,) * m)
    return (prod - LaurentPolynomial.one(m)) ** power


def single_var_minus_one_power(m: int, var: int, power: int) -> LaurentPolynomial:
    return (
        LaurentPolynomial.variable(var, m) - LaurentPolynomial.one(m)
    ) ** power


def equal_up_to_units(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    return unit_normalize(a) == unit_normalize(b)


HOPF_DSL = "gens: a b\nrel: a b a^-1 b^-1\n"
TREFOIL_DSL = "gens: a b\nrel: a b a b^-1 a^-1 b^-1\n"


def nodal_transversal_arrangement() -> list:
    """Pencil of three lines through the origin plus y = 2x + 1, which meets
    each of them in a separate double point."""
    return [
        Line.of(0, 1, 0),
        Line.of(1, -1, 0),
        Line.of(1, 1, 0),
        Line.of(2, -1, -1),
    ]


def two_parallel_pairs_arrangement() -> list:
    return [Line.of(0, 1, 0), Line.of(0, 1, 1), Line.of(1, 0, 0), Line.of(1, 0, 1)]


@dataclass(frozen=True)
class CorpusCase:
    """One presentation with everything known about it."""

    name: str
    # -> (presentation, wire order): the wire order is None unless the case
    # is swept, and then variable i is the meridian of input line
    # wire_order[i]
    present: Callable[[], tuple]
    delta0: Delta0
    # expected polynomial up to units; for an arrangement, variable j is the
    # meridian of input line j
    delta_poly: Callable[[], LaurentPolynomial] | None = None
    delta_constant: bool = False
    # -> the swept lines, for a swept case; its bound pipeline is checked too
    arrangement: Callable[[], list] | None = None

    def build(self) -> Presentation:
        return self.present()[0]


def _swept(lines: list) -> tuple:
    pres, sweep = wiring_presentation(lines)
    return pres, sweep.wire_lines


def _expectation(family: str, m: int) -> dict:
    """The closed forms for a family's m lines: delta0, plus either the
    polynomial up to units or the flag that it is a nonzero constant."""
    if family == "parallel":  # free groups
        return {"delta0": DELTA0_INFINITE if m > 1 else Delta0.of(0)}
    if family == "pencil":
        return {"delta0": Delta0.of(m * (m - 2)),
                "delta_poly": lambda: product_minus_one_power(m, m - 2)}
    if family == "near-pencil":  # the transversal is the last family generator
        return {"delta0": Delta0.of(m - 2),
                "delta_poly": lambda: single_var_minus_one_power(m, m - 1, m - 2)}
    # generic position: abelian groups, constant polynomial
    return {"delta0": Delta0.of(0), "delta_constant": True}


def _family_case(family: str, m: int) -> CorpusCase:
    return CorpusCase(
        name=f"family-{family}-{m}",
        present=lambda: (family_presentation(family, m), None),
        **_expectation(family, m),
    )


def _swept_case(name: str, arrangement: Callable[[], list], delta0: Delta0,
                **kw) -> CorpusCase:
    return CorpusCase(
        name=name,
        present=lambda: _swept(arrangement()),
        delta0=delta0,
        arrangement=arrangement,
        **kw,
    )


def _wiring_case(family: str, m: int) -> CorpusCase:
    return _swept_case(
        f"wiring-{family}-{m}", lambda: family_arrangement(family, m), **_expectation(family, m)
    )


def corpus_cases() -> list:
    both = (_family_case, _wiring_case)
    return [
        _family_case("parallel", 1),
        *(make("parallel", m) for m in (2, 3) for make in both),
        *(_family_case("pencil", m) for m in (3, 4, 5, 6)),
        *(_wiring_case("pencil", m) for m in (3, 4, 5)),
        *(make("near-pencil", m) for m in (3, 4, 5, 6) for make in both),
        *(_family_case("generic", m) for m in (2, 3, 4, 5)),
        *(_wiring_case("generic", m) for m in (3, 4)),
        # arrangements outside the closed-form families
        _swept_case("wiring-nodal-transversal-4", nodal_transversal_arrangement,
                    Delta0.of(0), delta_constant=True),
        _swept_case("wiring-two-parallel-pairs-4", two_parallel_pairs_arrangement,
                    Delta0.of(0), delta_constant=True),
        # user-style presentations
        CorpusCase("dsl-hopf", lambda: (parse_presentation(HOPF_DSL), None),
                   Delta0.of(0), delta_constant=True),
        CorpusCase(
            "dsl-trefoil",
            lambda: (parse_presentation(TREFOIL_DSL), None),
            Delta0.of(2),
            delta_poly=lambda: (
                LaurentPolynomial.variable(0, 1) ** 2
                - LaurentPolynomial.variable(0, 1)
                + LaurentPolynomial.one(1)
            ),
        ),
    ]


PERMUTATION_CASE_NAMES = (
    "family-pencil-3",
    "family-near-pencil-4",
    "family-generic-3",
    "dsl-hopf",
)


def check_case(case: CorpusCase) -> list:
    pres, wire_order = case.present()
    report = compute_invariants(pres, routes="both")
    try:
        exact = delta0_via_pid_exact(pres)
    except InconsistentPresentationError:
        exact = None
    problems = []
    if report.delta0_pid_route != exact:
        problems.append(
            f"modular localized route {report.delta0_pid_route} != exact {exact}"
        )
    if not report.route_agreement:
        problems.append(
            f"route disagreement: degree={report.delta0_degree_route} "
            f"pid={report.delta0_pid_route}"
        )
    if report.delta0 != case.delta0:
        problems.append(f"delta0={report.delta0}, expected {case.delta0}")
    if case.delta_poly is not None:
        expected = case.delta_poly()
        if wire_order is not None:
            expected = expected.permute_variables(wire_order)
        if not equal_up_to_units(report.alexander_poly, expected):
            problems.append(
                f"polynomial {report.alexander_poly} != expected {expected} (up to units)"
            )
    if case.delta_constant and not (
        report.alexander_poly.is_constant() and not report.alexander_poly.is_zero()
    ):
        problems.append(f"polynomial {report.alexander_poly} is not a nonzero constant")
    return problems


def check_permutation_invariance(case: CorpusCase) -> list:
    """The localized route must not depend on which variable splits off."""
    pres = case.build()
    from .foxcalc import alexander_matrix

    A = alexander_matrix(pres)
    values = {str(delta0_via_pid(A, distinguished=k)) for k in range(A.num_vars)}
    if len(values) == 1:
        return []
    return [f"values differ across distinguished variables: {sorted(values)}"]


def check_bound_pipeline(lines: list) -> list:
    """Swept arrangements: classification, bounds, closed forms, and the
    computed degree must all be mutually consistent."""
    data = intersect_arrangement(lines)
    label = classify_arrangement(data)
    pres, _ = wiring_presentation(lines)
    report = compute_invariants(pres)
    problems = []
    m = data.m
    verdict = vanishing_and_infinite_verdicts(label, data)
    if label.essential:
        bounds = combinatorial_bounds(data, label)
        if bounds.best > bounds.global_bound:
            problems.append("best bound exceeds global bound")
        if report.delta0.finite and report.delta0.value > bounds.best:
            problems.append(
                f"computed delta0 {report.delta0} exceeds best bound {bounds.best}"
            )
        if not report.delta0.finite:
            problems.append("essential arrangement computed an infinite degree")
        if m >= 3 and bounds.best == m * (m - 2) and label.label != "Pencil":
            problems.append("best bound attains the cap but label is not Pencil")
    if verdict is not None:
        expected = DELTA0_INFINITE if verdict.value is None else Delta0.of(verdict.value)
        if report.delta0 != expected:
            problems.append(
                f"closed form {verdict.value} != computed {report.delta0}"
            )
    return problems


def check_curve_bound_table() -> list:
    """Bound table over small degrees: the intermediate value, the cap, and
    the equality at r = m - 1."""
    problems = []
    for m in range(2, 7):
        for r in range(1, m + 1):
            tangents = m - r
            if tangents < 0 or r - tangents < 0:
                continue
            rep = curve_bound_from_counts(m, r, tangents)
            transversal = r - tangents
            expect_hold = m == 2 or transversal >= 1
            if rep.hypotheses_hold != expect_hold:
                problems.append(f"(m={m},r={r}): hypothesis flag wrong")
                continue
            if not rep.hypotheses_hold:
                if rep.bound is not None:
                    problems.append(f"(m={m},r={r}): bound asserted without hypotheses")
                continue
            if r <= m - 1:
                want = m * m - 3 * m + r + 1
                if rep.intermediate != want:
                    problems.append(f"(m={m},r={r}): intermediate {rep.intermediate} != {want}")
                if want > m * (m - 2):
                    problems.append(f"(m={m},r={r}): intermediate exceeds cap")
                if r == m - 1 and want != m * (m - 2):
                    problems.append(f"(m={m},r={r}): no equality at r = m-1")
            else:
                if rep.bound != m * (m - 2):
                    problems.append(f"(m={m},r={r}): general position bound wrong")
    return problems


def run_selftest(name_filter: str | None = None, cases: Iterable[CorpusCase] | None = None,
                 emit: Callable[[str], None] = print) -> tuple:
    """Run the whole corpus, emitting one line per check, with its seconds,
    as soon as the check finishes.  A check fails when it returns problems
    or raises; the exception is then its detail.  Returns (passed, failed);
    when the filter matches no check, (0, 0) with nothing emitted.

    The filter selects a case's checks by the case's name, a pipeline
    check by its own name."""
    cases = corpus_cases() if cases is None else list(cases)

    def selected(name: str) -> bool:
        return not name_filter or name_filter in name

    checks = []
    for case in cases:
        if selected(case.name):
            checks.append((case.name, partial(check_case, case)))
            if case.name in PERMUTATION_CASE_NAMES:
                checks.append((f"{case.name}-distinguished-variable",
                               partial(check_permutation_invariance, case)))
    for case in cases:
        name = "pipeline-" + case.name.removeprefix("wiring-")
        if case.arrangement is not None and selected(name):
            checks.append((name, lambda arrangement=case.arrangement:
                           check_bound_pipeline(arrangement())))
    if selected("curve-bound-table"):
        checks.append(("curve-bound-table", check_curve_bound_table))
    if not checks:
        return 0, 0
    failed = 0
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            problems = check()
        except Exception as exc:  # a check must never stop the run
            problems = [f"exception: {exc}"]
        seconds = time.perf_counter() - t0
        failed += bool(problems)
        status, detail = ("FAIL", f"  [{'; '.join(problems)}]") if problems else ("ok", "")
        emit(f"{status:4s} {name} ({seconds:.2f}s){detail}")
    passed = len(checks) - failed
    emit(f"selftest: {passed} passed, {failed} failed")
    return passed, failed
