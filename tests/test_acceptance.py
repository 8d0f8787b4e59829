"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance (all the
values here are exact integers or exact polynomial identities) and prints
one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they happen.
"""

import random
import time
from contextlib import contextmanager

from alexarr.alexinv import (
    DELTA0_INFINITE,
    Delta0,
    compute_invariants,
    delta0_via_degree,
    delta0_via_pid,
    elementary_ideal_gens,
)
from alexarr.alexinv import _substituted_matrix
from alexarr.arrangements import (
    classify_arrangement,
    combinatorial_bounds,
    curve_at_infinity_bound,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from alexarr.foxcalc import alexander_matrix, check_fundamental_identity
from alexarr.groups import Word
from alexarr.ringkit import (
    LaurentPolynomial,
    Matrix,
    degree_spread,
    diagonalize_over_pid,
    exact_divide,
    laurent_gcd,
    smith_normal_form_int,
)
from alexarr.selftest import (
    corpus_cases,
    equal_up_to_units,
    nodal_transversal_arrangement,
    product_minus_one_power,
    run_selftest,
    single_var_minus_one_power,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_pencil_values():
    with criterion(1, "pencil values, family and wiring"):
        for m in (3, 4, 5):
            expected_poly = product_minus_one_power(m, m - 2)
            expected_d0 = Delta0.of(m * (m - 2))

            t0 = time.time()
            fam = compute_invariants(family_presentation("pencil", m))
            assert fam.delta0 == expected_d0
            assert fam.route_agreement
            assert equal_up_to_units(fam.alexander_poly, expected_poly)
            assert time.time() - t0 <= 30.0

            t0 = time.time()
            pres, sweep = wiring_presentation(family_arrangement("pencil", m))
            wir = compute_invariants(pres)
            assert wir.delta0 == expected_d0
            assert wir.route_agreement
            # variable i is the meridian of input line sweep.wire_lines[i]
            assert equal_up_to_units(
                wir.alexander_poly, expected_poly.permute_variables(sweep.wire_lines)
            )
            assert time.time() - t0 <= 30.0


def test_criterion_2_near_pencil_values():
    with criterion(2, "near-pencil values and transversal tube bound"):
        for m in (3, 4, 5, 6):
            expected_poly = single_var_minus_one_power(m, m - 1, m - 2)
            fam = compute_invariants(family_presentation("near-pencil", m))
            assert fam.delta0 == Delta0.of(m - 2)
            assert equal_up_to_units(fam.alexander_poly, expected_poly)

            pres, sweep = wiring_presentation(family_arrangement("near-pencil", m))
            wir = compute_invariants(pres)
            assert wir.delta0 == Delta0.of(m - 2)
            assert equal_up_to_units(
                wir.alexander_poly, expected_poly.permute_variables(sweep.wire_lines)
            )
            # the surviving variable is the transversal line's, by identity:
            # the transversal is the last input line, its variable is its
            # wire position
            pos = sweep.wire_lines.index(m - 1)
            assert equal_up_to_units(
                wir.alexander_poly, single_var_minus_one_power(m, pos, m - 2)
            )

            data = intersect_arrangement(family_arrangement("near-pencil", m))
            rep = combinatorial_bounds(data)
            transversal = [lb for lb in rep.line_bounds if lb.parallel_class_size == 1]
            assert len(transversal) == 1
            assert transversal[0].bound == m - 2
            assert rep.best == m - 2


def test_criterion_3_parallel_lines():
    with criterion(3, "parallel arrangements are infinite, single line is 0"):
        for m in (2, 3):
            pres = family_presentation("parallel", m)
            A = alexander_matrix(pres)
            assert delta0_via_degree(A) == DELTA0_INFINITE
            assert delta0_via_pid(A) == DELTA0_INFINITE
            # the two structural reasons behind the verdicts
            assert elementary_ideal_gens(A, 1) == []
            _, free_rank = diagonalize_over_pid(_substituted_matrix(A, 0))
            assert free_rank == m >= 2
        single = compute_invariants(family_presentation("parallel", 1))
        assert single.delta0 == Delta0.of(0)


def test_criterion_4_transversal_line_vanishing():
    with criterion(4, "transversal-line vanishing detector and routes"):
        lines = nodal_transversal_arrangement()
        data = intersect_arrangement(lines)
        label = classify_arrangement(data)
        assert label.label == "HasNodalTransversalLine"
        verdict = vanishing_and_infinite_verdicts(label, data)
        assert verdict is not None
        assert verdict.value == 0 and verdict.all_n
        assert verdict.statement  # the human-readable justification
        pres, _ = wiring_presentation(lines)
        A = alexander_matrix(pres)
        assert delta0_via_degree(A) == Delta0.of(0)
        assert delta0_via_pid(A) == Delta0.of(0)


def test_criterion_5_generic_position():
    with criterion(5, "generic arrangements: constant polynomial"):
        for m in (3, 4):
            for pres in (
                family_presentation("generic", m),
                wiring_presentation(family_arrangement("generic", m))[0],
            ):
                rep = compute_invariants(pres)
                assert rep.alexander_poly.is_constant()
                assert not rep.alexander_poly.is_zero()
                assert rep.codim_gt_one
                assert rep.delta0 == Delta0.of(0)


def test_criterion_6_route_equivalence():
    with criterion(6, "route equivalence across the corpus"):
        cases = corpus_cases()
        assert len(cases) >= 12
        infinite_seen = 0
        for case in cases:
            rep = compute_invariants(case.build(), routes="both")
            assert rep.route_agreement, case.name
            if not rep.delta0.finite:
                infinite_seen += 1
        assert infinite_seen >= 2
        # invariance under the choice of distinguished meridian variable
        for case in cases:
            pres = case.build()
            A = alexander_matrix(pres)
            if A.num_vars < 2 or A.num_vars > 4:
                continue
            values = {delta0_via_pid(A, distinguished=k) for k in range(A.num_vars)}
            assert len(values) == 1, case.name


def test_criterion_7_curve_at_infinity_bounds():
    with criterion(7, "curve-at-infinity bound table"):
        for m in range(2, 7):
            for r in range(1, m):
                tangents = m - r
                if tangents < 0 or r - tangents < 0:
                    continue
                flags = [True] * tangents + [False] * (r - tangents)
                rep = curve_at_infinity_bound(m, r, flags)
                if not rep.hypotheses_hold:
                    continue
                assert rep.intermediate == m * m - 3 * m + r + 1
                assert rep.intermediate <= m * (m - 2)
                if r == m - 1:
                    assert rep.intermediate == m * (m - 2)
        assert curve_at_infinity_bound(4, 3, [True, False, False]).bound == 8
        assert curve_at_infinity_bound(5, 4, [True, False, False, False]).bound == 15


def test_criterion_8a_fox_identity_1000_words():
    with criterion("8a", "fundamental identity on 1000 random words"):
        rng = random.Random(20240801)
        failures = 0
        for _ in range(1000):
            n = rng.randint(0, 12)
            letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(n)]
            if not check_fundamental_identity(Word(letters), 3):
                failures += 1
        assert failures == 0


def test_criterion_8b_snf_200_matrices():
    with criterion("8b", "Smith normal form on 200 random matrices"):
        rng = random.Random(20240802)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Matrix(
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            )
            d, u, v = smith_normal_form_int(m)
            assert (u @ m @ v).entries == d.entries
            diag = d.diagonal()
            for i in range(len(diag) - 1):
                assert diag[i] >= 0
                if diag[i] == 0:
                    assert diag[i + 1] == 0
                elif diag[i + 1]:
                    assert diag[i + 1] % diag[i] == 0
            if rows == cols:
                prod = 1
                for x in diag:
                    prod *= x
                assert abs(m.determinant()) == prod


def _random_poly(rng, num_vars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-2, 3) for _ in range(num_vars))
        terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
    return LaurentPolynomial(num_vars, terms)


def test_criterion_8c_degree_and_gcd_500_pairs():
    with criterion("8c", "degree multiplicativity and gcd divisibility, 500 pairs"):
        rng = random.Random(20240803)
        done = 0
        while done < 500:
            n = rng.randint(1, 3)
            p = _random_poly(rng, n)
            q = _random_poly(rng, n)
            if p.is_zero() or q.is_zero():
                continue
            assert degree_spread(p * q) == degree_spread(p) + degree_spread(q)
            g = laurent_gcd([p, q])
            assert exact_divide(p, g) is not None and exact_divide(q, g) is not None
            done += 1


def test_criterion_8d_selftest_under_five_minutes():
    with criterion("8d", "full selftest within the time budget"):
        t0 = time.time()
        passed, failed = run_selftest(emit=lambda s: None)
        elapsed = time.time() - t0
        assert failed == 0
        assert passed >= 40
        assert elapsed <= 300.0
