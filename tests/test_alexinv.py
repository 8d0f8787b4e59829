"""Elementary ideals, Alexander polynomials, and the two degree routes."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from alexarr import alexinv
from alexarr.alexinv import (
    DELTA0_INFINITE,
    Delta0,
    InconsistentPresentationError,
    alexander_polynomial,
    characteristic_codim_flag,
    compute_invariants,
    delta0_via_degree,
    delta0_via_pid,
    delta0_via_pid_exact,
    elementary_ideal_gens,
)
from alexarr.arrangements import (
    Line,
    classify_arrangement,
    combinatorial_bounds,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from alexarr.foxcalc import alexander_matrix
from alexarr.groups import Word, parse_presentation, presentation
from alexarr.ringkit import LaurentPolynomial, degree_spread, laurent, laurent_gcd, unit_normalize
from alexarr.selftest import (
    HOPF_DSL,
    TREFOIL_DSL,
    equal_up_to_units,
    product_minus_one_power,
    single_var_minus_one_power,
)
from test_arrangements import random_arrangement


def hopf_matrix():
    return alexander_matrix(parse_presentation(HOPF_DSL))


def full_enumeration_polynomial(A):
    """Oracle for the degree route: the gcd of every minor of size m - 1,
    with no row restriction."""
    gens = elementary_ideal_gens(A, 1)
    if not gens:
        return LaurentPolynomial.zero(A.num_vars)
    return unit_normalize(laurent_gcd(gens))


@st.composite
def small_presentations(draw):
    """1-4 generators, 0-4 relators.  Commutators keep several variables
    alive (s >= 2), powers plant torsion, and random words cover s = 0, 1
    and the zero ideal."""
    m = draw(st.integers(1, 4))
    letter = st.sampled_from([x for i in range(1, m + 1) for x in (i, -i)])
    word = st.lists(letter, max_size=8)
    commutator = st.tuples(letter, letter).map(lambda ab: [ab[0], ab[1], -ab[0], -ab[1]])
    power = st.tuples(letter, st.integers(2, 3)).map(lambda xn: [xn[0]] * xn[1])
    relators = draw(st.lists(st.one_of(word, commutator, power), max_size=4))
    return presentation([f"x{i}" for i in range(m)], [Word(r) for r in relators])


# ----------------------------------------------------------------------
# elementary ideals


def test_first_ideal_of_hopf_is_size_one_minors():
    A = hopf_matrix()
    t1, t2 = (LaurentPolynomial.variable(i, 2) for i in range(2))
    assert elementary_ideal_gens(A, 1) == [1 - t2, t1 - 1]


def test_ideal_is_whole_ring_above_generator_count():
    A = hopf_matrix()
    assert elementary_ideal_gens(A, 2) == [LaurentPolynomial.one(2)]
    assert elementary_ideal_gens(A, 5) == [LaurentPolynomial.one(2)]


def test_ideal_is_zero_when_minors_do_not_exist():
    A = alexander_matrix(parse_presentation("gens: a b\n"))
    assert elementary_ideal_gens(A, 1) == []


def test_ideal_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        elementary_ideal_gens(hopf_matrix(), -1)


def test_ideals_are_nested():
    # E_i is generated by larger minors than E_{i+1}: every generator of E_i
    # lies in E_{i+1}; spot-check via divisibility of the respective gcds
    from alexarr.ringkit import exact_divide, laurent_gcd

    A = alexander_matrix(family_presentation("pencil", 4))
    g1 = laurent_gcd(elementary_ideal_gens(A, 1))
    g2 = laurent_gcd(elementary_ideal_gens(A, 2))
    assert exact_divide(g1, g2) is not None


# ----------------------------------------------------------------------
# Alexander polynomial


def test_pencil_polynomial_closed_form():
    for m in (3, 4, 5):
        delta = alexander_polynomial(family_presentation("pencil", m))
        assert equal_up_to_units(delta, product_minus_one_power(m, m - 2)), m


def test_near_pencil_polynomial_closed_form():
    for m in (3, 4, 5, 6):
        delta = alexander_polynomial(family_presentation("near-pencil", m))
        assert equal_up_to_units(delta, single_var_minus_one_power(m, m - 1, m - 2)), m


def test_two_generic_lines_polynomial_is_one():
    delta = alexander_polynomial(parse_presentation(HOPF_DSL))
    assert delta == LaurentPolynomial.one(2)


def test_trefoil_polynomial():
    delta = alexander_polynomial(parse_presentation(TREFOIL_DSL))
    t = LaurentPolynomial.variable(0, 1)
    assert equal_up_to_units(delta, t ** 2 - t + 1)


def test_free_groups_give_zero_polynomial():
    for m in (2, 3):
        delta = alexander_polynomial(family_presentation("parallel", m))
        assert delta.is_zero()


def test_single_generator_gives_unit_polynomial():
    delta = alexander_polynomial(parse_presentation("gens: a\n"))
    assert delta == LaurentPolynomial.one(1)


def test_row_restriction_matches_full_enumeration_on_corpus():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        A = alexander_matrix(case.build())
        assert alexander_polynomial(A) == full_enumeration_polynomial(A), case.name


@settings(max_examples=300, deadline=None)
@given(small_presentations())
def test_row_restriction_matches_full_enumeration_on_random_presentations(p):
    A = alexander_matrix(p)
    assert alexander_polynomial(A) == full_enumeration_polynomial(A)


def test_row_restriction_matches_full_enumeration_on_named_cases():
    # E_1 = 0 with no minors (free group), E_1 = 0 with every minor
    # vanishing (proportional columns), and a knot (s = 1, g = t - 1)
    proportional = "gens: a b c\nrel: a b a^-1 b^-1\nrel: a b a^-1 b^-1 a b a^-1 b^-1\n"
    for p, vanishes in (
        (family_presentation("parallel", 3), True),
        (parse_presentation(proportional), True),
        (parse_presentation(TREFOIL_DSL), False),
    ):
        A = alexander_matrix(p)
        delta = alexander_polynomial(A)
        assert delta == full_enumeration_polynomial(A), p
        assert delta.is_zero() == vanishes, p


# ----------------------------------------------------------------------
# degree routes


def test_degree_route_values():
    assert delta0_via_degree(family_presentation("pencil", 4)) == Delta0.of(8)
    assert delta0_via_degree(family_presentation("parallel", 2)) == DELTA0_INFINITE
    assert delta0_via_degree(parse_presentation(TREFOIL_DSL)) == Delta0.of(2)


def test_pid_route_values():
    assert delta0_via_pid(parse_presentation(HOPF_DSL)) == Delta0.of(0)
    assert delta0_via_pid(family_presentation("pencil", 3)) == Delta0.of(3)
    assert delta0_via_pid(family_presentation("parallel", 2)) == DELTA0_INFINITE


def test_pid_route_rejects_trivial_abelianization():
    # the quotient has rank zero, so no splitting direction exists
    p = parse_presentation("gens: a\nrel: a\n")
    with pytest.raises(InconsistentPresentationError):
        delta0_via_pid(p)


def test_pid_route_flags_wrong_deficiency():
    # unreachable from genuine derivative matrices (their columns always
    # annihilate the meridian-difference vector), so drive the guard with a
    # hand-built full-rank matrix
    from alexarr.foxcalc import AlexanderMatrix
    from alexarr.groups import abelianize
    from alexarr.ringkit import Matrix

    p = parse_presentation("gens: a\n")
    ab = abelianize(p)
    fake = AlexanderMatrix(Matrix([[LaurentPolynomial.one(1)]]), ab)
    with pytest.raises(InconsistentPresentationError):
        delta0_via_pid(fake)


def test_exact_pid_route_values():
    assert delta0_via_pid_exact(family_presentation("pencil", 3)) == Delta0.of(3)
    assert delta0_via_pid_exact(family_presentation("parallel", 2)) == DELTA0_INFINITE
    with pytest.raises(InconsistentPresentationError):
        delta0_via_pid_exact(parse_presentation("gens: a\nrel: a\n"))


# x=0, y=0, x=1, x=y, y=1 as (a, b, c) for a*x + b*y = c
DECONED_A3 = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (1, -1, 0), (0, 1, 1)]
A3_NODAL = DECONED_A3 + [(1, 3, 5), (3, 1, 7)]


def random_lines(rng, m):
    """m distinct lines with small integer coefficients."""
    seen = set()
    while len(seen) < m:
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-5, 5)
        if a or b:
            g = gcd(a, b, c) * (1 if (a or b) > 0 else -1)
            seen.add((a // g, b // g, c // g))
    return [Line.of(*abc) for abc in sorted(seen)]


def test_modular_pid_route_matches_degree_route_on_families():
    for family, ms in (("pencil", range(3, 10)), ("near-pencil", range(3, 10)),
                       ("generic", range(3, 9))):
        for m in ms:
            A = alexander_matrix(family_presentation(family, m))
            assert delta0_via_pid(A) == delta0_via_degree(A), (family, m)


def test_modular_pid_route_matches_degree_route_on_a3_inputs():
    for lines in (DECONED_A3, A3_NODAL):
        A = alexander_matrix(wiring_presentation([Line.of(*abc) for abc in lines])[0])
        assert delta0_via_pid(A) == delta0_via_degree(A) == Delta0.of(0)


def test_modular_pid_route_matches_degree_route_on_random_arrangements():
    # 3-7 lines: with the spread minor order a Δ = 1 input needs a few
    # minors, so the 200 arrangements take seconds, not minutes
    rng = random.Random(2024)
    seen = set()
    for _ in range(200):
        A = alexander_matrix(wiring_presentation(random_lines(rng, rng.randint(3, 7)))[0])
        d = delta0_via_degree(A)
        assert delta0_via_pid(A) == d
        seen.add(d)
    assert len(seen) >= 3


@st.composite
def few_direction_arrangements(draw):
    """3-7 distinct lines whose directions come from 2-4 drawn ones, so
    parallel classes of several lines, and parallel-only inputs, are common."""
    direction = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    directions = draw(st.lists(direction, min_size=2, max_size=4, unique=True))
    line = st.builds(lambda ab, c: Line.of(*ab, c), st.sampled_from(directions),
                     st.integers(-5, 5))
    return draw(st.lists(line, min_size=3, max_size=7, unique=True))


@settings(max_examples=100, deadline=None)
@given(few_direction_arrangements())
def test_generated_arrangements_agree_with_bounds_and_closed_forms(lines):
    data = intersect_arrangement(lines)
    label = classify_arrangement(data)
    report = compute_invariants(wiring_presentation(lines)[0])
    assert report.route_agreement
    assert unit_normalize(report.alexander_poly) == report.alexander_poly
    m = data.m
    if label.essential:
        best = combinatorial_bounds(data, label).best
        assert report.delta0.finite and report.delta0.value <= best <= m * (m - 2)
    verdict = vanishing_and_infinite_verdicts(label, data)
    if verdict is not None:
        assert report.delta0 == (
            DELTA0_INFINITE if verdict.value is None else Delta0.of(verdict.value))


def line_invariants(lines, labels):
    """Δ of the swept presentation, with the meridian of lines[j] as
    variable labels[j], and δ0 by the localized route."""
    pres, sweep = wiring_presentation(lines)
    A = alexander_matrix(pres)
    m = len(lines)
    # the meridians are a basis of H_1: each generator goes to a unit vector
    assert sorted(A.ab.quotient_map) == sorted(
        tuple(int(i == j) for j in range(m)) for i in range(m))
    label_of_var = [0] * m
    for g, image in enumerate(A.ab.quotient_map):
        label_of_var[image.index(1)] = labels[sweep.wire_lines[g]]
    terms = {}
    for e, c in alexander_polynomial(A).terms.items():
        f = [0] * m
        for i, x in enumerate(e):
            f[label_of_var[i]] = x
        terms[tuple(f)] = c
    return LaurentPolynomial(m, terms), delta0_via_pid(A)


@settings(max_examples=60, deadline=None)
@given(few_direction_arrangements(), st.data())
def test_affine_maps_and_reordering_keep_delta_and_delta0(lines, data):
    # an invertible affine map of C^2 is a homeomorphism of the complements
    # sending meridians to meridians, so Δ in the lines' own variables and
    # δ0 do not change; neither does the order the lines are listed in
    coeff = st.integers(-3, 3)
    p, q, r, s = data.draw(st.tuples(coeff, coeff, coeff, coeff).filter(
        lambda M: M[0] * M[3] != M[1] * M[2]))
    vx, vy = data.draw(st.tuples(coeff, coeff))
    order = data.draw(st.permutations(range(len(lines))))
    det = p * s - q * r

    def image(ln):
        # a x + b y = c under (x, y) -> M (x, y) + v, scaled by det M
        a, b = ln.a * s - ln.b * r, ln.b * p - ln.a * q
        return Line.of(a, b, ln.c * det + a * vx + b * vy)

    delta, d0 = line_invariants(lines, range(len(lines)))
    moved_delta, moved_d0 = line_invariants([image(lines[j]) for j in order], order)
    assert moved_d0 == d0
    assert equal_up_to_units(moved_delta, delta), (lines, (p, q, r, s), (vx, vy), order)


def test_degree_route_stops_after_few_minors(monkeypatch):
    # family generic m=7 has Δ = 1; the lexicographic column order consumed
    # 12,502 of its 54,264 deleted-row minors before the gcd became a unit
    consumed = []
    original = alexinv.iter_minors

    def counting(M, k):
        for minor in original(M, k):
            consumed.append(minor)
            yield minor

    monkeypatch.setattr(alexinv, "iter_minors", counting)
    delta = alexander_polynomial(family_presentation("generic", 7))
    assert delta == LaurentPolynomial.one(7)
    assert 0 < len(consumed) <= 50


def test_swept_twelve_line_arrangements_need_no_content_or_prs(monkeypatch):
    # the frontier's 12-line draws (tools/frontier.py): every gcd of the
    # degree route ends at the binomial part and the coprimality
    # certificate; before the gcd took the binomials out, every draw made
    # such calls (seed 2: 1,822 contents and 582 subresultant sequences)
    fallback = []
    for name in ("_content", "_subresultant_prs"):
        original = getattr(laurent, name)
        monkeypatch.setattr(laurent, name,
                            lambda *args, f=original, n=name: fallback.append(n) or f(*args))
    for seed in range(10):
        pres = wiring_presentation([Line.of(*abc) for abc in random_arrangement(seed, 12)])[0]
        report = compute_invariants(pres, "both")
        assert report.alexander_poly == LaurentPolynomial.one(report.s)
        assert report.route_agreement and report.delta0 == Delta0.of(0)
        assert fallback == [], seed


def transversal_lines(rng, m):
    """m lines with small integer coefficients, no two of them parallel.
    A drawn number of them pass through one lattice point, so that pencils,
    near-pencils and other points of high multiplicity are common."""
    px, py = rng.randint(-2, 2), rng.randint(-2, 2)
    through = rng.randint(0, m)
    lines = {}
    while len(lines) < m:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            c = a * px + b * py if len(lines) < through else rng.randint(-5, 5)
            line = Line.of(a, b, c)
            lines.setdefault(line.direction(), line)
    return list(lines.values())


def test_libgober_divisibility_on_transversal_arrangements():
    # Libgober (1982): for a curve transversal to the line at infinity, the
    # total-linking specialization Δ(t, ..., t) divides the product over the
    # affine points of multiplicity m_p >= 3 of (t^m_p - 1)^(m_p - 2), and
    # divides (t^m - 1)^(m - 2).  With parallel lines the curve meets
    # infinity in a multiple point and the affine product alone can fail.
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random(1982)
    nonunit = 0
    for _ in range(100):
        m = rng.randint(3, 7)
        lines = transversal_lines(rng, m)
        A = alexander_matrix(wiring_presentation(lines)[0])
        # meridians go to a basis of H_1, so t_i -> t is the total linking map
        assert sorted(A.ab.quotient_map) == sorted(
            tuple(int(i == j) for j in range(m)) for i in range(m))
        delta = alexander_polynomial(A)
        low = min(sum(e) for e in delta.terms)
        specialized = sympy.Poly(
            sum(c * t ** (sum(e) - low) for e, c in delta.terms.items()), t, domain="QQ")
        assert not specialized.is_zero, lines
        affine = sympy.Integer(1)
        for _, idx in intersect_arrangement(lines).points:
            if len(idx) >= 3:
                affine *= (t ** len(idx) - 1) ** (len(idx) - 2)
        for target in (affine, (t ** m - 1) ** (m - 2)):
            assert sympy.Poly(target, t, domain="QQ").rem(specialized).is_zero, lines
        nonunit += specialized.degree() > 0
    assert nonunit >= 15


def test_modular_pid_route_draws_fresh_points(monkeypatch):
    drawn = []
    original = alexinv.specialize

    def recording(p, psi, points):
        drawn.append(tuple(points))
        return original(p, psi, points)

    monkeypatch.setattr(alexinv, "specialize", recording)
    delta0_via_pid(family_presentation("pencil", 3), distinguished=1)
    first = set(drawn)
    drawn.clear()
    delta0_via_pid(family_presentation("pencil", 3), distinguished=1)
    # one point of F_P per run, a fresh one each run
    (point,) = first
    assert point[1] == 1 and all(0 < u < alexinv.FIELD for u in point)
    assert set(drawn) != first


def test_field_is_a_prime_whose_bound_beats_three_61_bit_draws():
    import sympy

    assert sympy.isprime(alexinv.FIELD)
    assert alexinv.FIELD - 1 > ((1 << 61) - 46) ** 3


def test_route_equivalence_across_corpus():
    from alexarr.selftest import corpus_cases

    checked = 0
    for case in corpus_cases():
        p = case.build()
        report = compute_invariants(p)
        assert report.route_agreement, case.name
        assert report.delta0_degree_route == delta0_via_degree(p), case.name
        checked += 1
    assert checked >= 12


@pytest.mark.parametrize("routes", ["degree", "pid", "both"])
def test_compute_invariants_computes_polynomial_once(monkeypatch, routes):
    calls = []
    original = alexinv.alexander_polynomial

    def counted(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(alexinv, "alexander_polynomial", counted)
    compute_invariants(family_presentation("near-pencil", 4), routes=routes)
    assert len(calls) == 1


def test_pid_route_distinguished_variable_invariance():
    for pres in (
        family_presentation("pencil", 3),
        family_presentation("near-pencil", 4),
        parse_presentation(HOPF_DSL),
    ):
        A = alexander_matrix(pres)
        values = {delta0_via_pid(A, distinguished=k) for k in range(A.num_vars)}
        assert len(values) == 1


def test_exact_pid_route_every_distinguished_variable_on_corpus():
    from alexarr.selftest import corpus_cases

    checked = 0
    for case in corpus_cases():
        A = alexander_matrix(case.build())
        if not 1 <= A.num_vars <= 4:
            continue
        want = delta0_via_pid(A)
        for k in range(A.num_vars):
            assert delta0_via_pid_exact(A, k) == want, (case.name, k)
            checked += 1
    assert checked >= 66


def test_presentation_invariance_family_vs_wiring():
    # same arrangement, two presentations: the polynomial agrees up to units
    # once the family's line variables are put in the sweep's wire order,
    # the degree exactly
    for family, m in (("pencil", 3), ("pencil", 4), ("near-pencil", 4), ("generic", 3)):
        fam = compute_invariants(family_presentation(family, m))
        wired, sweep = wiring_presentation(family_arrangement(family, m))
        wir = compute_invariants(wired)
        assert fam.delta0 == wir.delta0, (family, m)
        assert equal_up_to_units(
            wir.alexander_poly, fam.alexander_poly.permute_variables(sweep.wire_lines)
        ), (family, m)


def test_delta0_zero_iff_homogeneous_polynomial():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        report = compute_invariants(case.build())
        delta = report.alexander_poly
        zero_degree = report.delta0 == Delta0.of(0)
        homogeneous_nonzero = (not delta.is_zero()) and degree_spread(delta) == 0
        assert zero_degree == homogeneous_nonzero, case.name


# ----------------------------------------------------------------------
# codimension flag


def test_codim_flag_examples():
    t = LaurentPolynomial.variable(0, 3)
    prod = LaurentPolynomial.monomial(1, (1, 1, 1))
    assert characteristic_codim_flag(LaurentPolynomial.one(3))
    assert characteristic_codim_flag(LaurentPolynomial.constant(5, 3))
    assert not characteristic_codim_flag(prod - 1)
    assert not characteristic_codim_flag(LaurentPolynomial.zero(3))
    assert not characteristic_codim_flag(t - 1)


def test_codim_flag_forces_zero_degree():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        report = compute_invariants(case.build())
        if report.codim_gt_one:
            assert report.delta0 == Delta0.of(0), case.name


def test_torsion_presentation_warns_but_computes():
    p = parse_presentation("gens: a b\nrel: a^2 b^-2\n")
    report = compute_invariants(p)
    assert any("torsion" in w for w in report.warnings)


def test_meridian_linking_mismatch_warns():
    # both flagged as meridians, but the quotient sends b to -1
    p = parse_presentation("gens: a b\nrel: a b\n")
    report = compute_invariants(p)
    assert any("linking number" in w for w in report.warnings)


def test_single_component_constant_polynomial_note():
    # one variable and trivial polynomial: every higher order vanishes
    report = compute_invariants(parse_presentation("gens: a\n"))
    assert report.s == 1 and report.codim_gt_one
    assert any("every" in n and "vanishes" in n for n in report.notes)


def test_report_fields_for_pencil():
    report = compute_invariants(family_presentation("pencil", 3))
    assert report.s == 3
    assert report.num_gens == 3 and report.num_relators == 2
    assert str(report.delta0) == "3"
    assert not report.codim_gt_one
    assert unit_normalize(report.alexander_poly) == report.alexander_poly
