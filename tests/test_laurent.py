"""Laurent polynomial kernel: arithmetic, degree, exact division, gcd."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from alexarr.ringkit import (
    LaurentPolynomial,
    degree_spread,
    exact_divide,
    laurent_gcd,
    unit_normalize,
)
from alexarr.ringkit import laurent
from alexarr.ringkit.laurent import (
    _binomial_quotient,
    _gcd_free_of,
    _heuristic_gcd,
    _poly_gcd,
    _poly_part,
    _specialized_coeffs,
)


def lp(num_vars, terms):
    return LaurentPolynomial(num_vars, terms)


def var(i, n=2):
    return LaurentPolynomial.variable(i, n)


def random_poly(rng, num_vars, max_terms=4, exp_range=(-2, 3), coeff_range=(-5, 5)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(*exp_range) for _ in range(num_vars))
        c = rng.randint(*coeff_range)
        terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial(num_vars, terms)


# ----------------------------------------------------------------------
# construction and arithmetic


def test_zero_coefficients_pruned():
    p = lp(1, {(0,): 3, (1,): 0})
    assert p.terms == {(0,): 3}


def test_truth_value_is_nonzero():
    assert not LaurentPolynomial.zero(2)
    assert not (var(0) - var(0))
    assert LaurentPolynomial.one(0)
    assert var(1) - 1


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        lp(2, {(1,): 1})


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        var(0, 2) * LaurentPolynomial.variable(0, 3)


def test_difference_of_squares():
    t1 = var(0)
    assert (t1 - 1) * (t1 + 1) == t1 ** 2 - 1


def test_multiplication_by_zero_absorbs():
    p = (var(0) - 1) * (var(1) + 3)
    assert (p * LaurentPolynomial.zero(2)).is_zero()


def test_two_factor_expansion():
    t1, t2 = var(0), var(1)
    expected = lp(2, {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})
    assert (t1 - 1) * (t2 - 1) == expected


def test_negative_power_of_unit_monomial():
    m = LaurentPolynomial.monomial(-1, (1, 2))
    inv = m ** -1
    assert m * inv == LaurentPolynomial.one(2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_axioms_on_random_samples(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    n = rng.randint(0, 3)
    p = random_poly(rng, n)
    q = random_poly(rng, n)
    r = random_poly(rng, n)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_no_zero_divisors_on_random_samples(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    n = rng.randint(1, 3)
    p = random_poly(rng, n)
    q = random_poly(rng, n)
    if not p.is_zero() and not q.is_zero():
        assert not (p * q).is_zero()


def assert_clean(p):
    """p holds what the checking constructor would build from its terms."""
    assert p == LaurentPolynomial(p.num_vars, dict(p.terms))
    assert all(p.terms.values())
    assert all(len(e) == p.num_vars for e in p.terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_results_are_clean(data):
    # +, -, unary -, * and shift wrap their term dicts unscanned; cancelling
    # inputs (q - q, p * -1 + p) must still leave no zero coefficient
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    n = rng.randint(0, 3)
    p = random_poly(rng, n)
    q = random_poly(rng, n)
    k = rng.choice([-3, -1, 1, 2, 0])
    offsets = tuple(rng.randint(-3, 3) for _ in range(n))
    for result in (p + q, p + (-p), p + k, k + p, p - q, q - q, p - k, k - p, -p,
                   p * q, p * k, k * p, p * -1 + p, (p - q) * (p + q), p.shift(offsets)):
        assert_clean(result)
        assert result.num_vars == n


# ----------------------------------------------------------------------
# degree spread


def test_degree_spread_examples():
    t1, t2, t3 = (LaurentPolynomial.variable(i, 3) for i in range(3))
    assert degree_spread(t1 * t2 * t3 - 1) == 3
    assert degree_spread(LaurentPolynomial.monomial(5, (2, -1))) == 0
    p = (var(0) - 1) * (var(1) - 1)
    assert degree_spread(p) == 2


def test_degree_spread_of_zero_raises():
    with pytest.raises(ValueError):
        degree_spread(LaurentPolynomial.zero(2))


def test_degree_spread_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        if p.is_zero() or q.is_zero():
            continue
        assert degree_spread(p * q) == degree_spread(p) + degree_spread(q)


# ----------------------------------------------------------------------
# exact division


def test_exact_divide_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        d = random_poly(rng, n)
        q = random_poly(rng, n)
        if d.is_zero():
            continue
        p = d * q
        got = exact_divide(p, d)
        assert got == q


def test_exact_divide_detects_nondivisor():
    t1, t2 = var(0), var(1)
    assert exact_divide(t1 - 1, t2 - 1) is None
    assert exact_divide(t1 ** 2 - 1, 2 * (t1 - 1)) is None  # coefficient fails
    assert exact_divide(t1 ** 2 - 1, t1 - 1) is not None


def test_exact_divide_larger_products_and_a_stray_monomial():
    # remainders whose keys cancel and come back as the heap advances; a
    # divisor with two or more terms divides no monomial, so one stray term
    # makes the product indivisible
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 3)
        d = random_poly(rng, n, max_terms=8)
        q = random_poly(rng, n, max_terms=12)
        if len(d.terms) < 2 or q.is_zero():
            continue
        p = d * q
        assert exact_divide(p, d) == q
        stray = LaurentPolynomial.monomial(
            rng.choice([1, -1, 7]), [rng.randint(-3, 6) for _ in range(n)]
        )
        assert exact_divide(p + stray, d) is None


def test_exact_divide_with_monomial_factors_of_different_sizes():
    # the operands carry unequal monomial factors, so a quotient exponent
    # is bounded below by min(p) - min(d), here (-7, 3), not by zero
    t1, t2 = var(0), var(1)
    d = LaurentPolynomial.monomial(1, (4, -1)) * (t2 + 1)
    q = LaurentPolynomial.monomial(3, (-7, 5)) * (t1 - 2 * t2 + t1 * t2 ** 2)
    assert exact_divide(q * d, d) == q
    # the leads t1 and t2 would need the quotient term t1 * t2^-1
    assert exact_divide(LaurentPolynomial.monomial(1, (-3, 2)) * (t1 + t2), d) is None


@st.composite
def binomial_divisions(draw):
    """(p, a): p with 1-4 variables and exponents of either sign, and a
    nonzero exponent vector a, often with mixed signs and no unit vector."""
    n = draw(st.integers(1, 4))
    exponent = st.integers(-3, 3)
    a = draw(st.tuples(*[exponent] * n).filter(any))
    p = LaurentPolynomial(n, draw(st.dictionaries(
        st.tuples(*[exponent] * n), st.integers(-5, 5), max_size=6)))
    return p, a


def _binomial(a):
    return LaurentPolynomial.monomial(1, a) - 1


@settings(max_examples=300, deadline=None)
@given(binomial_divisions())
@example((LaurentPolynomial(2, {(-1, 2): 3, (0, 0): -1, (4, -1): 2}), (2, -3)))
@example((LaurentPolynomial(3, {(0, 0, 0): 1}), (0, -2, 1)))
def test_binomial_quotient_of_a_multiple(case):
    p, a = case
    multiple = p * _binomial(a)
    assert _binomial_quotient(multiple, a) == p == exact_divide(multiple, _binomial(a))


@settings(max_examples=300, deadline=None)
@given(binomial_divisions(), st.tuples(*[st.integers(-4, 4)] * 4), st.sampled_from([1, -1, 7]),
       st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 4), st.integers(-3, 3), max_size=5))
@example((LaurentPolynomial(2, {(1, 1): 1}), (1, -1)), (0, 2, 0, 0), 1, {(1, 1, 0, 0): 1})
# a zero sum over p with nonzero fiber sums; an exact fiber across y^0 (y = t^2)
@example((LaurentPolynomial(2, {}), (1, 0)), (0, 0, 0, 0), 1,
         {(1, 1, 0, 0): 1, (0, 0, 0, 0): -2, (3, -3, 0, 0): 1, (-3, 3, 1, 0): 0})
@example((LaurentPolynomial(1, {}), (2,)), (0, 0, 0, 0), 1, {(3, 0, 0, 0): 1, (-3, 0, 0, 0): -1})
def test_binomial_quotient_fails_exactly_when_exact_divide_does(case, stray, c, other):
    # a multiple plus a stray term, and a drawn polynomial that is rarely
    # a multiple: the kernel and the heap division agree on each
    p, a = case
    n = p.num_vars
    d = _binomial(a)
    for r in (p * d + LaurentPolynomial.monomial(c, stray[:n]),
              LaurentPolynomial(n, {e[:n]: x for e, x in other.items()}),
              p * d + LaurentPolynomial(n, {e[:n]: x for e, x in other.items()})):
        ours = _binomial_quotient(r, a)
        assert ours == exact_divide(r, d)
        if ours is not None:
            assert ours * d == r


# ----------------------------------------------------------------------
# gcd


def test_gcd_coprime_distinct_variables():
    # brute-force oracle: any common divisor of these two must divide both;
    # scan all divisor candidates of 1 - t2 found among products of its
    # factorization (it is irreducible, so only units and associates), none
    # of which divides t1 - 1 except units
    t1, t2 = var(0), var(1)
    inputs = [1 - t2, t1 - 1]
    g = laurent_gcd(inputs)
    assert g == LaurentPolynomial.one(2)
    for p in inputs:
        assert exact_divide(p, g) is not None


def test_gcd_with_zero_returns_normalized_other():
    t2 = var(1)
    p = 2 * (t2 - 1) * (t2 - 1)
    assert laurent_gcd([LaurentPolynomial.zero(2), p]) == unit_normalize(p)


def test_gcd_all_zero_is_zero():
    z = LaurentPolynomial.zero(2)
    assert laurent_gcd([z, z]).is_zero()


def test_gcd_empty_family_raises():
    with pytest.raises(ValueError):
        laurent_gcd([])


def test_gcd_factorization_oracle():
    # build the inputs from known factors; gcd must be the shared part
    t1, t2 = var(0), var(1)
    a, b = t1 - 1, t2 - 1
    g = laurent_gcd([a * a * b, a * b * b])
    assert g == unit_normalize(a * b)


def test_gcd_keeps_integer_content():
    t1 = var(0)
    g = laurent_gcd([2 * (t1 - 1), 4 * (t1 - 1) * (t1 + 1)])
    assert g == unit_normalize(2 * (t1 - 1))


def test_gcd_ignores_monomial_units():
    t1, t2 = var(0), var(1)
    p = (t1 - 1) * (t2 - 1)
    shifted = p.shift((-3, 2)) * -1
    assert laurent_gcd([p, shifted]) == unit_normalize(p)


def test_gcd_certificate_counts_powers_of_the_main_variable():
    # the coprimality certificate evaluates t1 at 7 first; there the common
    # factor t2 + t1 - 7 collapses to the monomial t2, which a Laurent gcd
    # over F_p would treat as a unit
    t1, t2 = var(0), var(1)
    g = t2 + t1 - 7
    assert laurent_gcd([g * (t2 + 1), g * (t2 + 2)]) == unit_normalize(g)


def test_gcd_certificate_collapse_falls_back_to_the_prs():
    # at t1 = 7 the leading t2-coefficient t1 - 7 of both inputs vanishes,
    # so the certificate proves nothing and the subresultant sequence runs
    t1, t2 = var(0), var(1)
    g = t1 + t2 + 3
    p = ((t1 - 7) * t2 + 1) * g
    q = ((t1 - 7) * t2 + 2) * g
    assert _specialized_coeffs(p, 1, [7, 7]) is None
    assert not _gcd_free_of(p, q, 1)
    assert laurent_gcd([p, q]) == g


def test_gcd_certificate_verdicts():
    # True only for a coprime pair; a shared power of t2 or a shared factor
    # that involves t2 gives False
    t1, t2 = var(0), var(1)
    assert _gcd_free_of(t1 * t2 + 1, t1 + t2 + 2, 1)
    assert not _gcd_free_of(t2 * (t2 + 1), t2 * (t2 + 2), 1)
    assert not _gcd_free_of((t1 + t2) * (t2 + 1), (t1 + t2) * (t1 + 2), 1)


def test_gcd_divides_every_input_randomized():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 3)
        g0 = random_poly(rng, n, max_terms=2)
        p = random_poly(rng, n, max_terms=3)
        q = random_poly(rng, n, max_terms=3)
        inputs = [p * g0, q * g0]
        if all(x.is_zero() for x in inputs):
            continue
        g = laurent_gcd(inputs)
        for x in inputs:
            assert exact_divide(x, g) is not None
        if not g0.is_zero():
            assert exact_divide(g, g0) is not None


def _sympy_gcd(sympy, polys):
    """laurent_gcd's answer for two polynomials with nonnegative exponents,
    computed by sympy and unit-normalized."""
    n = polys[0].num_vars
    xs = sympy.symbols(f"x0:{n}")
    theirs = sympy.gcd(*(sympy.Poly.from_dict(p.terms, *xs) for p in polys))
    return unit_normalize(LaurentPolynomial(n, {
        tuple(int(x) for x in mono): int(c)
        for mono, c in zip(theirs.monoms(), theirs.coeffs())
    }))


def test_gcd_against_sympy_cross_check(monkeypatch):
    import sympy

    from alexarr.ringkit import laurent

    rng = random.Random(41)
    for _ in range(40):
        polys = [random_poly(rng, 2, max_terms=3, exp_range=(0, 3)) for _ in range(2)]
        if all(p.is_zero() for p in polys):
            continue
        assert laurent_gcd(polys) == _sympy_gcd(sympy, polys)

    # three variables, a common factor in at least two of them: record the
    # degree gaps the pseudo-remainders see and the contents that involve a
    # variable, so the round is known to reach both
    gaps, contents = [], []
    pseudo_rem, content = laurent._pseudo_rem, laurent._content

    def spy_pseudo_rem(a, b, k):
        gaps.append(a.max_degree_in(k) - b.max_degree_in(k))
        return pseudo_rem(a, b, k)

    def spy_content(p, k):
        c = content(p, k)
        contents.append(c)
        return c

    monkeypatch.setattr(laurent, "_pseudo_rem", spy_pseudo_rem)
    monkeypatch.setattr(laurent, "_content", spy_content)
    done = 0
    while done < 30:
        g = random_poly(rng, 3, max_terms=3, exp_range=(0, 2))
        if sum(1 for i in range(3) if g.max_degree_in(i) > 0) < 2 or len(g.terms) < 2:
            continue
        polys = [g * random_poly(rng, 3, max_terms=3, exp_range=(0, 3)) for _ in range(2)]
        if any(p.is_zero() for p in polys):
            continue
        assert laurent_gcd(polys) == _sympy_gcd(sympy, polys)
        done += 1
    assert max(gaps) > 1
    assert any(not c.is_constant() for c in contents)


def test_gcd_with_shared_binomial_powers_against_sympy(monkeypatch):
    # operands in 2-5 variables sharing (t_k - 1)^j, j = 0-3, for several k,
    # with and without a shared factor that is no binomial: the binomial
    # part comes out in some draws, the certificate answers the ones
    # without a shared factor, and contents and the PRS the others
    import sympy

    rng = random.Random(27)
    stripped, calls = [], []
    binomial_power = laurent._binomial_power

    def spy_binomial_power(p, k):
        p, n = binomial_power(p, k)
        stripped.append(n)
        return p, n

    monkeypatch.setattr(laurent, "_binomial_power", spy_binomial_power)
    for name in ("_content", "_subresultant_prs", "_heuristic_gcd"):
        original = getattr(laurent, name)
        monkeypatch.setattr(laurent, name,
                            lambda *args, f=original, n=name: calls.append(n) or f(*args))
    routes = []
    while len(routes) < 40:
        n = rng.randint(2, 5)
        t = [LaurentPolynomial.variable(k, n) for k in range(n)]
        p = q = LaurentPolynomial.one(n)
        for k in rng.sample(range(n), rng.randint(1, n)):
            p = p * (t[k] - 1) ** rng.randint(0, 3)
            q = q * (t[k] - 1) ** rng.randint(0, 3)
        if len(routes) % 2:
            shared = t[0] * t[1] + rng.choice([2, -3]) * t[n - 1] + rng.randint(1, 4)
            p, q = p * shared, q * shared
        a, b = (random_poly(rng, n, max_terms=3, exp_range=(0, 2)) for _ in range(2))
        if a.is_zero() or b.is_zero():
            continue
        polys = [p * a, q * b * rng.choice([1, 2, 6])]
        calls.clear()
        assert laurent_gcd(polys) == _sympy_gcd(sympy, polys)
        routes.append(frozenset(calls))
    assert routes.count(frozenset()) >= 10  # binomial part and certificate alone
    assert sum("_subresultant_prs" in r for r in routes) >= 10
    assert sum(1 for x in stripped if x >= 2) >= 10


_nonzero = st.integers(-12, 12).filter(bool)


def _draw_poly(data, n, min_terms, free_of=None):
    """A polynomial in n variables with nonnegative exponents, at least
    min_terms terms and none of variable free_of."""
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if free_of is not None:
        exps = exps.map(lambda e: e[:free_of] + (0,) + e[free_of + 1 :])
    return LaurentPolynomial(n, data.draw(st.dictionaries(
        exps, _nonzero, min_size=min_terms, max_size=4)))


@pytest.mark.parametrize("shared_monomial", [False, True])
@pytest.mark.parametrize("shape", ["monomial", "monomials", "constant", "free of main"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_gcd_of_special_shapes_against_sympy(shape, shared_monomial, data):
    # shapes the gcd takes with no case of its own: a monomial operand
    # meets the integer gcd once the common monomial is out, and an
    # operand free of the other's highest variable is its own content
    # there (the shared factor g, free of it too, keeps the certificate
    # from ending the gcd first)
    import sympy

    n = data.draw(st.integers(2 if shape == "free of main" else 1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if shape == "free of main":
        g = _draw_poly(data, n, 1, free_of=n - 1)
        a = _draw_poly(data, n, 2)
        assume(a.max_degree_in(n - 1) > 0)
        p, q = g * a, g * _draw_poly(data, n, 2, free_of=n - 1)
    else:
        def monomial():
            return LaurentPolynomial.monomial(data.draw(_nonzero), data.draw(exps))
        p = LaurentPolynomial.constant(data.draw(_nonzero), n) if shape == "constant" else monomial()
        q = monomial() if shape == "monomials" else _draw_poly(data, n, 2)
    if shared_monomial:
        common = data.draw(exps.filter(any))
        p, q = p.shift(common), q.shift(common)
    if data.draw(st.booleans()):
        p, q = q, p
    assert unit_normalize(_poly_gcd(p, q)) == _sympy_gcd(sympy, [p, q])


def _univariate(rng, degree, bits, num_vars=1, k=0):
    return LaurentPolynomial(num_vars, {
        laurent._var_power(k, i, num_vars): rng.randint(-(2 ** bits), 2 ** bits)
        for i in range(degree + 1)
    })


def test_univariate_gcd_against_sympy(monkeypatch):
    import sympy

    # products with a shared factor, large coefficients, the variable alone
    # in a wider ring; the heuristic must answer each pair without the PRS
    rng = random.Random(12)
    pairs = []
    for _ in range(25):
        num_vars = rng.randint(1, 3)
        k = rng.randrange(num_vars)
        g, a, b = (_univariate(rng, rng.randint(0, 30), rng.randint(1, 60), num_vars, k)
                   for _ in range(3))
        pairs.append([g * a * rng.randint(1, 6), g * b])
    # cofactors x(x + 1) and x(x + 1) + 2 are even at every integer, and
    # the shared factor's coefficients are larger than the inputs' smallest
    x = LaurentPolynomial.variable(0, 1)
    g = (x + 1) ** 12
    pairs.append([g * x * (x + 1), g * (x * (x + 1) + 2)])
    pairs.append([(x - 1) ** 40, (x - 1) ** 39 * (x + 1)])

    prs = []
    monkeypatch.setattr(laurent, "_subresultant_prs",
                        lambda *args: prs.append(args) or None)
    for polys in pairs:
        if any(p.is_zero() for p in polys):
            continue
        assert laurent_gcd(polys) == _sympy_gcd(sympy, polys)
        assert all(exact_divide(p, laurent_gcd(polys)) is not None for p in polys)
    assert not prs


def test_univariate_gcd_falls_back_to_the_prs(monkeypatch):
    # with every evaluation point failing, the subresultant sequence answers
    rng = random.Random(13)
    prs, run_prs = [], laurent._subresultant_prs
    monkeypatch.setattr(laurent, "_heuristic_gcd", lambda p, q, k: None)
    monkeypatch.setattr(laurent, "_subresultant_prs",
                        lambda *args: prs.append(args) or run_prs(*args))
    for _ in range(10):
        g, a, b = (_univariate(rng, rng.randint(1, 8), 20) for _ in range(3))
        polys = [g * a, g * b]
        expect = unit_normalize(_heuristic_gcd(_poly_part(polys[0]), _poly_part(polys[1]), 0))
        assert laurent_gcd(polys) == expect
    assert len(prs) >= 10


def test_heuristic_gcd_gives_up_after_six_points_and_the_prs_answers(monkeypatch):
    import sympy

    # with every trial division failing, GCDHEU returns None and _poly_gcd
    # takes the subresultant sequence instead
    rng = random.Random(14)
    prs, run_prs = [], laurent._subresultant_prs
    monkeypatch.setattr(laurent, "_dense_divides", lambda d, p: False)
    monkeypatch.setattr(laurent, "_subresultant_prs",
                        lambda *args: prs.append(args) or run_prs(*args))
    x = LaurentPolynomial.variable(0, 1)
    for _ in range(4):
        g = x + rng.randint(1, 9)
        p, q = (g * _univariate(rng, rng.randint(1, 4), 8) for _ in range(2))
        assert _heuristic_gcd(p, q, 0) is None
        assert unit_normalize(_poly_gcd(p, q)) == _sympy_gcd(sympy, [p, q])
    assert prs


def gcd_fold_oracle(ps):
    """The fold of laurent_gcd without its exact-division step: every term
    goes through _poly_gcd."""
    ps = list(ps)
    g = None
    for p in ps:
        if p.is_zero():
            continue
        phat = _poly_part(p)
        g = phat if g is None else _poly_gcd(g, phat)
        if g.is_unit():
            break
    return LaurentPolynomial.zero(ps[0].num_vars) if g is None else unit_normalize(g)


def test_gcd_fold_matches_the_poly_gcd_fold():
    # families whose running gcd sticks at a binomial for many terms and then
    # drops to a unit or a smaller factor, and random families
    rng = random.Random(1982)
    sticky = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        i = rng.randrange(n)
        binomial = LaurentPolynomial.variable(i, n) - rng.choice([1, -1, 2])
        if rng.random() < 0.7:
            stuck = rng.randint(2, 8)
            family = [binomial * random_poly(rng, n, max_terms=4) for _ in range(stuck)]
            family += [random_poly(rng, n, max_terms=3) for _ in range(rng.randint(0, 2))]
            sticky += 1
        else:
            g0 = random_poly(rng, n, max_terms=2)
            family = [g0 * random_poly(rng, n, max_terms=3) for _ in range(rng.randint(1, 5))]
        family = [f.shift(tuple(rng.randint(-2, 2) for _ in range(n))) * rng.choice([1, -1, 3])
                  for f in family]
        assert laurent_gcd(family) == gcd_fold_oracle(family)
    assert sticky > 80


def test_gcd_stuck_at_a_binomial_keeps_it_exactly():
    t1, t2 = var(0), var(1)
    b = t1 - t2
    family = [b * (t1 + k) * (t2 - 2 * k) for k in range(1, 6)] + [b * (t1 * t2 + 3), t1 + 1]
    assert laurent_gcd(family[:-1]) == unit_normalize(b) == gcd_fold_oracle(family[:-1])
    assert laurent_gcd(family) == LaurentPolynomial.one(2) == gcd_fold_oracle(family)


def test_unit_normalize_leading_sign_and_monomial_strip():
    t1, t2 = var(0), var(1)
    p = (1 - t1 * t2) * LaurentPolynomial.monomial(-3, (-2, 5))
    n = unit_normalize(p)
    assert n.min_exponents() == (0, 0)
    assert n == unit_normalize(3 * (t1 * t2 - 1))
    assert str(unit_normalize(1 - t1 * t2)) == "t1*t2 - 1"
