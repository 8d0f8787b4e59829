"""Fraction field, univariate layer, and PID diagonalization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from alexarr.ringkit import (
    LaurentPolynomial,
    Matrix,
    RationalFunction,
    UniPoly,
    degree_spread,
    diagonalize_over_pid,
    grade_substitute,
    iter_minors,
    laurent_gcd,
)


def random_poly(rng, num_vars, max_terms=3, exp_range=(0, 2)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(*exp_range) for _ in range(num_vars))
        terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
    return LaurentPolynomial(num_vars, terms)


def random_ratfunc(rng, num_vars):
    num = random_poly(rng, num_vars)
    den = LaurentPolynomial.zero(num_vars)
    while den.is_zero():
        den = random_poly(rng, num_vars)
    return RationalFunction(num, den)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(
            LaurentPolynomial.one(1), LaurentPolynomial.zero(1)
        )


def test_reduction_is_canonical():
    u = LaurentPolynomial.variable(0, 1)
    a = RationalFunction((u - 1) * (u + 2), (u - 1) * u)
    b = RationalFunction(u + 2, u)
    assert a == b


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_field_axioms_on_random_samples(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    n = rng.randint(0, 2)
    a = random_ratfunc(rng, n)
    b = random_ratfunc(rng, n)
    c = random_ratfunc(rng, n)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    if not a.is_zero():
        assert (a * a.inverse()).is_one()
        assert (b / a) * a == b
    # a product comes out canonical without a final reduction; random_ratfunc
    # draws zero numerators too, and negation flips the leading signs
    zero = RationalFunction.zero(n)
    for x, y in ((a, b), (-a, b), (a, -c), (-b, -c), (a, zero), (zero, c)):
        assert x * y == RationalFunction(x.num * y.num, x.den * y.den)


def test_zero_variable_case_is_rational_arithmetic():
    half = RationalFunction(
        LaurentPolynomial.constant(1, 0), LaurentPolynomial.constant(2, 0)
    )
    third = RationalFunction(
        LaurentPolynomial.constant(1, 0), LaurentPolynomial.constant(3, 0)
    )
    s = half + third
    assert s == RationalFunction(
        LaurentPolynomial.constant(5, 0), LaurentPolynomial.constant(6, 0)
    )


# ----------------------------------------------------------------------
# UniPoly


def tpow(k, nv):
    return UniPoly.t_power(k, nv)


def test_unipoly_trims_and_offsets():
    z = RationalFunction.zero(0)
    one = RationalFunction.one(0)
    p = UniPoly(0, [z, one, z], low=-1)
    assert p.low == 0 and len(p.coeffs) == 1
    assert p == tpow(0, 0)


def test_unipoly_divmod():
    rng = random.Random(3)
    for _ in range(150):
        nv = rng.randint(0, 2)
        a_coeffs = [random_ratfunc(rng, nv) for _ in range(rng.randint(0, 4))]
        b_coeffs = [random_ratfunc(rng, nv) for _ in range(rng.randint(1, 3))]
        a = UniPoly(nv, a_coeffs, low=rng.randint(-2, 2))
        b = UniPoly(nv, b_coeffs, low=rng.randint(-2, 2))
        if b.is_zero():
            continue
        q, r = a.divmod_by(b)
        assert q * b + r == a
        if not r.is_zero():
            assert r.spread() < b.spread() or len(r.coeffs) < len(b.coeffs)


def test_monic_strips_offset_and_leading():
    u = LaurentPolynomial.variable(0, 1)
    c = RationalFunction(u, u - 1)
    p = UniPoly(1, [c, c + c], low=3)
    m = p.monic()
    assert m.low == 0
    assert m.leading().is_one()


# ----------------------------------------------------------------------
# grade substitution


def test_grade_substitute_basic():
    t1, t2 = (LaurentPolynomial.variable(i, 2) for i in range(2))
    up = grade_substitute(t1 * t2 - 1)
    # u2 * t^2 - 1
    assert up.low == 0
    assert up.top() == 2
    assert up.coeffs[0] == RationalFunction.constant(-1, 1)
    assert up.coeffs[2] == RationalFunction(LaurentPolynomial.variable(0, 1))


def test_grade_substitute_constant_and_first_variable():
    c = LaurentPolynomial.constant(7, 2)
    up = grade_substitute(c)
    assert up.low == 0 and up.spread() == 0
    t1 = LaurentPolynomial.variable(0, 2)
    up = grade_substitute(t1 - 1)
    assert up.low == 0 and up.top() == 1
    assert up.coeffs[1].is_one()


def test_grade_substitute_preserves_degree_with_ones():
    # distinct source monomials stay distinct on the u side, so no
    # cancellation can shrink the t-spread
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = random_poly(rng, n, max_terms=5, exp_range=(-2, 3))
        if p.is_zero():
            continue
        up = grade_substitute(p)
        assert up.spread() == degree_spread(p)


# ----------------------------------------------------------------------
# diagonalization over the PID


def test_diagonalize_diag_example():
    one = UniPoly.one(0)
    tm1 = tpow(1, 0) - one
    z = UniPoly.zero(0)
    factors, free = diagonalize_over_pid(Matrix([[tm1, z], [z, one]]))
    assert free == 0
    assert len(factors) == 1
    assert factors[0] == tm1.monic()


def test_diagonalize_coprime_column_is_free():
    u = RationalFunction(LaurentPolynomial.variable(0, 1))
    col = Matrix(
        [[UniPoly.one(1) - tpow(1, 1) * u], [tpow(1, 1) - UniPoly.one(1)]]
    )
    factors, free = diagonalize_over_pid(col)
    assert factors == []
    assert free == 1


def test_diagonalize_folds_coprime_pivots_into_one_factor():
    # diag(t - u, t + u): the pivots are coprime, so the invariant factors
    # are 1 and (t - u)(t + u), not the two pivots
    u = RationalFunction(LaurentPolynomial.variable(0, 1))
    t, z = tpow(1, 1), UniPoly.zero(1)
    a, b = t - UniPoly.one(1) * u, t + UniPoly.one(1) * u
    factors, free = diagonalize_over_pid(Matrix([[a, z], [z, b]]))
    assert free == 0
    assert factors == [(a * b).monic()]


def test_diagonalize_empty_matrix_is_free_module():
    factors, free = diagonalize_over_pid(Matrix([[], []], rows=2, cols=0))
    assert factors == []
    assert free == 2


def test_diagonalize_rank_accounting_and_minor_gcd():
    # random small matrices over Q[t]: rank + free_rank = rows, and the
    # product of all invariant factors (units included) matches the gcd of
    # the rank-sized minors computed over the integral model
    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        lint = [
            [
                LaurentPolynomial(
                    1,
                    {
                        (rng.randint(0, 2),): rng.randint(-2, 2)
                        for _ in range(rng.randint(0, 2))
                    },
                )
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        entries = [[grade_substitute(p) for p in row] for row in lint]
        m = Matrix(entries, rows, cols)
        factors, free = diagonalize_over_pid(m)
        rank = rows - free
        assert 0 <= rank <= min(rows, cols)
        assert len(factors) <= rank
        if rank:
            lm = Matrix(lint, rows, cols)
            g = laurent_gcd(iter_minors(lm, rank))
            prod = UniPoly.one(0)
            for f in factors:
                prod = prod * f
            expect = grade_substitute(g).monic()
            assert prod.monic() == expect


_laurent_tu = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2), max_size=3
).map(lambda terms: LaurentPolynomial(2, terms))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diagonalize_over_rational_functions_matches_minor_gcd(data):
    # matrices over Z[t1, t2] pushed into Q(u)[t] by t1 -> t, t2 -> u t; the
    # push is a localization of a UFD, so it keeps minors and their gcds
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    lint = [[data.draw(_laurent_tu) for _ in range(cols)] for _ in range(rows)]
    m = Matrix(
        [[grade_substitute(p) for p in row] for row in lint], rows, cols
    )
    factors, free = diagonalize_over_pid(m)
    rank = rows - free
    lm = Matrix(lint, rows, cols)
    if rank < min(rows, cols):
        assert all(minor.is_zero() for minor in iter_minors(lm, rank + 1))
    if rank:
        g = laurent_gcd(iter_minors(lm, rank))
        assert not g.is_zero()
        prod = UniPoly.one(1)
        for f in factors:
            assert f.spread() > 0 and f.low == 0 and f.leading().is_one()
            prod = prod * f
        assert prod == grade_substitute(g).monic()
        for f, nxt in zip(factors, factors[1:]):
            assert nxt.divmod_by(f)[1].is_zero()
