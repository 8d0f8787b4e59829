"""Laurent polynomials over F_P and the localized route at random points."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from alexarr.ringkit import (
    LaurentPolynomial,
    Matrix,
    ModPoly,
    degree_spread,
    diagonalize_mod_p,
    diagonalize_over_pid,
    grade_substitute,
    iter_minors,
    laurent_gcd,
    specialize,
)
from alexarr.ringkit.modp import FIELD
from test_ratfunc import _laurent_tu


def random_modpoly(rng, max_len=5):
    coeffs = [rng.choice([0, 1, 2, FIELD - 1, rng.randrange(FIELD)])
              for _ in range(rng.randint(0, max_len))]
    return ModPoly(coeffs, rng.randint(-3, 3))


def test_constructor_trims_both_ends():
    p = ModPoly([0, 0, 5, 0, 7, 0], low=-1)
    assert (p.low, p.coeffs) == (1, [5, 0, 7])
    assert p.spread() == 2
    z = ModPoly([0, 0], low=4)
    assert not z and (z.low, z.coeffs) == (0, [])
    with pytest.raises(ValueError):
        z.spread()


def test_divmod_by_is_a_laurent_division_with_remainder():
    rng = random.Random(11)
    checked = 0
    for _ in range(500):
        a, b = random_modpoly(rng, 7), random_modpoly(rng)
        if not b:
            with pytest.raises(ZeroDivisionError):
                a.divmod_by(b)
            continue
        q, r = a.divmod_by(b)
        assert a == q * b + r
        assert not r or r.spread() < b.spread()
        checked += 1
    assert checked > 300


def _convolution(a: ModPoly, b: ModPoly) -> ModPoly:
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + x * y) % FIELD
    return ModPoly(out, a.low + b.low)


def test_one_term_products_are_the_convolution():
    rng = random.Random(23)
    for _ in range(300):
        mono = ModPoly([rng.choice([1, 2, FIELD - 1, rng.randrange(1, FIELD)])],
                       rng.randint(-4, 2))
        p = random_modpoly(rng, 6)
        assert mono * p == _convolution(mono, p)
        assert p * mono == _convolution(p, mono)
    assert not ModPoly([3], -2) * ModPoly([])


def test_repeated_divisor_divides_as_a_fresh_copy():
    # the divisor keeps its leading coefficient's inverse after the first
    # division; later divisions by it, and the divisor itself, are unchanged
    rng = random.Random(29)
    for _ in range(200):
        b = random_modpoly(rng)
        if not b:
            continue
        fresh = ModPoly(list(b.coeffs), b.low)
        for _ in range(3):
            a = random_modpoly(rng, 8)
            assert a.divmod_by(b) == a.divmod_by(ModPoly(list(b.coeffs), b.low))
        assert b == fresh and fresh == b
        assert repr(b) == repr(fresh)


def test_ring_operations_agree_with_specialization():
    # specialization is a ring homomorphism Z[t1^±1, t2^±1] -> F_P[t^±1]
    rng = random.Random(5)
    for _ in range(200):
        p, q = (
            LaurentPolynomial(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-9, 9)
                                  for _ in range(rng.randint(0, 4))})
            for _ in range(2)
        )
        points = [1, rng.randrange(1, FIELD)]
        sp, sq = specialize(p, [1, 1], points), specialize(q, [1, 1], points)
        assert specialize(p + q, [1, 1], points) == sp + sq
        assert specialize(p - q, [1, 1], points) == sp - sq
        assert specialize(p * q, [1, 1], points) == sp * sq


def test_specialize_maps_terms_to_total_degree_with_inverses():
    # 3 * t1 * t2^-2 - 1 at u = (1, 2): 3 * 2^-2 * t^-1 - 1
    p = LaurentPolynomial(2, {(1, -2): 3, (0, 0): -1})
    image = specialize(p, [1, 1], [1, 2])
    assert image.low == -1
    assert image.coeffs == [3 * pow(4, -1, FIELD) % FIELD, FIELD - 1]


def test_diagonalize_mod_p_reads_rank_and_degree():
    t = ModPoly([0, 1])
    one = ModPoly([1])
    z = ModPoly([])
    factors, free = diagonalize_mod_p(Matrix([[t - one, z], [z, t + one], [z, z]]))
    assert free == 1
    assert sum(f.spread() for f in factors) == 2


def rank_and_degree(M):
    """(free rank, sum of spreads) by the chain-free modular elimination and
    by the exact one with the divisibility chain, for M over Z[t^±1]."""
    mod = diagonalize_mod_p(Matrix([[specialize(p, [1], [1]) for p in row]
                                    for row in M], len(M), len(M[0])))
    pid = diagonalize_over_pid(Matrix([[grade_substitute(p) for p in row]
                                       for row in M], len(M), len(M[0])))
    return mod, pid, [(free, sum(f.spread() for f in factors)) for factors, free in (mod, pid)]


def test_chain_free_diagonal_form_reads_rank_and_degree():
    # coprime pivots: the divisibility chain would fold t + 3 into the row of
    # t - 2 and end with diag(1, (t - 2)(t + 3)); without it the entries stay
    t = LaurentPolynomial.variable(0, 1)
    z = LaurentPolynomial.zero(1)
    (mod_factors, _), (pid_factors, _), (mod, pid) = rank_and_degree(
        [[t - 2, z], [z, t + 3], [z, z]])
    assert mod == pid == (1, 2)
    assert [f.spread() for f in mod_factors] == [1, 1]
    assert [f.spread() for f in pid_factors] == [2]


def test_chain_free_rank_and_degree_match_the_chain_on_random_matrices():
    rng = random.Random(7)
    t = LaurentPolynomial.variable(0, 1)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        M = [[LaurentPolynomial(1, {(rng.randint(-1, 2),): rng.randint(-3, 3)
                                    for _ in range(rng.randint(0, 3))})
              * rng.choice([1, t - 2, t + 3, (t - 2) * (t + 3)])
              for _ in range(cols)] for _ in range(rows)]
        _, _, (mod, pid) = rank_and_degree(M)
        assert mod == pid


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_modular_localization_matches_minor_gcd(data):
    # matrices over Z[t1, t2] sent to F_P[t^±1] by t1 -> t, t2 -> u t at a
    # random u: the free rank and torsion degree are those of the minors'
    # gcd over Z[t1, t2] unless u hits the bad set: r <= 4, u-degree d <= 2
    # and t-spread w <= 4 give at most D = r d (3 + 2 r w) = 280 bad points
    # of the P - 1
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    lint = [[data.draw(_laurent_tu) for _ in range(cols)] for _ in range(rows)]
    u = random.Random(data.draw(st.integers(0, 10 ** 9))).randrange(1, FIELD)
    image = Matrix([[specialize(p, [1, 1], [1, u]) for p in row] for row in lint], rows, cols)
    factors, free = diagonalize_mod_p(image)
    rank = rows - free
    lm = Matrix(lint, rows, cols)
    if rank < min(rows, cols):
        assert all(not minor for minor in iter_minors(lm, rank + 1))
    if rank:
        g = laurent_gcd(iter_minors(lm, rank))
        assert g
        assert sum(f.spread() for f in factors) == degree_spread(g)
