"""The one matrix type: its determinant over Z, Z[H] and K[t^±1], the
elimination kernel, the integer Smith normal form, and Laurent minors."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import alexarr.ringkit
from alexarr.ringkit import (
    LaurentPolynomial,
    Matrix,
    ModPoly,
    UniPoly,
    iter_minors,
    smith_normal_form_int,
    specialize,
    unit_normalize,
)
from alexarr.ringkit.matrices import _eliminate, _spread_subsets
from alexarr.ringkit.modp import FIELD


def test_snf_classic_example():
    d, u, v = smith_normal_form_int(Matrix([[2, 0], [0, 3]]))
    assert d.diagonal() == [1, 6]


def test_snf_zero_and_identity():
    z = Matrix([[0] * 3 for _ in range(2)])
    d, u, v = smith_normal_form_int(z)
    assert d.entries == z.entries
    i3 = Matrix.identity(3)
    d, u, v = smith_normal_form_int(i3)
    assert d.entries == i3.entries


def _is_unimodular(m: Matrix) -> bool:
    return abs(m.determinant()) == 1


def test_snf_random_reconstruction_and_chain():
    rng = random.Random(97)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(
            [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        )
        d, u, v = smith_normal_form_int(m)
        assert (u @ m @ v).entries == d.entries
        assert _is_unimodular(u)
        assert _is_unimodular(v)
        diag = d.diagonal()
        for i, x in enumerate(diag):
            assert x >= 0
            if i + 1 < len(diag):
                nxt = diag[i + 1]
                if x == 0:
                    assert nxt == 0
                else:
                    assert nxt % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d.entries[i][j] == 0
        if rows == cols:
            prod = 1
            for x in diag:
                prod *= x
            assert abs(m.determinant()) == prod


# ----------------------------------------------------------------------
# The elimination kernel against its full-width form


def _eliminate_full_width(a: list, rows: int, cols: int, size, divide, *, chain: bool) -> int:
    """The kernel as it was before it kept divide's remainder: each step
    divides, then recomputes the remainder inside a row operation over the
    full width of a or a column operation over its full height."""
    width = len(a[0]) if a else 0

    def row_op(i, j, q):
        ai, aj = a[i], a[j]
        for k in range(width):
            if aj[k]:
                ai[k] -= q * aj[k]

    def col_op(i, j, q):
        for row in a:
            if row[j]:
                row[i] -= q * row[j]

    def move_min_pivot(t) -> bool:
        best = None
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x:
                    s = size(x)
                    if best is None or s < best:
                        best = s
                        pivot = (i, j)
        if pivot is None:
            return False
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        return True

    t = 0
    while t < min(rows, cols):
        if not move_min_pivot(t):
            break
        while True:
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, divide(a[i][t], a[t][t])[0])
                    if a[i][t]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, divide(a[t][j], a[t][t])[0])
                    if a[t][j]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            if not chain or size(a[t][t]) == 0:
                break
            offender = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols)
                 if a[i][j] and divide(a[i][j], a[t][t])[1]),
                None,
            )
            if offender is None:
                break
            pivot_row, off_row = a[t], a[offender]
            for k in range(width):
                if off_row[k]:
                    pivot_row[k] += off_row[k]
        t += 1
    return t


def _same_elimination(a: list, rows: int, cols: int, size, divide, chain: bool) -> None:
    ref = [row[:] for row in a]
    got = [row[:] for row in a]
    rank = _eliminate(got, rows, cols, size, divide, chain=chain)
    assert rank == _eliminate_full_width(ref, rows, cols, size, divide, chain=chain)
    assert got == ref


_small_int = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_kernel_matches_full_width_over_z_with_snf_borders(data, chain):
    # the layout of smith_normal_form_int: [[M, I_rows], [I_cols, 0]], so
    # the identity borders right of and below M carry the transforms
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    m = [[data.draw(_small_int) for _ in range(cols)] for _ in range(rows)]
    a = [row + [int(i == k) for k in range(rows)] for i, row in enumerate(m)]
    a += [[int(j == k) for k in range(cols)] + [0] * rows for j in range(cols)]
    _same_elimination(a, rows, cols, abs, divmod, chain)


_laurent_2 = st.dictionaries(
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)), st.integers(-3, 3), max_size=4
).map(lambda terms: LaurentPolynomial(2, terms))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_kernel_matches_full_width_over_f_p(data, chain):
    # Laurent matrices over Z[t1^±1, t2^±1] sent to F_P[t^±1] as the
    # localized route sends them: t1 -> t, t2 -> u t at a random unit u
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    u = data.draw(st.integers(1, FIELD - 1))
    a = [[specialize(data.draw(_laurent_2), [1, 1], [1, u]) for _ in range(cols)]
         for _ in range(rows)]
    _same_elimination(a, rows, cols, ModPoly.spread, ModPoly.divmod_by, chain)


# ----------------------------------------------------------------------
# Laurent minors


def _vars3():
    return [LaurentPolynomial.variable(i, 3) for i in range(3)]


def test_minors_of_column_are_entries():
    t1, t2 = (LaurentPolynomial.variable(i, 2) for i in range(2))
    m = Matrix([[1 - t2], [t1 - 1]])
    assert list(iter_minors(m, 1)) == [1 - t2, t1 - 1]


def test_minor_of_diagonal_is_product():
    t1, t2 = (LaurentPolynomial.variable(i, 2) for i in range(2))
    z = LaurentPolynomial.zero(2)
    m = Matrix([[t1, z], [z, t2 - 1]])
    assert list(iter_minors(m, 2)) == [t1 * (t2 - 1)]


def test_minors_of_central_commutator_matrix():
    # up to sign these are the three 2x2 subdeterminants, in row-set
    # lexicographic order (there is one column set)
    t1, t2, t3 = _vars3()
    z = LaurentPolynomial.zero(3)
    m = Matrix([[1 - t3, z], [z, 1 - t3], [t1 - 1, t2 - 1]])
    got = list(iter_minors(m, 2))
    expected = [
        (1 - t3) * (1 - t3),
        (1 - t3) * (t2 - 1),
        -((1 - t3) * (t1 - 1)),
    ]
    assert len(got) == 3
    for g, e in zip(got, expected):
        assert g == e or g == -e
        assert unit_normalize(g) == unit_normalize(e)


def test_spread_order_is_a_bijection_onto_the_subsets():
    for n in range(1, 13):
        for k in range(1, n + 1):
            got = list(_spread_subsets(n, k))
            assert sorted(got) == list(combinations(range(n), k)), (n, k)
            assert all(list(c) == sorted(set(c)) for c in got), (n, k)


def test_spread_order_is_fixed():
    assert list(_spread_subsets(9, 4)) == list(_spread_subsets(9, 4))
    assert list(_spread_subsets(5, 2)) == [
        (0, 1), (1, 4), (1, 3), (0, 2), (2, 4), (2, 3), (1, 2), (3, 4), (0, 4), (0, 3)]


def test_spread_order_separates_consecutive_subsets():
    # what the degree route relies on: lexicographic neighbours share k - 1
    # columns almost always, spread neighbours far fewer
    def mean_overlap(order):
        return sum(len(set(a) & set(b)) for a, b in zip(order, order[1:])) / (len(order) - 1)

    n, k = 21, 6
    assert mean_overlap(list(combinations(range(n), k))) > 4.5
    assert mean_overlap(list(_spread_subsets(n, k))) < 2.5


def test_minor_rows_lexicographic_columns_spread():
    rng = random.Random(7)
    rows, cols, k = 4, 6, 2
    m = Matrix([[LaurentPolynomial.constant(rng.randint(-9, 9), 2) for _ in range(cols)]
                for _ in range(rows)])
    first = list(iter_minors(m, k))
    assert first == list(iter_minors(m, k))
    expected = [
        m.submatrix(ri, ci).determinant()
        for ri in combinations(range(rows), k)
        for ci in _spread_subsets(cols, k)
    ]
    assert first == expected
    # k = 1: the entries, row by row, each row in the spread column order
    cols_order = [c for (c,) in _spread_subsets(cols, 1)]
    assert list(iter_minors(m, 1)) == [m.entries[i][j] for i in range(rows) for j in cols_order]


def _random_laurent_matrix(rng, rows, cols, num_vars, scale, density):
    """rows x cols LaurentPolynomials of up to three terms, each exponent
    within scale of 0 (negative ones too), each entry nonzero with
    probability density."""
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            if rng.random() < density:
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(-scale, scale) for _ in range(num_vars))
                    terms[e] = rng.randint(-4, 4)
            row.append(LaurentPolynomial(num_vars, terms))
        entries.append(row)
    return Matrix(entries, rows, cols)


def _generic_minors(m, k):
    """iter_minors' values and order, from the generic determinant."""
    return [m.submatrix(ri, ci).determinant()
            for ri in combinations(range(m.rows), k)
            for ci in _spread_subsets(m.cols, k)]


def _assert_minors_match_determinant(m):
    for k in range(1, min(m.rows, m.cols) + 1):
        got = list(iter_minors(m, k))
        assert got == _generic_minors(m, k), k
        assert all(type(g) is LaurentPolynomial and all(g.terms.values()) for g in got)


@pytest.mark.parametrize("num_vars", [0, 1, 2, 3])
@pytest.mark.parametrize("scale", [1, 3, 2 ** 40 + 5, 2 ** 70])
def test_minors_match_the_generic_determinant(num_vars, scale):
    # negative exponents throughout; at 2^40 and 2^70 the packing width W
    # passes 40 and 64 bits, and a packed key spans three of them
    rng = random.Random(num_vars * 1000 + scale % 997)
    for _ in range(12):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _random_laurent_matrix(rng, rows, cols, num_vars, scale, rng.choice([0.4, 0.8, 1]))
        _assert_minors_match_determinant(m)


def test_minors_with_zero_rows_and_columns():
    rng = random.Random(26)
    z = LaurentPolynomial.zero(2)
    for _ in range(10):
        m = _random_laurent_matrix(rng, 4, 5, 2, 2, 0.9)
        m.entries[rng.randrange(4)] = [z] * 5
        col = rng.randrange(5)
        for row in m.entries:
            row[col] = z
        _assert_minors_match_determinant(m)
    zero = Matrix([[z] * 3 for _ in range(3)])
    _assert_minors_match_determinant(zero)
    assert all(not minor for k in (1, 2, 3) for minor in iter_minors(zero, k))


def test_minor_whose_blocks_cancel():
    # in the 3x3 expansion the block of rows 1, 2 on the last two columns
    # is (t1 + 1) t2 - t1 t2 = t2, its t1 t2 coefficient cancelling inside
    # the block, and the block of rows 0, 2 is t1 t2 - t2 t1 = 0
    t1, t2 = (LaurentPolynomial.variable(i, 2) for i in range(2))
    one = LaurentPolynomial.one(2)
    m = Matrix([[t1 ** -1, t1, t2],
                [one, t1 + 1, t2],
                [t2 - 1, t1, t2]])
    _assert_minors_match_determinant(m)
    assert list(iter_minors(m, 3)) == [(t1 ** -1 - t2 + 1) * t2]
    block = Matrix([[t1 + 1, t2], [t1, t2]])
    assert list(iter_minors(block, 2)) == [t2]
    assert list(iter_minors(Matrix([[t1, t2], [t1, t2]]), 2)) == [LaurentPolynomial.zero(2)]


def test_minor_size_out_of_range():
    t1 = LaurentPolynomial.variable(0, 1)
    m = Matrix([[t1]])
    with pytest.raises(ValueError):
        iter_minors(m, 2)
    with pytest.raises(ValueError):
        iter_minors(m, 0)


def _leibniz(entries, one):
    """Determinant as the signed sum over all permutations."""
    n = len(entries)
    acc = one - one
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = one
        for i in range(n):
            term = term * entries[i][perm[i]]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def test_laurent_determinant_matches_permanent_expansion():
    # cross-check the memoized cofactor expansion against an independent
    # Leibniz-formula evaluation on random small matrices over Z[H] and Z
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        entries = []
        for _ in range(n):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    e = tuple(rng.randint(-1, 2) for _ in range(2))
                    terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
                row.append(LaurentPolynomial(2, terms))
            entries.append(row)
        assert Matrix(entries).determinant() == _leibniz(entries, LaurentPolynomial.one(2))
    for _ in range(200):
        n = rng.randint(1, 5)
        density = rng.random()
        entries = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        assert Matrix(entries).determinant() == _leibniz(entries, 1)


def test_determinant_over_the_pid():
    t = UniPoly.t_power(1, 0)
    one, z = UniPoly.one(0), UniPoly.zero(0)
    m = Matrix([[t, one, z], [one, t, one], [z, one, t]])
    assert m.determinant() == t * t * t - t - t


def test_determinant_needs_a_nonempty_square_matrix():
    with pytest.raises(ValueError):
        Matrix([], 0, 0).determinant()
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).determinant()


def test_ringkit_exports_resolve():
    for name in alexarr.ringkit.__all__:
        assert hasattr(alexarr.ringkit, name), name
    assert len(set(alexarr.ringkit.__all__)) == len(alexarr.ringkit.__all__)
