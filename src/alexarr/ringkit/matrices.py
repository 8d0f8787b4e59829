"""Exact matrices: integer Smith normal form and Laurent-polynomial minors."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .laurent import LaurentPolynomial


class IntMatrix:
    """Dense integer matrix with unbounded entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        data = [list(row) for row in entries]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.entries], self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if a:
                    brow = other.entries[k]
                    orow = out[i]
                    for j in range(other.cols):
                        orow[j] += a * brow[j]
        return IntMatrix(out, self.rows, other.cols)

    def diagonal(self) -> list:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


def _det_int(entries: list) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(entries)
    if n == 0:
        return 1
    a = [row[:] for row in entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form_int(M: IntMatrix) -> tuple:
    """Smith normal form over Z.

    Returns (D, U, V) with U*M*V == D, U and V unimodular, D diagonal with
    nonnegative entries d_1 | d_2 | ... .
    """
    rows, cols = M.rows, M.cols
    a = [row[:] for row in M.entries]
    u = IntMatrix.identity(rows).entries
    v = IntMatrix.identity(cols).entries

    def row_op(i, j, q):
        # row_i -= q * row_j
        for k in range(cols):
            a[i][k] -= q * a[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for k in range(rows):
            a[k][i] -= q * a[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(rows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    def move_min_pivot(t) -> bool:
        best = None
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            return False
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        return True

    t = 0
    while t < min(rows, cols):
        if not move_min_pivot(t):
            break
        while True:
            # clear the pivot column; any nonzero remainder is strictly
            # smaller than the pivot, so re-picking the minimum makes
            # progress and the loop terminates
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            # divisibility chain: the pivot must divide the whole trailing
            # submatrix; folding an offending row in plants a remainder
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for k in range(cols):
                a[i][k] = -a[i][k]
            for k in range(rows):
                u[i][k] = -u[i][k]

    return IntMatrix(a, rows, cols), IntMatrix(u, rows, rows), IntMatrix(v, cols, cols)


class LaurentMatrix:
    """Matrix with Laurent-polynomial entries sharing one variable count."""

    __slots__ = ("rows", "cols", "num_vars", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPolynomial]], num_vars: int,
                 rows: int | None = None, cols: int | None = None):
        data = [list(row) for row in entries]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix dimensions")
        for row in data:
            for p in row:
                if p.num_vars != num_vars:
                    raise ValueError("entry variable count differs from matrix")
        self.rows = rows
        self.cols = cols
        self.num_vars = num_vars
        self.entries = data

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "LaurentMatrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return LaurentMatrix(
            [[self.entries[i][j] for j in ci] for i in ri], self.num_vars,
            len(ri), len(ci),
        )

    def determinant(self) -> LaurentPolynomial:
        return _det_laurent(self.entries, self.num_vars)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(p) for p in row) for row in self.entries
        )
        return f"LaurentMatrix({self.rows}x{self.cols}: {body})"


def _det_laurent(entries: list, num_vars: int) -> LaurentPolynomial:
    """Determinant by first-column cofactor expansion with subset memoization."""
    n = len(entries)
    if n == 0:
        return LaurentPolynomial.one(num_vars)
    cache: dict = {}

    def rec(rows: tuple, depth: int) -> LaurentPolynomial:
        # determinant of the square block entries[rows] x columns[depth:]
        if len(rows) == 1:
            return entries[rows[0]][depth]
        got = cache.get(rows)
        if got is not None:
            return got
        acc = LaurentPolynomial.zero(num_vars)
        for pos, i in enumerate(rows):
            e = entries[i][depth]
            if e.is_zero():
                continue
            sub = rec(rows[:pos] + rows[pos + 1 :], depth + 1)
            term = e * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        cache[rows] = acc
        return acc

    return rec(tuple(range(n)), 0)


def iter_minors(M: LaurentMatrix, k: int):
    """Lazily yield all k x k minor determinants of M.

    Deterministic order: row subsets lexicographic, then column subsets
    lexicographic.  Values are plain subdeterminants (no cofactor signs).
    """
    if not 0 < k <= min(M.rows, M.cols):
        raise ValueError(f"minor size {k} out of range for {M.rows}x{M.cols} matrix")
    for ri in combinations(range(M.rows), k):
        for ci in combinations(range(M.cols), k):
            yield M.submatrix(ri, ci).determinant()
