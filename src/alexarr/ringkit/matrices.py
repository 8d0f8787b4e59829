"""Exact matrices: one Euclidean elimination kernel, the integer Smith
normal form built on it, and Laurent-polynomial minors."""

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


def _eliminate(a: list, rows: int, cols: int, size, divide) -> int:
    """Diagonalize the leading rows x cols block of a in place; return its rank.

    Euclidean elimination over any ring with a Euclidean function `size` and
    a division with remainder `divide(x, y) -> (q, r)`; entries test as zero
    by truth value.  Row operations act on the full width of a and column
    operations on its full height, so identity blocks bordering the leading
    block record the transforms.  Afterwards the block is diagonal with
    d_1 | d_2 | ... | d_rank up to units, followed by zeros.
    """
    width = len(a[0]) if a else 0

    def row_op(i, j, q):
        # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in range(width):
            if aj[k]:
                ai[k] -= q * aj[k]

    def col_op(i, j, q):
        # col_i -= q * col_j
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
            # clear the pivot column; any nonzero remainder is strictly
            # smaller than the pivot, so re-picking the minimum makes
            # progress and the loop terminates
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
            # divisibility chain: the pivot must divide the whole trailing
            # submatrix; folding an offending row in plants a remainder
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


def smith_normal_form_int(M: IntMatrix) -> tuple:
    """Smith normal form over Z.

    Returns (D, U, V) with U*M*V == D, U and V unimodular, D diagonal with
    nonnegative entries d_1 | d_2 | ... .
    """
    rows, cols = M.rows, M.cols
    # [[M, I_rows], [I_cols, 0]]: row operations carry U, column operations V
    a = [row + e for row, e in zip(M.entries, IntMatrix.identity(rows).entries)]
    a += [e + [0] * rows for e in IntMatrix.identity(cols).entries]
    rank = _eliminate(a, rows, cols, abs, divmod)
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return (
        IntMatrix([row[:cols] for row in a[:rows]], rows, cols),
        IntMatrix([row[cols:] for row in a[:rows]], rows, rows),
        IntMatrix([row[:cols] for row in a[rows:]], cols, cols),
    )


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
    """A lazy iterator over all k x k minor determinants of M.

    Deterministic order: row subsets lexicographic, then column subsets
    lexicographic.  Values are plain subdeterminants (no cofactor signs).
    An out-of-range k raises ValueError at the call, not on the first next.
    """
    if not 0 < k <= min(M.rows, M.cols):
        raise ValueError(f"minor size {k} out of range for {M.rows}x{M.cols} matrix")
    return (
        M.submatrix(ri, ci).determinant()
        for ri in combinations(range(M.rows), k)
        for ci in combinations(range(M.cols), k)
    )
