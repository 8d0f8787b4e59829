"""Matrices: one matrix type for Z, Z[H], K[t^±1] and F_p[t^±1] with one
determinant, one Euclidean elimination kernel, the integer Smith normal form
built on it, and the minor enumerator."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence


class Matrix:
    """Dense matrix over a commutative ring: Z, Z[H], K[t^±1] or F_p[t^±1].

    Entries are ints, LaurentPolynomials, UniPolys (over K = Q(u)) or
    ModPolys (over F_p); they test as zero by truth value, as in
    `_eliminate`.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], rows: int | None = None,
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
    def identity(cls, n: int) -> "Matrix":
        """The n x n integer identity."""
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return Matrix([[self.entries[i][j] for j in ci] for i in ri], len(ri), len(ci))

    def diagonal(self) -> list:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        b = other.entries
        return Matrix(
            [[sum(row[k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
             for row in self.entries],
            self.rows, other.cols,
        )

    def determinant(self):
        """First-column cofactor expansion, memoized on the row subset.

        Each k x k block on the last k columns is expanded once per row
        subset, so an n x n determinant costs O(n 2^n) ring operations and
        no division.  A 0 x 0 matrix has no entry to name its ring, so its
        determinant raises ValueError.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError(f"determinant of a non-square {n}x{self.cols} matrix")
        if n == 0:
            raise ValueError("determinant of a 0x0 matrix: its ring is unknown")
        entries = self.entries
        cache: dict = {}

        def rec(rows: tuple, depth: int):
            # determinant of the square block entries[rows] x columns[depth:]
            if len(rows) == 1:
                return entries[rows[0]][depth]
            got = cache.get(rows)
            if got is not None:
                return got
            acc = None
            for pos, i in enumerate(rows):
                e = entries[i][depth]
                if not e:
                    continue
                term = e * rec(rows[:pos] + rows[pos + 1 :], depth + 1)
                if pos % 2:
                    term = -term
                acc = term if acc is None else acc + term
            if acc is None:  # a zero column: its entries are the ring's zero
                acc = entries[rows[0]][depth]
            cache[rows] = acc
            return acc

        return rec(tuple(range(n)), 0)

    def __repr__(self):
        return f"Matrix({self.entries!r})"


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
            # submatrix; folding an offending row in plants a remainder.  A
            # pivot of size 0 is a unit in K[t^±1] and F_p[t^±1] (over Z the
            # size is abs, never 0), so nothing can offend it.
            if size(a[t][t]) == 0:
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


def smith_normal_form_int(M: Matrix) -> tuple:
    """Smith normal form over Z.

    Returns (D, U, V) with U*M*V == D, U and V unimodular, D diagonal with
    nonnegative entries d_1 | d_2 | ... .
    """
    rows, cols = M.rows, M.cols
    # [[M, I_rows], [I_cols, 0]]: row operations carry U, column operations V
    a = [row + e for row, e in zip(M.entries, Matrix.identity(rows).entries)]
    a += [e + [0] * rows for e in Matrix.identity(cols).entries]
    rank = _eliminate(a, rows, cols, abs, divmod)
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return (
        Matrix([row[:cols] for row in a[:rows]], rows, cols),
        Matrix([row[cols:] for row in a[:rows]], rows, rows),
        Matrix([row[:cols] for row in a[rows:]], cols, cols),
    )


def iter_minors(M: Matrix, k: int):
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
