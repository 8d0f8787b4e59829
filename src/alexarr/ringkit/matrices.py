"""Matrices: one matrix type for Z, Z[H], K[t^±1] and F_P[t^±1] with its
generic determinant (the tests' reference), one Euclidean elimination
kernel, the integer Smith normal form built on it, and the minor
enumerator, which runs its own cofactor expansion over packed monomials."""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd
from typing import Iterable, Sequence


class Matrix:
    """Dense matrix over a commutative ring: Z, Z[H], K[t^±1] or F_P[t^±1].

    Entries are ints, LaurentPolynomials, UniPolys (over K = Q(u)) or
    ModPolys (over F_P); they test as zero by truth value, as in
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
        determinant raises ValueError.  It works over any of the rings
        above through their own operators, and is the generic reference
        that the tests compare `iter_minors` with; the minors themselves
        go through `iter_minors`' expansion over packed monomials.
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


def _eliminate(a: list, rows: int, cols: int, size, divide, *, chain: bool) -> int:
    """Diagonalize the leading rows x cols block of a in place; return its rank.

    Euclidean elimination over any ring with a Euclidean function `size` and
    a division with remainder `divide(x, y) -> (q, r)`; entries test as zero
    by truth value.  Each step divides once and keeps the remainder as the
    new entry in the pivot column (or row).  Within the leading block the
    rows and columns before t are already zero off the diagonal, so at step
    t a row operation runs right of the pivot column, out to the full width
    of a, and a column operation or swap below the pivot row, down to its
    full height: identity blocks bordering the leading block on the right
    and below still record the transforms.  Afterwards the block is
    diagonal, rank nonzero entries followed by zeros.

    With chain=True the entries form a divisibility chain d_1 | d_2 | ...
    | d_rank up to units: after clearing each pivot's row and column, every
    trailing entry is divided by the pivot, and an offending row is folded
    into the pivot row.  The callers that read the entries themselves need
    it: `smith_normal_form_int` (whose column transform gives abelianize's
    quotient map, so every reported polynomial depends on it) and
    `diagonalize_over_pid` (whose entries are the invariant factors).
    `diagonalize_mod_p` passes chain=False: its callers read only the rank
    and the entries' spreads, which any diagonal form gives.
    """
    width = len(a[0]) if a else 0

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
            for row in a[t:]:
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
            pivot_row = a[t]
            pivot = pivot_row[t]
            clean = True
            for i in range(t + 1, rows):
                row = a[i]
                if row[t]:
                    # row_i -= q * row_t
                    q, row[t] = divide(row[t], pivot)
                    for k in range(t + 1, width):
                        if pivot_row[k]:
                            row[k] -= q * pivot_row[k]
                    if row[t]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            below = a[t + 1 :]
            for j in range(t + 1, cols):
                if pivot_row[j]:
                    # col_j -= q * col_t
                    q, pivot_row[j] = divide(pivot_row[j], pivot)
                    for row in below:
                        if row[t]:
                            row[j] -= q * row[t]
                    if pivot_row[j]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            # divisibility chain: the pivot must divide the whole trailing
            # submatrix; folding an offending row in plants a remainder.  A
            # pivot of size 0 is a unit in K[t^±1] and F_P[t^±1] (over Z the
            # size is abs, never 0), so nothing can offend it.
            if not chain or size(pivot) == 0:
                break
            offender = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols)
                 if a[i][j] and divide(a[i][j], pivot)[1]),
                None,
            )
            if offender is None:
                break
            off_row = a[offender]
            for k in range(t + 1, width):
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
    rank = _eliminate(a, rows, cols, abs, divmod, chain=True)
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return (
        Matrix([row[:cols] for row in a[:rows]], rows, cols),
        Matrix([row[cols:] for row in a[:rows]], rows, rows),
        Matrix([row[:cols] for row in a[rows:]], cols, cols),
    )


def _spread_subsets(n: int, k: int):
    """Every k-subset of range(n), once each, as ascending tuples.

    Index j = 0, 1, ..., N - 1 (N = C(n, k)) visits rank (a*j) mod N, with
    a = round(N/phi) raised to the first integer coprime to N, so the walk
    is a bijection and consecutive subsets lie far apart in colex order.
    Each rank is unranked lazily in the combinatorial number system: the
    subset c_1 < ... < c_k with rank = C(c_1, 1) + ... + C(c_k, k).
    """
    binom = [[comb(c, i) for i in range(k + 1)] for c in range(n)]
    total = comb(n, k)
    step = round(total * (5 ** 0.5 - 1) / 2)
    while gcd(step, total) != 1:
        step += 1
    rank = 0
    for _ in range(total):
        r, c = rank, n - 1
        subset = [0] * k
        for i in range(k, 0, -1):
            while binom[c][i] > r:
                c -= 1
            subset[i - 1] = c
            r -= binom[c][i]
            c -= 1
        yield tuple(subset)
        rank = (rank + step) % total


def iter_minors(M: Matrix, k: int):
    """A lazy iterator over all k x k minor determinants of M, a matrix of
    LaurentPolynomials and ints.

    Deterministic order: row subsets lexicographic; for each, the column
    subsets in a fixed spread order (`_spread_subsets`), so that subsets
    visited one after another share few columns.  The degree route folds
    the minors of one row subset into `laurent_gcd`, which stops at the
    first unit; adjacent lexicographic column subsets share k - 1 columns
    and so common factors, which keep the running gcd a nonunit for
    thousands of minors.  The gcd of the family does not depend on the
    order.  Values are plain subdeterminants, columns ascending (no
    cofactor signs): LaurentPolynomials, or ints when M has no polynomial
    entry.  An out-of-range k raises ValueError at the call, not on the
    first next.

    Each minor is `Matrix.determinant`'s memoized cofactor expansion, run
    on term dicts whose keys are packed exponent vectors
    (`LaurentPolynomial._packed`; an int c is the one term {0: c}), at
    the width `LaurentPolynomial._pack_width` chooses from M's rows, so
    that every key of every block stays exact.  A block adds each product
    c1 * c2 (the cofactor sign folded into c1) into one dict, drops its
    zero coefficients once, and each minor is unpacked once.
    """
    if not 0 < k <= min(M.rows, M.cols):
        raise ValueError(f"minor size {k} out of range for {M.rows}x{M.cols} matrix")
    return _packed_minors(M, k)


def _packed_minors(M: Matrix, k: int):
    from .laurent import LaurentPolynomial  # laurent.py imports this module

    num_vars = next((e.num_vars for row in M.entries for e in row
                     if not isinstance(e, int)), None)
    width = LaurentPolynomial._pack_width(M.entries)
    packed = [[({0: e} if e else {}) if isinstance(e, int) else e._packed(width)
               for e in row] for row in M.entries]
    for ri in combinations(range(M.rows), k):
        for ci in _spread_subsets(M.cols, k):
            det = _packed_determinant(packed, ri, ci)
            if num_vars is None:
                yield det.get(0, 0)
            else:
                yield LaurentPolynomial._from_packed(num_vars, width, det)


def _packed_determinant(packed: list, rows: tuple, cols: tuple) -> dict:
    """The determinant of packed[rows][cols] as a packed term dict."""
    cache: dict = {}

    def rec(rows: tuple, depth: int) -> dict:
        # determinant of the square block packed[rows] x cols[depth:]
        if len(rows) == 1:
            return packed[rows[0]][cols[depth]]
        got = cache.get(rows)
        if got is not None:
            return got
        j = cols[depth]
        acc: dict = {}
        get = acc.get
        for pos, i in enumerate(rows):
            entry = packed[i][j]
            if not entry:
                continue
            rest = rec(rows[:pos] + rows[pos + 1 :], depth + 1)
            odd = pos % 2
            for k1, c1 in entry.items():
                if odd:
                    c1 = -c1
                for k2, c2 in rest.items():
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
        acc = {key: c for key, c in acc.items() if c}
        cache[rows] = acc
        return acc

    return rec(rows, 0)
