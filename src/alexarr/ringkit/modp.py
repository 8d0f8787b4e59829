"""Laurent polynomials in one variable over F_P, P = FIELD, the one modulus.

F_P[t^{±1}] is a principal ideal domain with the t-spread as a Euclidean
function, so the one elimination kernel diagonalizes matrices over it.  A
multivariate integer Laurent polynomial reaches it by specialization:
t_i -> a_i * t^(psi_i), a_i nonzero mod P.  The localized degree route
specializes the Fox matrix at one random point and diagonalizes it; the
multivariate gcd's coprimality certificate specializes a pair at a fixed
point and diagonalizes the 1 x 2 matrix they form, the kernel's Euclid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .matrices import Matrix, _eliminate

if TYPE_CHECKING:  # laurent.py imports this module for its gcd certificate
    from .laurent import LaurentPolynomial

FIELD = (1 << 192) - (1 << 64) - 1  # prime (NIST P-192)


class ModPoly:
    """Laurent polynomial in t over F_P.

    coeffs[i] is the coefficient of t^(low + i), an int in [0, FIELD); the
    first and last entries are nonzero unless the polynomial is zero (empty
    coeffs, low == 0).  The constructor trims zeros but does not reduce.
    Instances never mutate (operations return new ones), so the inverse of
    the leading coefficient, kept in `_inv` from the first division by the
    instance, stays valid; it takes no part in equality or repr.
    """

    __slots__ = ("low", "coeffs", "_inv")

    def __init__(self, coeffs: list, low: int = 0):
        start, end = 0, len(coeffs)
        while start < end and not coeffs[start]:
            start += 1
        while end > start and not coeffs[end - 1]:
            end -= 1
        if start == end:
            coeffs, low = [], 0
        elif start or end < len(coeffs):
            coeffs, low = coeffs[start:end], low + start
        self.low = low
        self.coeffs = coeffs
        self._inv = 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def spread(self) -> int:
        """Top exponent minus bottom exponent."""
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def _plus(self, other: "ModPoly", sign: int) -> "ModPoly":
        a, b = self.coeffs, other.coeffs
        lo = min(self.low, other.low)
        out = [0] * (max(self.low + len(a), other.low + len(b)) - lo)
        out[self.low - lo : self.low - lo + len(a)] = a
        off = other.low - lo
        for i, c in enumerate(b):
            out[off + i] = (out[off + i] + sign * c) % FIELD
        return ModPoly(out, lo)

    def __add__(self, other: "ModPoly") -> "ModPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        return self._plus(other, -1)

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        a, b = self.coeffs, other.coeffs
        # a zero factor leaves no coefficient in either product below
        if len(a) == 1 or len(b) == 1:  # a scaled copy
            x, b = (a[0], b) if len(a) == 1 else (b[0], a)
            return ModPoly([x * y % FIELD for y in b], self.low + other.low)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return ModPoly([c % FIELD for c in out], self.low + other.low)

    def __eq__(self, other):
        if not isinstance(other, ModPoly):
            return NotImplemented
        return (self.low, self.coeffs) == (other.low, other.coeffs)

    def divmod_by(self, other: "ModPoly") -> tuple:
        """Division with remainder in the Laurent sense: (q, r) with
        self == q*other + r and either r == 0 or spread(r) < spread(other)."""
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        db = len(b) - 1
        inv = other._inv
        if not inv:
            inv = other._inv = pow(b[-1], -1, FIELD)
        q = [0] * max(len(rem) - db, 0)
        while len(rem) > db:
            off = len(rem) - 1 - db
            f = rem[-1] * inv % FIELD
            q[off] = f
            for j, y in enumerate(b):
                rem[off + j] = (rem[off + j] - f * y) % FIELD
            while rem and not rem[-1]:
                rem.pop()
        return ModPoly(q, self.low - other.low), ModPoly(rem, self.low)

    def __repr__(self):
        return f"ModPoly({self.coeffs!r}, low={self.low})"


def specialize(p: LaurentPolynomial, psi: Sequence[int], points: Sequence[int]) -> ModPoly:
    """The image of p under t_i -> points[i] * t^(psi[i]) in F_P[t^{±1}];
    negative exponents take inverses, so the points must be nonzero mod P."""
    buckets: dict = {}
    for e, c in p.terms.items():
        val = c
        deg = 0
        for x, a, w in zip(e, points, psi):
            if x:
                deg += w * x
                if a != 1:
                    val = val * pow(a, x, FIELD) % FIELD
        buckets[deg] = (buckets.get(deg, 0) + val) % FIELD
    if not buckets:
        return ModPoly([])
    lo = min(buckets)
    out = [0] * (max(buckets) - lo + 1)
    for deg, val in buckets.items():
        out[deg - lo] = val
    return ModPoly(out, lo)


def diagonalize_mod_p(M: Matrix) -> tuple:
    """The rank nonzero diagonal entries, units included, and the free rank
    of the module presented by M over F_P[t^{±1}].

    The elimination runs without the divisibility-chain scan, so the
    entries are a diagonal form, not the invariant factors (diag(t - 2,
    t + 3) stays, where the chain gives 1 and the product), and not monic.
    Only the free rank and the sum of the entries' spreads, the length of
    the torsion, are meaningful; any diagonal form gives both.
    """
    a = [row[:] for row in M.entries]
    rank = _eliminate(a, M.rows, M.cols, ModPoly.spread, ModPoly.divmod_by, chain=False)
    return [a[t][t] for t in range(rank)], M.rows - rank
