"""Laurent polynomials in one variable over Z/n, by default n = p = 2^61 - 1.

F_p[t^{±1}] is a principal ideal domain with the t-spread as a Euclidean
function, so the one elimination kernel diagonalizes matrices over it.  A
multivariate integer Laurent polynomial reaches it by specialization:
t_i -> a_i * t^(psi_i) with the a_i units mod n.  The localized degree route
specializes the Fox matrix at one random point mod the 192-bit prime
alexinv.FIELD and diagonalizes it; the multivariate gcd specializes a pair
at fixed points mod p for its coprimality certificate and diagonalizes the
1 x 2 matrix they form, the kernel's Euclid for their gcd.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .matrices import Matrix, _eliminate

if TYPE_CHECKING:  # laurent.py imports this module for its gcd certificate
    from .laurent import LaurentPolynomial

PRIME = (1 << 61) - 1


class ModPoly:
    """Laurent polynomial in t over Z/mod.

    coeffs[i] is the coefficient of t^(low + i), an int in [0, mod); the
    first and last entries are nonzero unless the polynomial is zero (empty
    coeffs, low == 0).  The constructor trims zeros but does not reduce.
    """

    __slots__ = ("low", "coeffs", "mod")

    def __init__(self, coeffs: list, low: int = 0, mod: int = PRIME):
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
        self.mod = mod

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def spread(self) -> int:
        """Top exponent minus bottom exponent."""
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def _plus(self, other: "ModPoly", sign: int) -> "ModPoly":
        a, b, n = self.coeffs, other.coeffs, self.mod
        if not b:
            return self
        lo = min(self.low, other.low)
        out = [0] * (max(self.low + len(a), other.low + len(b)) - lo)
        out[self.low - lo : self.low - lo + len(a)] = a
        off = other.low - lo
        for i, c in enumerate(b):
            out[off + i] = (out[off + i] + sign * c) % n
        return ModPoly(out, lo, n)

    def __add__(self, other: "ModPoly") -> "ModPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        return self._plus(other, -1)

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        a, b, n = self.coeffs, other.coeffs, self.mod
        if not a or not b:
            return ModPoly([], 0, n)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return ModPoly([c % n for c in out], self.low + other.low, n)

    def __eq__(self, other):
        if not isinstance(other, ModPoly):
            return NotImplemented
        return (self.low, self.coeffs, self.mod) == (other.low, other.coeffs, other.mod)

    def divmod_by(self, other: "ModPoly") -> tuple:
        """Division with remainder in the Laurent sense.

        Returns (q, r) with self == q*other + r and either r == 0 or the
        spread of r strictly less than the spread of other; ValueError if
        the leading coefficient of other is not a unit.
        """
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        rem, n = list(self.coeffs), self.mod
        db = len(b) - 1
        inv = pow(b[-1], -1, n)
        q = [0] * max(len(rem) - db, 0)
        while len(rem) > db:
            off = len(rem) - 1 - db
            f = rem[-1] * inv % n
            q[off] = f
            for j, y in enumerate(b):
                rem[off + j] = (rem[off + j] - f * y) % n
            while rem and not rem[-1]:
                rem.pop()
        return ModPoly(q, self.low - other.low, n), ModPoly(rem, self.low, n)

    def __repr__(self):
        return f"ModPoly({self.coeffs!r}, low={self.low}, mod={self.mod})"


def specialize(p: LaurentPolynomial, psi: Sequence[int], points: Sequence[int],
               mod: int = PRIME) -> ModPoly:
    """The image of p under t_i -> points[i] * t^(psi[i]) in (Z/mod)[t^{±1}].

    Negative exponents take inverses, so the points must be units mod mod.
    """
    buckets: dict = {}
    for e, c in p.terms.items():
        val = c
        deg = 0
        for x, a, w in zip(e, points, psi):
            if x:
                deg += w * x
                if a != 1:
                    val = val * pow(a, x, mod) % mod
        buckets[deg] = (buckets.get(deg, 0) + val) % mod
    if not buckets:
        return ModPoly([], 0, mod)
    lo = min(buckets)
    out = [0] * (max(buckets) - lo + 1)
    for deg, val in buckets.items():
        out[deg - lo] = val
    return ModPoly(out, lo, mod)


def diagonalize_mod_p(M: Matrix) -> tuple:
    """The rank nonzero diagonal entries, units included, and the free rank
    of the module presented by M over (Z/n)[t^{±1}], n the entries' modulus.

    The elimination runs without the divisibility-chain scan, so the
    entries are a diagonal form, not the invariant factors (diag(t - 2,
    t + 3) stays, where the chain gives 1 and the product), and not monic.
    Only the free rank and the sum of the entries' spreads, the length of
    the torsion, are meaningful; any diagonal form gives both.
    """
    a = [row[:] for row in M.entries]
    rank = _eliminate(a, M.rows, M.cols, ModPoly.spread, ModPoly.divmod_by, chain=False)
    return [a[t][t] for t in range(rank)], M.rows - rank
