"""Rational functions over the integers and univariate polynomials over them.

The coefficient field here is the quotient field of Z[u_1, ..., u_k]
(equivalently of the corresponding Laurent ring, since monomials are units).
With k = 0 it degenerates to Q, so one code path covers both the
multi-component and the single-component ("one t variable over Q") cases.

Univariate polynomials over that field, with a lowest-exponent offset so
Laurent units t^k are free, form the principal ideal domain in which module
presentations get diagonalized.  The localized route runs over F_P
(modp.py); this exact arithmetic is its oracle.
"""

from __future__ import annotations

from typing import Sequence

from .laurent import LaurentPolynomial, exact_divide, _poly_gcd
from .matrices import Matrix, _eliminate


class RationalFunction:
    """num/den with multivariate integer-polynomial parts, kept canonical.

    Canonical form: num and den are ordinary polynomials (no negative
    exponents) with no common polynomial factor, not both divisible by any
    variable, and the lexicographically least monomial of den has a positive
    coefficient.  Structural equality then decides field equality.  Each
    instance sets its fields once and never rebinds them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial | None = None):
        if den is None:
            den = LaurentPolynomial.one(num.num_vars)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.num_vars != den.num_vars:
            raise ValueError("variable-count mismatch between num and den")
        self.num, self.den = _reduce(num, den)

    @classmethod
    def _trusted(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        """Wrap a num/den pair that is already canonical, unchecked."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @property
    def num_vars(self) -> int:
        return self.num.num_vars

    @classmethod
    def zero(cls, num_vars: int) -> "RationalFunction":
        return cls(LaurentPolynomial.zero(num_vars))

    @classmethod
    def one(cls, num_vars: int) -> "RationalFunction":
        return cls(LaurentPolynomial.one(num_vars))

    @classmethod
    def constant(cls, c: int, num_vars: int) -> "RationalFunction":
        return cls(LaurentPolynomial.constant(c, num_vars))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def __add__(self, other):
        other = self._checked(other)
        num = self.num * other.den + other.num * self.den
        return RationalFunction(num, self.den * other.den)

    def __neg__(self):
        return RationalFunction._trusted(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._checked(other))

    def __mul__(self, other):
        other = self._checked(other)
        # cross-cancel first: the parts stay small and a*c / (b*d) is canonical
        a, d = _reduce(self.num, other.den)
        c, b = _reduce(other.num, self.den)
        return RationalFunction._trusted(a * c, b * d)

    def __truediv__(self, other):
        other = self._checked(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction(other.den, other.num)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def _checked(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            raise TypeError(f"expected a RationalFunction, not {type(other).__name__}")
        if other.num_vars != self.num_vars:
            raise ValueError("variable-count mismatch")
        return other

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _reduce(num: LaurentPolynomial, den: LaurentPolynomial) -> tuple:
    """Bring num/den to canonical form (see class docstring)."""
    nv = num.num_vars
    if num.is_zero():
        return LaurentPolynomial.zero(nv), LaurentPolynomial.one(nv)
    # clear negative exponents jointly, then strip the joint monomial factor
    mins_n = num.min_exponents()
    mins_d = den.min_exponents()
    joint = tuple(map(min, mins_n, mins_d))
    num = num.shift(tuple(-x for x in joint))
    den = den.shift(tuple(-x for x in joint))
    g = _poly_gcd(num, den)
    if not (g.is_constant() and abs(g.constant_value()) == 1):
        qn = exact_divide(num, g)
        qd = exact_divide(den, g)
        assert qn is not None and qd is not None
        num, den = qn, qd
    least = min(den.terms)
    if den.terms[least] < 0:
        num, den = -num, -den
    return num, den


class UniPoly:
    """Univariate Laurent polynomial over a RationalFunction field.

    coeffs[i] is the coefficient of t^(low + i); the first and last entries
    are nonzero unless the polynomial is zero (empty coeffs, low == 0).
    Each instance sets its fields once and never rebinds them.
    """

    __slots__ = ("num_vars", "low", "coeffs")

    def __init__(self, num_vars: int, coeffs: Sequence[RationalFunction],
                 low: int = 0):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            low += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            low = 0
        for c in coeffs:
            if c.num_vars != num_vars:
                raise ValueError("coefficient variable count differs")
        self.num_vars = num_vars
        self.low = low
        self.coeffs = coeffs

    @classmethod
    def zero(cls, num_vars: int) -> "UniPoly":
        return cls(num_vars, [])

    @classmethod
    def one(cls, num_vars: int) -> "UniPoly":
        return cls(num_vars, [RationalFunction.one(num_vars)])

    @classmethod
    def t_power(cls, k: int, num_vars: int) -> "UniPoly":
        return cls(num_vars, [RationalFunction.one(num_vars)], low=k)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def spread(self) -> int:
        """Degree as a Laurent polynomial: top exponent minus bottom exponent."""
        if self.is_zero():
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def top(self) -> int:
        return self.low + len(self.coeffs) - 1

    def leading(self) -> RationalFunction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.low, other.low)
        hi = max(self.top(), other.top())
        out = [RationalFunction.zero(self.num_vars)] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - lo + i] = out[self.low - lo + i] + c
        for i, c in enumerate(other.coeffs):
            out[other.low - lo + i] = out[other.low - lo + i] + c
        return UniPoly(self.num_vars, out, lo)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.num_vars, [-c for c in self.coeffs], self.low)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            if other.is_zero():
                return UniPoly.zero(self.num_vars)
            return UniPoly(self.num_vars, [c * other for c in self.coeffs], self.low)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.num_vars)
        out = [RationalFunction.zero(self.num_vars)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.num_vars, out, self.low + other.low)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.num_vars == other.num_vars
            and self.low == other.low
            and self.coeffs == other.coeffs
        )

    def monic(self) -> "UniPoly":
        """Normalize to a monic ordinary polynomial (low exponent zero)."""
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return UniPoly(self.num_vars, [c * inv for c in self.coeffs], 0)

    def divmod_by(self, other: "UniPoly") -> tuple:
        """Division with remainder in the Laurent sense.

        Returns (q, r) with self == q*other + r and either r == 0 or the
        spread of r is strictly less than the spread of other.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return UniPoly.zero(self.num_vars), UniPoly.zero(self.num_vars)
        # work on the polynomial parts; reattach offsets at the end
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        lead_inv = other.leading().inverse()
        qcoeffs = [RationalFunction.zero(self.num_vars)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            dr = len(rem) - 1
            f = rem[-1] * lead_inv
            qcoeffs[dr - db] = f
            for j, b in enumerate(other.coeffs):
                idx = dr - db + j
                rem[idx] = rem[idx] - f * b
            while rem and rem[-1].is_zero():
                rem.pop()
        q = UniPoly(self.num_vars, qcoeffs, self.low - other.low)
        r = UniPoly(self.num_vars, rem, self.low)
        return q, r

    def __repr__(self):
        return f"UniPoly({self.num_vars}, {self.coeffs!r}, low={self.low})"


def grade_substitute(p: LaurentPolynomial, distinguished: int = 0) -> UniPoly:
    """Push a Laurent polynomial into the univariate ring over the fraction field.

    Applies t_i -> u_i * t with u = 1 for the distinguished variable: a term
    with exponent vector e lands in t-degree sum(e) with coefficient
    carrying the other exponents, in order, on the u side.  Distinct source
    monomials map to distinct (u-monomial, t-degree) pairs, so no
    cancellation occurs.
    """
    uvars = max(p.num_vars - 1, 0)
    if p.is_zero():
        return UniPoly.zero(uvars)
    buckets: dict = {}
    for e, c in p.terms.items():
        buckets.setdefault(sum(e), {})[e[:distinguished] + e[distinguished + 1:]] = c
    lo = min(buckets)
    hi = max(buckets)
    coeffs = []
    for k in range(lo, hi + 1):
        terms = buckets.get(k)
        if terms:
            coeffs.append(RationalFunction(LaurentPolynomial(uvars, terms)))
        else:
            coeffs.append(RationalFunction.zero(uvars))
    return UniPoly(uvars, coeffs, lo)


def diagonalize_over_pid(M: Matrix) -> tuple:
    """Invariant factors and free rank of the module presented by M.

    M presents coker(M): the quotient of the free module on the rows by the
    span of the columns.  Euclidean elimination (the coefficient ring is a
    field, so t-degree is a Euclidean function) produces diagonal entries
    d_1 | d_2 | ...; the monic non-unit entries are the invariant factors of
    the torsion part and free_rank = rows - rank.

    Returns (invariant_factors, free_rank).
    """
    a = [row[:] for row in M.entries]
    rank = _eliminate(a, M.rows, M.cols, UniPoly.spread, UniPoly.divmod_by, chain=True)
    factors = [a[t][t].monic() for t in range(rank) if a[t][t].spread() > 0]
    return factors, M.rows - rank
