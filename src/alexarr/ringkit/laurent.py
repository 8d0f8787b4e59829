"""Exact multivariate Laurent polynomials over arbitrary-precision integers.

A Laurent polynomial in m variables t_1, ..., t_m is stored as a sparse map
from exponent vectors (length-m tuples of signed ints) to nonzero integer
coefficients.  All arithmetic is exact; coefficients are Python ints and
never overflow.

The units of the ring Z[t_1^{±1}, ..., t_m^{±1}] are the signed monomials
±t^e.  Quantities that are only defined up to units (polynomial gcds) are
returned in the normal form produced by :func:`unit_normalize`: the minimal
exponent of every variable is zero and the leading (graded-lex greatest)
monomial has a positive coefficient, so canonical strings lead with a
positive term.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, isqrt
from operator import add as _add, lt as _lt, sub as _sub
from typing import Iterable, Mapping

from .matrices import Matrix
from .modp import FIELD, ModPoly, diagonalize_mod_p, specialize


class LaurentPolynomial:
    """Sparse Laurent polynomial with integer coefficients.

    Each instance sets its fields once and never rebinds them; the term
    dict is not changed in place after construction.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, int] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != num_vars:
                    raise ValueError(
                        f"exponent vector {exps!r} has length {len(exps)}, expected {num_vars}"
                    )
                if coeff:
                    clean[tuple(exps)] = coeff
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict) -> "LaurentPolynomial":
        """Wrap a term dict that is already clean, unscanned: every key a
        length-num_vars tuple, every coefficient nonzero.  The arithmetic
        below builds such dicts itself."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    # Packed exponent vectors (Monagan and Pearce 2007): (e_1, ..., e_m)
    # packs into the one int e_1 + e_2 2^W + ... + e_m 2^((m-1)W), balanced
    # radix 2^W with signed digits.  While every |e_i| < 2^(W-1) the packing
    # is one-to-one and adding two keys adds the vectors without a carry, so
    # a product of terms adds ints instead of building tuples.

    @staticmethod
    def _pack_width(rows) -> int:
        """The width W that packs exactly every sum of term exponents
        taken at most one from each row, as is every term of a minor and
        of each block in its expansion.  rows hold LaurentPolynomials and
        ints (an int's exponent is 0).  Each entry of such a sum is at
        most B, the sum over rows of the row's largest |exponent|, and
        B < 2^(W-1) for W = bit_length(B) + 1."""
        bound = sum(max((abs(x) for e in row if not isinstance(e, int)
                         for key in e.terms for x in key), default=0)
                    for row in rows)
        return bound.bit_length() + 1

    def _packed(self, width: int) -> dict:
        """The term dict with each exponent vector packed at width."""
        packed = {}
        for e, c in self.terms.items():
            key = 0
            for x in reversed(e):
                key = (key << width) + x
            packed[key] = c
        return packed

    @classmethod
    def _from_packed(cls, num_vars: int, width: int, packed: dict) -> "LaurentPolynomial":
        """Unpack a term dict of nonzero coefficients packed at width:
        adding 2^(W-1) to every digit leaves digits 0 .. 2^W - 1 to mask out."""
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        shifts = range(0, num_vars * width, width)
        bias = sum(half << s for s in shifts)
        return cls._trusted(num_vars, {
            tuple([(((key + bias) >> s) & mask) - half for s in shifts]): c
            for key, c in packed.items()})

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, num_vars: int) -> "LaurentPolynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, c: int, num_vars: int) -> "LaurentPolynomial":
        if c == 0:
            return cls.zero(num_vars)
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def one(cls, num_vars: int) -> "LaurentPolynomial":
        return cls.constant(1, num_vars)

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "LaurentPolynomial":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        exps = [0] * num_vars
        exps[index] = 1
        return cls(num_vars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, coeff: int, exps: Iterable[int]) -> "LaurentPolynomial":
        e = tuple(exps)
        return cls(len(e), {e: coeff})

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_unit(self) -> bool:
        """True iff the polynomial is ±(a single monomial)."""
        if len(self.terms) != 1:
            return False
        (coeff,) = self.terms.values()
        return coeff in (1, -1)

    def constant_value(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[(0,) * self.num_vars]

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other: "LaurentPolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable-count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other, self.num_vars)
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPolynomial._trusted(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other, self.num_vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial.zero(self.num_vars)
            return LaurentPolynomial._trusted(
                self.num_vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check_compatible(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(_add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return LaurentPolynomial._trusted(self.num_vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative powers only defined for unit monomials")
            ((e, c),) = self.terms.items()
            return LaurentPolynomial(
                self.num_vars, {tuple(x * n for x in e): c if n % 2 else 1}
            )
        result = LaurentPolynomial.one(self.num_vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    # ------------------------------------------------------------------
    # structure

    def min_exponents(self) -> tuple:
        """Componentwise minimum exponent vector over all terms (zero poly -> zeros)."""
        if self.is_zero():
            return (0,) * self.num_vars
        return tuple(map(min, zip(*self.terms)))

    def max_degree_in(self, k: int) -> int:
        return max((e[k] for e in self.terms), default=0)

    def shift(self, offsets: tuple) -> "LaurentPolynomial":
        """Multiply by the monomial t^offsets."""
        return LaurentPolynomial._trusted(
            self.num_vars,
            {tuple(map(_add, e, offsets)): c for e, c in self.terms.items()},
        )

    def permute_variables(self, perm: Iterable[int]) -> "LaurentPolynomial":
        """Relabel variables: new variable i carries old variable perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.num_vars)):
            raise ValueError("perm must be a permutation of the variable indices")
        return LaurentPolynomial(
            self.num_vars,
            {tuple(e[p] for p in perm): c for e, c in self.terms.items()},
        )

    def integer_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = _int_gcd(g, c)
            if g == 1:
                return 1
        return g

    # ------------------------------------------------------------------
    # rendering

    def format(self) -> str:
        """Render in graded-lexicographic order, highest monomials first,
        the variables named t1, t2, ..."""
        if self.is_zero():
            return "0"
        names = [f"t{i + 1}" for i in range(self.num_vars)]
        items = sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
        pieces = []
        for e, c in items:
            factors = [
                names[i] if x == 1 else f"{names[i]}^{x}"
                for i, x in enumerate(e)
                if x != 0
            ]
            body = "*".join(factors)
            if not body:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            if not pieces:
                pieces.append(text if c > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(pieces)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"LaurentPolynomial({self.num_vars}, {self.format()!r})"


# ----------------------------------------------------------------------
# degree


def degree_spread(p: LaurentPolynomial) -> int:
    """Max total exponent sum minus min total exponent sum over the terms.

    Unchanged under multiplication by units, so it descends to quantities
    defined only up to units.  Undefined (raises) for the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("degree spread of the zero polynomial is undefined")
    sums = [sum(e) for e in p.terms]
    return max(sums) - min(sums)


# ----------------------------------------------------------------------
# unit normalization


def unit_normalize(p: LaurentPolynomial) -> LaurentPolynomial:
    """Canonical representative of p up to multiplication by units ±t^e.

    The monomial factor is stripped so every variable has minimal exponent
    zero, and the sign is fixed so the graded-lex leading monomial has a
    positive coefficient.
    """
    q = _poly_part(p)
    if q and q.terms[max(q.terms, key=_grlex_key)] < 0:
        return -q
    return q


def _poly_part(p: LaurentPolynomial) -> LaurentPolynomial:
    """Strip the monomial factor only (no sign change): all exponents >= 0."""
    if p.is_zero():
        return p
    mins = p.min_exponents()
    if all(x == 0 for x in mins):
        return p
    return p.shift(tuple(-x for x in mins))


# ----------------------------------------------------------------------
# exact division

def _grlex_key(e: tuple):
    return (sum(e), e)


def _heap_entry(e: tuple) -> tuple:
    """Min-heap entry that pops e in decreasing graded-lex order."""
    return (-sum(e), tuple(-x for x in e), e)


def exact_divide(p: LaurentPolynomial, d: LaurentPolynomial) -> LaurentPolynomial | None:
    """Return q with q*d == p, or None when d does not divide p exactly.

    Single-divisor division in graded-lex order.  Over an integral domain
    the leading term of an exact quotient is forced at every step, so the
    algorithm never backtracks: any failure (monomial or coefficient
    non-divisibility) proves d does not divide p.  The remainder's keys sit
    in a max-heap (Johnson 1974): a key that enters the remainder is below
    the current lead, so each step pops the next lead, skipping keys that
    have since cancelled, instead of scanning the whole remainder.
    """
    p._check_compatible(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPolynomial.zero(p.num_vars)
    # the steps of dividing the polynomial parts of p and d, without
    # building them: graded-lex order does not change under a shift, and
    # an exponent >= 0 in the parts' quotient is one >= lo here
    lo = tuple(map(_sub, p.min_exponents(), d.min_exponents()))
    lead_d = max(d.terms, key=_grlex_key)
    cd = d.terms[lead_d]
    rem = dict(p.terms)
    heap = [_heap_entry(key) for key in rem]
    heapify(heap)
    q: dict = {}
    while rem:
        lead_r = heappop(heap)[2]
        cr = rem.get(lead_r)
        if cr is None:
            continue
        e = tuple(map(_sub, lead_r, lead_d))
        if any(map(_lt, e, lo)) or cr % cd:
            return None
        c = cr // cd
        q[e] = c
        for ed, cdd in d.terms.items():
            key = tuple(map(_add, e, ed))
            step = c * cdd
            old = rem.get(key)
            if old is None:
                rem[key] = -step
                heappush(heap, _heap_entry(key))
            elif old != step:
                rem[key] = old - step
            else:
                del rem[key]
    # the keys are distinct (the lead falls) and the coefficients nonzero
    return LaurentPolynomial._trusted(p.num_vars, q)


def _binomial_quotient(p: LaurentPolynomial, a: tuple) -> LaurentPolynomial | None:
    """p / (t^a - 1) for a nonzero exponent vector a, or None when the
    division is not exact; O(terms) to decide, O(terms + span) to divide.

    The terms of p fall into fibers e + Z a, each a polynomial f(y) in
    y = t^a: with j the first index where a_j != 0, the term t^e is
    c_k y^k t^base for k = floor(e_j / a_j) and base = e - k a.  y - 1
    divides f iff f(1) = 0, so the division is exact iff every fiber's
    coefficients sum to zero, and a nonzero sum over all of p rules it out
    before any fiber is formed.  In an exact fiber, synthetic division from
    the top gives q_{k-1} = c_k + q_k.  Only the coordinates where a is
    nonzero are rewritten: one, for the unit vectors the gcd passes and,
    on swept arrangements, the Fox formula too."""
    if sum(p.terms.values()):
        return None
    moving = [(i, x) for i, x in enumerate(a) if x]
    j, aj = moving[0]
    fibers: dict = {}
    for e, c in p.terms.items():
        k = e[j] // aj
        base = list(e)
        for i, x in moving:
            base[i] -= k * x
        fibers.setdefault(tuple(base), {})[k] = c
    if any(sum(fiber.values()) for fiber in fibers.values()):
        return None
    q = {}
    for base, fiber in fibers.items():
        run = 0
        key = list(base)
        for k in range(max(fiber), min(fiber), -1):
            run += fiber.get(k, 0)
            if run:
                for i, x in moving:
                    key[i] = base[i] + (k - 1) * x
                q[tuple(key)] = run
    return LaurentPolynomial._trusted(p.num_vars, q)


# ----------------------------------------------------------------------
# multivariate gcd
#
# Monomial operands and the common monomial factor are handled directly,
# and two operands in one variable alone go to GCDHEU.  Otherwise each
# operand gives up, by synthetic division, its power of every binomial
# x_k - 1 with x_k in both: the degree route's minors are full of them
# (the Fox formula divides by one), and the gcd takes the smaller power.
# Then a modular certificate (Zippel 1979), one fixed point per variable,
# tries to prove the cofactors coprime in every variable they share; on
# the degree route's inputs it nearly always does, and the gcd is the
# binomial part times an integer.  The certificate is one-sided: where it
# fails, a recursive content / primitive-part reduction runs.  It reads
# each cofactor, as it is, as a polynomial in the highest variable x_k
# over the ring of the other variables.  ``_lead`` gives the degree in x_k
# and the coefficient there; the content is the gcd of the coefficients,
# peeled off from the top; the primitive part is one exact division by the
# content.  A subresultant pseudo-remainder sequence (Collins; Brown and
# Traub) on the primitive parts gives the primitive gcd.


def _lead(p: LaurentPolynomial, k: int) -> tuple:
    """(degree of nonzero p in variable k, its coefficient there with
    x_k at exponent 0)."""
    d = p.max_degree_in(k)
    return d, LaurentPolynomial._trusted(
        p.num_vars, {e[:k] + (0,) + e[k + 1 :]: c for e, c in p.terms.items() if e[k] == d}
    )


def _var_power(k: int, d: int, num_vars: int) -> tuple:
    """The exponent vector of x_k^d."""
    return (0,) * k + (d,) + (0,) * (num_vars - k - 1)


def _content(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """gcd of the coefficients of nonzero p in variable k, from the top."""
    g = None
    while p:
        d, c = _lead(p, k)
        g = c if g is None else _poly_gcd(g, c)
        if g.is_constant() and abs(g.constant_value()) == 1:
            break
        p = p - c.shift(_var_power(k, d, p.num_vars))
    return g


def _primitive(p: LaurentPolynomial, k: int) -> tuple:
    """(content, primitive part) of nonzero p in variable k."""
    cont = _content(p, k)
    if cont.is_constant() and abs(cont.constant_value()) == 1:
        return cont, p * cont.constant_value()
    quot = exact_divide(p, cont)
    assert quot is not None, "content must divide the polynomial"
    return cont, quot


def _pseudo_rem(a: LaurentPolynomial, b: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """Exact pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in variable k."""
    db, lcb = _lead(b, k)
    steps = a.max_degree_in(k) - db + 1
    r = a
    used = 0
    while r:
        dr, lcr = _lead(r, k)
        if dr < db:
            break
        r = r * lcb - (b * lcr).shift(_var_power(k, dr - db, r.num_vars))
        used += 1
    # pad to the exact prem power so subresultant divisions stay exact
    return r * lcb ** (steps - used)


def _subresultant_prs(a: LaurentPolynomial, b: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """Last nonzero element of the subresultant PRS of primitive a, b in variable k."""
    g = h = LaurentPolynomial.one(a.num_vars)
    while True:
        delta = a.max_degree_in(k) - b.max_degree_in(k)
        r = _pseudo_rem(a, b, k)
        if not r:
            return b
        nxt = exact_divide(r, g * h ** delta)
        assert nxt is not None, "subresultant division must be exact"
        a, b = b, nxt
        g = _lead(a, k)[1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_divide(g ** delta, h ** (delta - 1))
            assert h is not None
        # delta == 0 leaves h unchanged


def _specialized_coeffs(p: LaurentPolynomial, main: int, points: list) -> ModPoly | None:
    """p as a polynomial in the main variable over F_P, the other variables
    evaluated at points.  None when the top coefficient collapses (the
    certificate would be unsound)."""
    psi = [int(i == main) for i in range(p.num_vars)]
    image = specialize(p, psi, points[:main] + [1] + points[main + 1 :])
    if not image or image.low + image.spread() != p.max_degree_in(main):
        return None
    return image


def _gcd_free_of(p: LaurentPolynomial, q: LaurentPolynomial, main: int) -> bool:
    """Sound one-sided test: True proves gcd(p, q) has degree 0 in variable
    main.  Specializing the other variables at one fixed point maps the
    true gcd onto a divisor of the specialized gcd as long as the leading
    coefficients survive, so a degree-zero specialized gcd is a
    certificate.  The degree is the ordinary one, powers of the main
    variable included: the constant coefficient may collapse, so a shared
    power of the main variable gives False, and otherwise the Laurent gcd,
    the entry that `diagonalize_mod_p` finds, must be a unit.  A collapsed
    leading coefficient gives False.  `_poly_gcd` asks it about every
    variable two cofactors share once their binomials x_k - 1 are out (a
    common factor x_k - 1 involves no other variable, so it survives every
    specialization and would give False in k); True in every shared
    variable proves the cofactors coprime.  False only sends the caller to
    the content / primitive-part reduction."""
    points = [pow(5, 7 * i + 1, FIELD) % 1000003 + 2 for i in range(p.num_vars)]
    ca = _specialized_coeffs(p, main, points)
    cb = _specialized_coeffs(q, main, points)
    if ca is None or cb is None or min(ca.low, cb.low) > 0:
        return False
    (gcd,), _ = diagonalize_mod_p(Matrix([[ca, cb]], 1, 2))
    return not gcd.spread()


def _highest_variable(p: LaurentPolynomial, q: LaurentPolynomial) -> int:
    """The highest variable of positive degree in p or q (not both constant)."""
    return next(k for k in reversed(range(p.num_vars))
                if p.max_degree_in(k) > 0 or q.max_degree_in(k) > 0)


def _shared_variables(p: LaurentPolynomial, q: LaurentPolynomial) -> list:
    """The variables of positive degree in both p and q, in increasing order."""
    return [k for k, (dp, dq) in enumerate(zip(map(max, zip(*p.terms)), map(max, zip(*q.terms))))
            if dp > 0 and dq > 0]


def _binomial_power(p: LaurentPolynomial, k: int) -> tuple:
    """(p / (x_k - 1)^n, n) for the largest n with (x_k - 1)^n dividing p."""
    a = _var_power(k, 1, p.num_vars)
    n = 0
    while (quotient := _binomial_quotient(p, a)) is not None:
        p, n = quotient, n + 1
    return p, n


def _monomial_gcd_with(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """gcd when p is a single term: common monomial times integer content gcd."""
    ((e, c),) = p.terms.items()
    common = tuple(map(min, e, q.min_exponents()))
    coeff = _int_gcd(abs(c), q.integer_content())
    return LaurentPolynomial.monomial(coeff, common)


def _dense_divides(d: list, p: list) -> bool:
    """Whether d divides p in Z[x]; both dense, lowest degree first, with
    nonzero top coefficients."""
    r = p[:]
    n = len(d) - 1
    for i in range(len(r) - 1, n - 1, -1):
        if r[i]:
            c, m = divmod(r[i], d[-1])
            if m:
                return False
            for j, dj in enumerate(d):
                r[i - n + j] -= c * dj
    return not any(r[:n])


def _heuristic_gcd(p: LaurentPolynomial, q: LaurentPolynomial, k: int) -> LaurentPolynomial | None:
    """gcd of p and q, polynomials in variable k alone, by GCDHEU (Char,
    Geddes and Gonnet 1989), or None if six evaluation points all fail.

    With f, g the primitive parts, the integer gcd of f(xi) and g(xi),
    read in balanced base xi, gives a candidate polynomial; for
    xi >= 2 min(|f|, |g|) + 2 (max-norms), its primitive part h is
    gcd(f, g) as soon as it divides both f and g.  That trial division
    in Z[x] makes the answer exact; a failed point only costs a retry.
    """
    nv = p.num_vars
    f, g = ([0] * (x.max_degree_in(k) + 1) for x in (p, q))
    for x, dense in ((p, f), (q, g)):
        content = x.integer_content()
        for e, c in x.terms.items():
            dense[e[k]] = c // content
    cont = _int_gcd(p.integer_content(), q.integer_content())
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(6):
        fx = gx = 0
        for c in reversed(f):
            fx = fx * xi + c
        for c in reversed(g):
            gx = gx * xi + c
        if fx and gx:
            v = _int_gcd(fx, gx)
            h = []
            while v:
                c = v % xi
                if 2 * c > xi:
                    c -= xi
                h.append(c)
                v = (v - c) // xi
            hc = _int_gcd(*h)
            h = [c // hc for c in h]
            if _dense_divides(h, f) and _dense_divides(h, g):
                return LaurentPolynomial._trusted(
                    nv, {_var_power(k, i, nv): cont * c for i, c in enumerate(h) if c}
                )
        # the paper's growth step, about 2.7 xi^(5/4): it outruns fixed
        # divisors of the cofactors' values that a doubling keeps meeting
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _poly_gcd(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """gcd of two polynomials with nonnegative exponents, up to sign."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.terms == q.terms or p.terms == (-q).terms:
        return p
    if p.is_monomial():
        return _monomial_gcd_with(p, q)
    if q.is_monomial():
        return _monomial_gcd_with(q, p)

    # strip the common monomial factor; it multiplies back in at the end
    mp = p.min_exponents()
    mq = q.min_exponents()
    common = tuple(map(min, mp, mq))
    if any(common):
        return _poly_gcd(
            p.shift(tuple(-x for x in common)), q.shift(tuple(-x for x in common))
        ).shift(common)

    # two or more terms each, no common monomial: some degree is positive
    n = p.num_vars
    main = _highest_variable(p, q)
    if all(e[main] == sum(e) for e in (*p.terms, *q.terms)):
        g = _heuristic_gcd(p, q, main)
        if g is not None:
            return g

    part = LaurentPolynomial.one(n)
    for k in _shared_variables(p, q):
        p, i = _binomial_power(p, k)
        q, j = _binomial_power(q, k)
        if min(i, j):
            part = part * (LaurentPolynomial.variable(k, n) - 1) ** min(i, j)
    blocked = next((k for k in reversed(_shared_variables(p, q))
                    if not _gcd_free_of(p, q, k)), None)
    if blocked is None:
        return part * _int_gcd(p.integer_content(), q.integer_content())

    main = _highest_variable(p, q)
    if p.max_degree_in(main) == 0:
        return part * _poly_gcd(p, _content(q, main))
    if q.max_degree_in(main) == 0:
        return part * _poly_gcd(_content(p, main), q)
    if main != blocked:  # certified above: the gcd is free of main
        return part * _poly_gcd(_content(p, main), _content(q, main))

    cp, a = _primitive(p, main)
    cq, b = _primitive(q, main)
    cont = _poly_gcd(cp, cq)
    if a.max_degree_in(main) < b.max_degree_in(main):
        a, b = b, a
    return part * cont * _primitive(_subresultant_prs(a, b, main), main)[1]


def laurent_gcd(ps: Iterable[LaurentPolynomial]) -> LaurentPolynomial:
    """gcd of a family of Laurent polynomials, in unit-normal form.

    The input is consumed lazily and the fold stops as soon as the running
    gcd becomes a unit, so callers may feed an expensive generator (minor
    enumeration) and pay only for the prefix that matters.  A running gcd
    that divides the next term exactly is kept without a `_poly_gcd` call:
    on some inputs it sticks at a small factor (a binomial) for a hundred
    large terms, and the exact division costs far less.  The gcd of an
    all-zero family is zero.
    """
    it = iter(ps)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("gcd of an empty family") from None
    num_vars = first.num_vars
    g: LaurentPolynomial | None = None if first.is_zero() else _poly_part(first)
    if g is None or not g.is_unit():
        for p in it:
            if p.num_vars != num_vars:
                raise ValueError("variable-count mismatch in gcd input")
            if p.is_zero():
                continue
            phat = _poly_part(p)
            if g is None:
                g = phat
            elif exact_divide(phat, g) is None:
                g = _poly_gcd(g, phat)
            if g.is_unit():
                break
    if g is None:
        return LaurentPolynomial.zero(num_vars)
    return unit_normalize(g)
