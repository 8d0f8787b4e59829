"""Fox free differential calculus and the abelianized derivative matrix.

The Fox derivative with respect to generator x_j is the linear operator on
the free group ring determined by

    d(1) = 0,    d(x_i) = delta_ij,    d(uv) = d(u) + u d(v).

A single left-to-right scan with prefix accumulation computes it: each
occurrence of x_j contributes +prefix, each occurrence of x_j^-1
contributes -prefix * x_j^-1 (with the prefix ending just before the
letter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .groups import AbelianizationData, Presentation, Word, free_reduce
from .ringkit import LaurentPolynomial, Matrix


class GroupRingElement:
    """Finite integer combination of freely reduced words (element of ZF_m)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        clean: dict = {}
        if terms:
            for letters, coeff in terms.items():
                if coeff:
                    key = free_reduce(letters)
                    c = clean.get(key, 0) + coeff
                    if c:
                        clean[key] = c
                    elif key in clean:
                        del clean[key]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({(): 1})

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "GroupRingElement":
        return cls({w.letters: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, 0) + c
            if s:
                terms[w] = s
            elif w in terms:
                del terms[w]
        return GroupRingElement(terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = free_reduce(w1 + w2)
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                elif key in terms:
                    del terms[key]
        return GroupRingElement(terms)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        bits = [f"{c}*{w}" for w, c in sorted(self.terms.items())]
        return "GroupRingElement(" + " + ".join(bits) + ")"


def fox_derivative(w: Word, j: int) -> GroupRingElement:
    """d(w)/d(x_j) in the free group ring."""
    if j < 0:
        raise IndexError("generator index out of range")
    terms: dict = {}

    def add(letters: tuple, coeff: int):
        s = terms.get(letters, 0) + coeff
        if s:
            terms[letters] = s
        elif letters in terms:
            del terms[letters]

    prefix: list = []
    target = j + 1
    for x in w.letters:
        if x == target:
            add(tuple(prefix), 1)
        elif x == -target:
            add(tuple(prefix) + (-target,), -1)
        prefix.append(x)
    return GroupRingElement(terms)


def check_fundamental_identity(w: Word, num_gens: int) -> bool:
    """Verify sum_j d(w)/d(x_j) * (x_j - 1) == w - 1 in the group ring."""
    if num_gens <= w.max_generator():
        raise IndexError("word references generators beyond num_gens")
    total = GroupRingElement.zero()
    for j in range(num_gens):
        d = fox_derivative(w, j)
        xj = GroupRingElement.from_word(Word.generator(j))
        total = total + d * (xj - GroupRingElement.one())
    expected = GroupRingElement.from_word(w) - GroupRingElement.one()
    return total == expected


# ----------------------------------------------------------------------
# abelianized matrix


def ring_image(el: GroupRingElement, ab: AbelianizationData) -> LaurentPolynomial:
    """Push a group ring element through the abelianization."""
    terms: dict = {}
    for letters, coeff in el.terms.items():
        e = ab.word_image(Word(letters))
        terms[e] = terms.get(e, 0) + coeff
    return LaurentPolynomial(ab.s, terms)


@dataclass(frozen=True)
class AlexanderMatrix:
    """Abelianized Fox derivative matrix of a presentation.

    Rows are indexed by generators, columns by relators: the (i, j) entry is
    the image of d(r_j)/d(x_i) in Z[t_1^{±1}, ..., t_s^{±1}].  This is the
    presentation matrix of the module of the pair (columns map into the free
    module on the generators).
    """

    matrix: Matrix
    presentation: Presentation
    ab: AbelianizationData

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    @property
    def num_vars(self) -> int:
        return self.ab.s

    def column_identity_holds(self, j: int) -> bool:
        """Check sum_i entry(i, j) * (monomial(x_i) - 1) == 0 for column j."""
        s = self.ab.s
        acc = LaurentPolynomial.zero(s)
        one = LaurentPolynomial.one(s)
        for i in range(self.rows):
            gen_mono = LaurentPolynomial.monomial(1, self.ab.quotient_map[i])
            acc = acc + self.matrix.entries[i][j] * (gen_mono - one)
        return acc.is_zero()


def alexander_matrix(p: Presentation, ab: AbelianizationData | None = None) -> AlexanderMatrix:
    from .groups import abelianize

    if ab is None:
        ab = abelianize(p)
    m = p.num_gens
    q = p.num_relators
    entries = [[None] * q for _ in range(m)]
    for j, rel in enumerate(p.relators):
        for i in range(m):
            entries[i][j] = ring_image(fox_derivative(rel, i), ab)
    return AlexanderMatrix(Matrix(entries, m, q), p, ab)
