"""Fox free differential calculus and the abelianized derivative matrix.

The Fox derivative with respect to generator x_j is the linear operator on
the free group ring determined by

    d(1) = 0,    d(x_i) = delta_ij,    d(uv) = d(u) + u d(v).

A single left-to-right scan with prefix accumulation computes it: each
occurrence of x_j contributes +prefix, each occurrence of x_j^-1
contributes -prefix * x_j^-1 (with the prefix ending just before the
letter).

`alexander_matrix` needs only the images of the derivatives in Z[H], so it
runs that scan once per relator for all generators at once, with the
prefix replaced by its image e in H = Z^s: a letter x_i adds +t^e to row
i and then moves e by the image q_i of x_i; a letter x_i^-1 first moves e
by -q_i and then adds -t^e to row i.  No free-group-ring element is built.
The calculus in the free group ring (`GroupRingElement`, `fox_derivative`,
`ring_image`) stays as the oracle the tests check the matrix against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Iterable

from .groups import AbelianizationData, Presentation, Word, abelianize, free_reduce
from .ringkit import LaurentPolynomial, Matrix


class GroupRingElement:
    """Finite integer combination of freely reduced words (element of ZF_m).

    Built from (letters, coefficient) pairs by the one merge loop: the
    constructor reduces each word, adds equal words and drops zero sums.
    Each instance sets its terms once and never rebinds them.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs: Iterable[tuple] = ()):
        clean: dict = {}
        for letters, coeff in pairs:
            key = free_reduce(letters)
            c = clean.get(key, 0) + coeff
            if c:
                clean[key] = c
            else:
                clean.pop(key, None)
        self.terms = clean

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls([((), 1)])

    @classmethod
    def from_word(cls, w: Word) -> "GroupRingElement":
        return cls([(w.letters, 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement([*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement((w, -c) for w, c in self.terms.items())

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        )

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        bits = [f"{c}*{w}" for w, c in sorted(self.terms.items())]
        return "GroupRingElement(" + " + ".join(bits) + ")"


def fox_derivative(w: Word, j: int) -> GroupRingElement:
    """d(w)/d(x_j) in the free group ring."""
    if j < 0:
        raise IndexError("generator index out of range")
    target = j + 1
    letters = w.letters
    return GroupRingElement(
        (letters[:k], 1) if x == target else (letters[: k + 1], -1)
        for k, x in enumerate(letters)
        if x == target or x == -target
    )


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
    module on the generators).  `ab` is the abelianization the entries live
    over: its s variables and the generators' images in Z^s.
    """

    matrix: Matrix
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
    """The abelianized Fox matrix, one prefix scan per relator (see the
    module docstring); entry (i, j) equals ring_image(fox_derivative(r_j, i))."""
    if ab is None:
        ab = abelianize(p)
    m, s = p.num_gens, ab.s
    qmap = ab.quotient_map
    columns = []
    for rel in p.relators:
        column = [{} for _ in range(m)]
        e = (0,) * s
        for x in rel.letters:
            if x < 0:
                e = tuple(map(sub, e, qmap[-x - 1]))
            terms = column[abs(x) - 1]
            c = terms.get(e, 0) + (1 if x > 0 else -1)
            if c:
                terms[e] = c
            else:  # a +-1 summing to 0 cancels a term already there
                del terms[e]
            if x > 0:
                e = tuple(map(add, e, qmap[x - 1]))
        columns.append(column)
    entries = [[LaurentPolynomial._trusted(s, column[i]) for column in columns]
               for i in range(m)]
    return AlexanderMatrix(Matrix(entries, m, len(columns)), ab)
