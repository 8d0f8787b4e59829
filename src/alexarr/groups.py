"""Finitely presented groups: free words, a small presentation DSL, and
abelianization onto the maximal torsion-free abelian quotient.

DSL (line oriented, whitespace separated tokens, ``#`` comments):

    gens: a b c
    rel: a b a^-1 b^-1
    rel: b c b^-1 c^-1
    meridians: a b c

Exponents are written ``a^-1``, ``a^3``.  The ``meridians:`` line is
optional; without it every generator is treated as a meridian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ringkit import Matrix, smith_normal_form_int


class PresentationError(ValueError):
    """Malformed presentation text or inconsistent presentation data."""


# ----------------------------------------------------------------------
# free words
#
# A word is a tuple of nonzero ints: letter +-(i+1) is generator i with
# exponent +-1.  Words are kept freely reduced.


def free_reduce(letters: Iterable[int]) -> tuple:
    """Freely reduce a letter sequence; idempotent and length-nonincreasing."""
    stack: list = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a valid letter")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """Freely reduced word in a free group."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def generator(cls, index: int, power: int = 1) -> "Word":
        return cls([index + 1 if power > 0 else -(index + 1)] * abs(power))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def conjugate_by(self, w: "Word") -> "Word":
        """w * self * w^-1."""
        return w * self * w.inverse()

    def commutator(self, other: "Word") -> "Word":
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def max_generator(self) -> int:
        """Largest generator index referenced, or -1 for the identity."""
        return max((abs(x) - 1 for x in self.letters), default=-1)

    def exponent_vector(self, num_gens: int) -> list:
        vec = [0] * num_gens
        for x in self.letters:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return vec

    def format(self, names: Sequence[str]) -> str:
        if not self.letters:
            return "1"
        out = []
        i = 0
        letters = self.letters
        while i < len(letters):
            x = letters[i]
            j = i
            while j + 1 < len(letters) and letters[j + 1] == x:
                j += 1
            count = j - i + 1
            name = names[abs(x) - 1]
            exp = count if x > 0 else -count
            out.append(name if exp == 1 else f"{name}^{exp}")
            i = j + 1
        return " ".join(out)

    def __repr__(self):
        return f"Word({self.letters!r})"


@dataclass(frozen=True)
class Presentation:
    """Generators, freely reduced relators, and meridian flags."""

    gens: tuple
    relators: tuple
    meridians: tuple

    def __post_init__(self):
        if not self.gens:
            raise PresentationError("presentation needs at least one generator")
        if len(set(self.gens)) != len(self.gens):
            raise PresentationError("duplicate generator name")
        if len(self.meridians) != len(self.gens):
            raise PresentationError("meridian flags must match generators")
        for r in self.relators:
            if r.max_generator() >= len(self.gens):
                raise PresentationError("relator references unknown generator")

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    @property
    def num_relators(self) -> int:
        return len(self.relators)


def presentation(gens: Sequence[str], relators: Iterable[Word],
                 meridians: Sequence[bool] | None = None) -> Presentation:
    gens = tuple(gens)
    if meridians is None:
        meridians = (True,) * len(gens)
    return Presentation(gens, tuple(relators), tuple(meridians))


# ----------------------------------------------------------------------
# DSL


def _parse_token(token: str, index_of: dict) -> list:
    name, caret, exp = token.partition("^")
    if name not in index_of:
        raise PresentationError(f"unknown generator name {name!r}")
    power = 1
    if caret:
        try:
            power = int(exp)
        except ValueError:
            raise PresentationError(f"malformed exponent in token {token!r}") from None
        if power == 0:
            return []
    idx = index_of[name]
    letter = idx + 1 if power > 0 else -(idx + 1)
    return [letter] * abs(power)


def parse_presentation(text: str) -> Presentation:
    gens: list = []
    relators: list = []
    meridian_names: list | None = None
    index_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        if not colon:
            raise PresentationError(f"line {lineno}: expected '<key>: ...'")
        key = key.strip()
        tokens = rest.split()
        if key == "gens":
            if gens:
                raise PresentationError(f"line {lineno}: repeated gens line")
            for name in tokens:
                if name in index_of:
                    raise PresentationError(f"line {lineno}: duplicate generator {name!r}")
                index_of[name] = len(gens)
                gens.append(name)
            if not gens:
                raise PresentationError(f"line {lineno}: empty generator list")
        elif key == "rel":
            if not gens:
                raise PresentationError(f"line {lineno}: rel before gens")
            letters: list = []
            for token in tokens:
                letters.extend(_parse_token(token, index_of))
            relators.append(Word(letters))
        elif key == "meridians":
            if not gens:
                raise PresentationError(f"line {lineno}: meridians before gens")
            for name in tokens:
                if name not in index_of:
                    raise PresentationError(f"line {lineno}: unknown meridian {name!r}")
            meridian_names = tokens
        else:
            raise PresentationError(f"line {lineno}: unknown key {key!r}")
    if not gens:
        raise PresentationError("missing gens line")
    if meridian_names is None:
        flags = (True,) * len(gens)
    else:
        flags = tuple(name in meridian_names for name in gens)
    return Presentation(tuple(gens), tuple(relators), flags)


def serialize_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.gens)]
    for r in p.relators:
        lines.append("rel: " + r.format(p.gens))
    if not all(p.meridians):
        names = [g for g, flag in zip(p.gens, p.meridians) if flag]
        lines.append("meridians: " + " ".join(names))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class AbelianizationData:
    """Projection of a presented group onto its maximal torsion-free
    abelian quotient H = Z^s.

    quotient_map[i] is the image of generator i, a length-s integer vector.
    psi[i] is the coordinate sum of that image: the linking-number value of
    generator i when meridian images are standard basis vectors.
    """

    s: int
    quotient_map: tuple
    torsion_detected: bool
    psi: tuple
    meridian_psi_ok: bool

    def word_image(self, w: Word) -> tuple:
        """Image of a word in Z^s."""
        out = [0] * self.s
        for x in w.letters:
            row = self.quotient_map[abs(x) - 1]
            sign = 1 if x > 0 else -1
            for k in range(self.s):
                out[k] += sign * row[k]
        return tuple(out)


def abelianize(p: Presentation) -> AbelianizationData:
    """Compute H = (maximal torsion-free abelian quotient) and the induced
    generator images.

    The relator exponent matrix is put in Smith normal form; the projection
    is read off the column transform.  Torsion in the plain abelianization
    is flagged, not fatal: the torsion-free quotient is used regardless.
    """
    m = p.num_gens
    q = p.num_relators
    ex = Matrix([r.exponent_vector(m) for r in p.relators], q, m)
    d, _, v = smith_normal_form_int(ex)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x)
    torsion = any(abs(x) > 1 for x in diag if x)
    s = m - rank
    cols = list(range(rank, m))
    qmap = []
    for i in range(m):
        row = [v.entries[i][j] for j in cols]
        qmap.append(row)
    # sign-normalize each basis vector of H: first nonzero image entry > 0
    for j in range(s):
        lead = next((qmap[i][j] for i in range(m) if qmap[i][j]), 0)
        if lead < 0:
            for i in range(m):
                qmap[i][j] = -qmap[i][j]
    psi = tuple(sum(row) for row in qmap)
    meridian_ok = all(
        psi[i] == 1 for i in range(m) if p.meridians[i]
    )
    return AbelianizationData(
        s, tuple(tuple(row) for row in qmap), torsion, psi, meridian_ok
    )
