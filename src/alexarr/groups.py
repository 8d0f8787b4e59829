"""Finitely presented groups: free words, a small presentation DSL, and
abelianization onto the maximal torsion-free abelian quotient.

DSL (line oriented, whitespace separated tokens, ``#`` comments):

    gens: a b c
    rel: a b a^-1 b^-1
    rel: b c b^-1 c^-1
    meridians: a b c

Exponents are written ``a^-1``, ``a^3``.  The optional ``meridians:`` line
appears at most once; without it every generator is treated as a meridian.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import eq, indexOf, itemgetter, neg
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


def reduced_product(a: tuple, b: tuple) -> tuple:
    """Letters of the product of two freely reduced letter tuples.

    Both operands are reduced, so letters cancel only where they meet."""
    k = 0
    for x, y in zip(reversed(a), b):
        if x != -y:
            break
        k += 1
    return a[:len(a) - k] + b[k:]


def reduced_product_with_inverse(a: tuple, a_inv: tuple, b: tuple, b_inv: tuple) -> tuple:
    """Letters of the product of two freely reduced letter tuples and of
    its inverse, given each operand's inverse.

    The letters that cancel where a meets b are the common prefix of a^-1
    and b; its length k, found in one scan, gives a*b as a without its
    last k letters followed by b without its first k, and (a*b)^-1 as
    b^-1 without its last k followed by a^-1 without its first k."""
    try:
        k = indexOf(map(eq, a_inv, b), False)
    except ValueError:  # one of a^-1 and b is a prefix of the other
        k = min(len(a), len(b))
    return a[:len(a) - k] + b[k:], b_inv[:len(b_inv) - k] + a_inv[k:]


def reduced_inverse(a: tuple) -> tuple:
    """Letters of the inverse of a freely reduced letter tuple."""
    return tuple(map(neg, reversed(a)))


class Word:
    """Freely reduced word in a free group; it sets its letters once and
    never rebinds them."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = free_reduce(letters)

    @classmethod
    def _reduced(cls, letters: tuple) -> "Word":
        """Wrap a letter tuple that is already freely reduced, unscanned."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    @classmethod
    def generator(cls, index: int) -> "Word":
        return cls._reduced((index + 1,))

    @classmethod
    def identity(cls) -> "Word":
        return cls._reduced(())

    def __mul__(self, other: "Word") -> "Word":
        return Word._reduced(reduced_product(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word._reduced(reduced_inverse(self.letters))

    def commutator(self, other: "Word") -> "Word":
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def max_generator(self) -> int:
        """Largest generator index referenced, or -1 for the identity."""
        return max(map(abs, self.letters), default=0) - 1

    def exponent_vector(self, num_gens: int) -> list:
        vec = [0] * num_gens
        for x in self.letters:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return vec

    def format(self, names: Sequence[str]) -> str:
        if not self.letters:
            return "1"
        # one token per run of equal letters: a letter equal to the one
        # before it rewrites the run's token with the new exponent
        out = []
        prev = run = 0
        for x in self.letters:
            if x == prev:
                run += 1
                out[-1] = f"{names[abs(x) - 1]}^{run if x > 0 else -run}"
            else:
                prev, run = x, 1
                out.append(names[x - 1] if x > 0 else f"{names[-x - 1]}^-1")
        return " ".join(out)

    def __repr__(self):
        return f"Word({self.letters!r})"


# what ends a DSL name: whitespace splits tokens, '#' starts a comment, and
# '^' starts an exponent
_NAME_STOP = re.compile(r"[\s#^]")


@dataclass(frozen=True)
class Presentation:
    """Generators, freely reduced relators, and meridian flags.

    A generator name is nonempty and holds no character that ends a DSL
    name, so ``serialize_presentation`` writes text that parses back."""

    gens: tuple
    relators: tuple
    meridians: tuple

    def __post_init__(self):
        if not self.gens:
            raise PresentationError("presentation needs at least one generator")
        if len(set(self.gens)) != len(self.gens):
            raise PresentationError("duplicate generator name")
        for name in self.gens:
            if not name:
                raise PresentationError("empty generator name")
            stop = _NAME_STOP.search(name)
            if stop:
                raise PresentationError(f"generator name {name!r} contains {stop.group()!r}")
        if len(self.meridians) != len(self.gens):
            raise PresentationError("meridian flags must match generators")
        # one pass over all letters at C level: letters lie in [-m, m]
        m = len(self.gens)
        letters = set().union(*(r.letters for r in self.relators))
        if letters and (max(letters) > m or min(letters) < -m):
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
        # int reads at most 4,300 digits (Python's default limit)
        if not re.fullmatch(r"[+-]?[0-9]{1,4300}", exp):
            raise PresentationError(f"malformed exponent in token {token!r}")
        power = int(exp)
        if power == 0:
            return []
    idx = index_of[name]
    letter = idx + 1 if power > 0 else -(idx + 1)
    try:
        return [letter] * abs(power)
    except (OverflowError, MemoryError):
        raise PresentationError(f"exponent too large to expand in token {token!r}") from None


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
                if "^" in name:
                    # a relator token reads '^' as its exponent mark
                    raise PresentationError(f"line {lineno}: generator name {name!r} contains '^'")
                index_of[name] = len(gens)
                gens.append(name)
            if not gens:
                raise PresentationError(f"line {lineno}: empty generator list")
        elif key == "rel":
            if not gens:
                raise PresentationError(f"line {lineno}: rel before gens")
            letters: list = []
            try:
                for token in tokens:
                    letters.extend(_parse_token(token, index_of))
            except PresentationError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from None
            relators.append(Word(letters))
        elif key == "meridians":
            if not gens:
                raise PresentationError(f"line {lineno}: meridians before gens")
            if meridian_names is not None:
                raise PresentationError(f"line {lineno}: repeated meridians line")
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
    """The DSL text of a presentation; ``parse_presentation`` reads it back.

    One token table serves every relator: ``token[x]`` is the name of
    letter x > 0 and the inverse token of x < 0 (negative indices count
    from the end).  A relator without two equal adjacent letters is its
    letters' tokens joined, fetched by one ``itemgetter`` call (a one-letter
    relator is its token alone: ``itemgetter`` of one index returns the
    bare string); one with runs goes through ``Word.format``, which writes
    a run as one power.  The identity relator is "rel:", which parses back
    to the empty word."""
    gens = p.gens
    token = ["", *gens, *(g + "^-1" for g in reversed(gens))]
    lines = ["gens: " + " ".join(gens)]
    for r in p.relators:
        x = r.letters
        if not x:
            lines.append("rel:")
        elif any(map(eq, x, x[1:])):
            lines.append("rel: " + r.format(gens))
        elif len(x) == 1:
            lines.append("rel: " + token[x[0]])
        else:
            lines.append("rel: " + " ".join(itemgetter(*x)(token)))
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
