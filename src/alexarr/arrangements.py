"""Rational line arrangements: exact intersection combinatorics, the
classification feeding the closed-form degree results, combinatorial upper
bounds for the higher-order degrees, and group presentations (closed-form
families and a real sweep of the actual arrangement).

Arrangement file format (line oriented, ``#`` comments):

    line: a b c        # the line a*x + b*y = c, rational tokens like 3/2

Curve-at-infinity data is combinatorial only:

    curve: m=4 r=3 tangents=1
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple, Sequence

from .groups import (
    Presentation,
    Word,
    presentation,
    reduced_product_with_inverse,
)


class ArrangementError(ValueError):
    """Malformed arrangement input or geometrically inconsistent data."""


# ----------------------------------------------------------------------
# lines and intersections


class Line(NamedTuple):
    """The affine line a*x + b*y = c with (a, b) != (0, 0).

    Normal form: coprime integers with the first nonzero of (a, b)
    positive, so equal lines compare equal.  Intersection and sweep unpack
    the triple directly; ``str`` shows the equation scaled so that the
    first nonzero of (a, b) is 1.
    """

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, a, b, c) -> "Line":
        """The line from rational coefficients (ints or Fractions)."""
        if a == 0 and b == 0:
            raise ArrangementError("degenerate line: a = b = 0")
        d = lcm(a.denominator, b.denominator, c.denominator)
        a, b, c = (v.numerator * (d // v.denominator) for v in (a, b, c))
        g = gcd(a, b, c) if (a or b) > 0 else -gcd(a, b, c)
        return cls(a // g, b // g, c // g)

    def direction(self) -> tuple:
        """Key identifying the parallel class: (a, b) over gcd(a, b)."""
        g = gcd(self.a, self.b)
        return (self.a // g, self.b // g)

    def __str__(self):
        a, b, c = (Fraction(v, self.a or self.b) for v in self)
        return f"{a}*x + {b}*y = {c}"


@dataclass(frozen=True)
class IntersectionData:
    """Multiple points and parallel structure of an arrangement.

    points: ((X, Y, W), (sorted incident line indices)) with multiplicity
        >= 2, the point (X/W, Y/W) as a reduced integer triple with W > 0,
        in the order the pairwise scan of the lines first meets them.
    per_line_counts[i]: multiplicities d of the points lying on line i.
    parallel_classes: partition of line indices by direction.
    class_sizes[i]: size of the parallel class of line i.
    """

    m: int
    points: tuple
    per_line_counts: tuple
    parallel_classes: tuple
    class_sizes: tuple


def _rational(token: str):
    """The value of a rational token: an ``int`` for an ASCII integer with
    at most one sign, where ``int`` and ``Fraction`` agree, else a
    ``Fraction``.  A non-ASCII token raises ValueError: ``Fraction`` would
    read other scripts' digits.  So does a decimal exponent of magnitude
    above 4,300, Python's default limit on an int string's digits:
    ``Fraction`` would build 10 to that power."""
    if not token.isascii():
        raise ValueError(f"non-ASCII token {token!r}")
    digits = token[1:] if token[0] in "+-" else token
    if digits.isdigit():
        return int(token)
    _, e, exp = token.lower().partition("e")
    if e and abs(int(exp)) > 4300:
        raise ValueError(f"exponent too large in token {token!r}")
    return Fraction(token)


def parse_arrangement(text: str) -> list:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, colon, rest = stripped.partition(":")
        if not colon or key.strip() != "line":
            raise ArrangementError(f"line {lineno}: expected 'line: a b c'")
        tokens = rest.split()
        if len(tokens) != 3:
            raise ArrangementError(f"line {lineno}: expected three rational tokens")
        try:
            line = Line.of(*map(_rational, tokens))
        except ArrangementError as exc:
            raise ArrangementError(f"line {lineno}: {exc}") from None
        except (ValueError, ZeroDivisionError):
            raise ArrangementError(f"line {lineno}: bad rational token") from None
        # str refuses an int of more than 4,300 digits (Python's default
        # limit), which a normalized coefficient can reach from tokens
        # within it; every report prints the lines it read.  A coefficient
        # of str divides one of the triple, so below 2^14000 it is short.
        if max(map(abs, line)).bit_length() > 14000:
            try:
                str(line)
            except ValueError:
                raise ArrangementError(f"line {lineno}: a normalized "
                                       "coefficient has more than 4300 digits") from None
        lines.append(line)
    if not lines:
        raise ArrangementError("no lines in arrangement input")
    return lines


def _lines_through_points(lines: Sequence[Line]) -> dict:
    """Map each multiple point to the set of indices of its lines.

    ``lines`` are ``Line`` triples of coprime integers.  The point
    (X/W, Y/W) is keyed by the triple (X, Y, W) with W > 0 and
    gcd(X, Y, W) = 1, so equal points get equal keys and no fraction is
    built."""
    if not lines:
        raise ArrangementError("empty arrangement")
    if len(set(lines)) != len(lines):
        raise ArrangementError("duplicate lines in arrangement")
    by_point: dict = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            w = a1 * b2 - a2 * b1
            if w:
                x = c1 * b2 - c2 * b1
                y = a1 * c2 - a2 * c1
                g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
                by_point.setdefault((x // g, y // g, w // g), set()).update((i, j))
    return by_point


def _fixed_point(points) -> list:
    """Points (X, Y, W), W > 0, standing for (X/W, Y/W), as triples
    (X * 2**B, Y * 2**B, W), B twice the bit length of the largest W.

    The fixed-point form floor(v * 2**B) of a coordinate v = u/W is then an
    integer division.  Two distinct numbers u1/W1 and u2/W2 differ by at
    least 1/(W1*W2) > 2**-B, so their fixed-point forms differ as the
    numbers do, and equal numbers get equal forms.  B depends only on the
    largest W, not on how many points there are."""
    bits = 2 * max((w for _, _, w in points), default=1).bit_length()
    return [(x << bits, y << bits, w) for x, y, w in points]


def _fixed_point_keys(points) -> list:
    """Keys (floor(X * 2**B / W), floor(Y * 2**B / W)) of triples (X, Y, W),
    W > 0, with B as in ``_fixed_point``: they compare, lexicographically,
    as the points (X/W, Y/W) do."""
    return [(x // w, y // w) for x, y, w in _fixed_point(points)]


def intersect_arrangement(lines: Sequence[Line]) -> IntersectionData:
    """Group all pairwise intersections into multiple points, exactly."""
    by_point = _lines_through_points(lines)
    m = len(lines)
    points = tuple((pt, tuple(sorted(idx))) for pt, idx in by_point.items())
    per_line: list = [[] for _ in range(m)]
    for _, idx in points:
        d = len(idx)
        for i in idx:
            per_line[i].append(d)
    directions = [line.direction() for line in lines]
    classes: dict = {}
    for i, key in enumerate(directions):
        classes.setdefault(key, []).append(i)
    parallel_classes = tuple(tuple(v) for v in sorted(classes.values()))
    data = IntersectionData(
        m, points, tuple(tuple(sorted(c)) for c in per_line), parallel_classes,
        tuple(len(classes[key]) for key in directions),
    )
    # incidence sanity: a line meets exactly the lines outside its class
    for i in range(m):
        k = data.class_sizes[i]
        if sum(d - 1 for d in data.per_line_counts[i]) != m - k:
            raise ArrangementError("incidence count mismatch; geometry is inconsistent")
    return data


# ----------------------------------------------------------------------
# classification


LABEL_ALL_PARALLEL = "AllParallel"
LABEL_PENCIL = "Pencil"
LABEL_NEAR_PENCIL = "NearPencil"
LABEL_NODAL_TRANSVERSAL = "HasNodalTransversalLine"
LABEL_GENERIC = "GenericPosition"
LABEL_OTHER = "Other"

FAMILY_PENCIL = "pencil"
FAMILY_NEAR_PENCIL = "near-pencil"
FAMILY_PARALLEL = "parallel"
FAMILY_GENERIC = "generic"

# the closed-form family presentation of each label that has one
FAMILY_BY_LABEL = {
    LABEL_PENCIL: FAMILY_PENCIL,
    LABEL_NEAR_PENCIL: FAMILY_NEAR_PENCIL,
    LABEL_ALL_PARALLEL: FAMILY_PARALLEL,
    LABEL_GENERIC: FAMILY_GENERIC,
}


@dataclass(frozen=True)
class ClassLabel:
    label: str
    essential: bool
    detail: str = ""


def _nodal_transversal_lines(data: IntersectionData) -> list:
    """Lines meeting every other line, in double points only, such that the
    rest of the arrangement is still essential."""
    # a candidate line is alone in its class, so the rest of the arrangement
    # runs in the other len(parallel_classes) - 1 directions, and it is
    # essential when those are at least two
    if len(data.parallel_classes) - 1 < 2:
        return []
    return [
        i for i in range(data.m)
        if data.class_sizes[i] == 1 and all(d == 2 for d in data.per_line_counts[i])
    ]


def classify_arrangement(data: IntersectionData) -> ClassLabel:
    """Mutually exclusive labels, most specific first:
    AllParallel > Pencil > NearPencil > HasNodalTransversalLine >
    GenericPosition > Other."""
    m = data.m
    if len(data.parallel_classes) == 1:
        return ClassLabel(LABEL_ALL_PARALLEL, essential=False,
                          detail=f"{m} mutually parallel line(s)")
    if m >= 3 and any(len(idx) == m for _, idx in data.points):
        return ClassLabel(LABEL_PENCIL, essential=True,
                          detail=f"all {m} lines through one point")
    if m >= 3:
        sizes = sorted(len(c) for c in data.parallel_classes)
        if sizes == [1, m - 1]:
            (transversal,) = [
                c[0] for c in data.parallel_classes if len(c) == 1
            ]
            return ClassLabel(
                LABEL_NEAR_PENCIL, essential=True,
                detail=f"{m - 1} parallel lines and transversal line {transversal + 1}",
            )
    nodal = _nodal_transversal_lines(data)
    if nodal:
        return ClassLabel(
            LABEL_NODAL_TRANSVERSAL, essential=True,
            detail="line(s) %s meet the essential rest in nodes only"
            % ", ".join(str(i + 1) for i in nodal),
        )
    if all(len(idx) == 2 for _, idx in data.points) and all(
        len(c) == 1 for c in data.parallel_classes
    ):
        return ClassLabel(LABEL_GENERIC, essential=True,
                          detail="only double points, no parallels")
    return ClassLabel(LABEL_OTHER, essential=True)


# ----------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class LineBound:
    line_index: int
    parallel_class_size: int
    point_multiplicities: tuple
    bound: int


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds for every higher-order degree of the complement.

    global_bound is m(m-2).  Each line contributes the rank of the first
    homology of the boundary of a tube around it: sum of (d-1)^2 over its
    multiple points, minus 1, plus (k-1)(m-k) when its parallel class has
    size k >= 2 (the contribution of the point at infinity).  best is the
    minimum, capped by the global bound.  The closed form of delta_n, when
    the classification forces one, is `vanishing_and_infinite_verdicts`'s.
    """

    global_bound: int
    line_bounds: tuple
    best: int


@dataclass(frozen=True)
class ClosedForm:
    """Exact value of delta_n forced by the classification, for all n."""

    label: str
    value: int | None  # None encodes infinity
    all_n: bool
    statement: str


def vanishing_and_infinite_verdicts(label: ClassLabel,
                                    data: IntersectionData) -> ClosedForm | None:
    """Closed-form value of delta_n (all n) when the classification forces one."""
    m = data.m
    if label.label == LABEL_ALL_PARALLEL:
        if m == 1:
            return ClosedForm(
                label.label, 0, True,
                "a single line has abelian complement: delta_n = 0 for all n",
            )
        return ClosedForm(
            label.label, None, True,
            f"{m} distinct parallel lines: delta_n is infinite for all n",
        )
    if label.label == LABEL_PENCIL:
        return ClosedForm(
            label.label, m * (m - 2), True,
            f"pencil of {m} concurrent lines attains the extremal value "
            f"delta_n = m(m-2) = {m * (m - 2)} for all n",
        )
    if label.label == LABEL_NEAR_PENCIL:
        return ClosedForm(
            label.label, m - 2, True,
            f"{m - 1} parallel lines plus a transversal: delta_n = m-2 = {m - 2} "
            "for all n",
        )
    if label.label == LABEL_NODAL_TRANSVERSAL:
        return ClosedForm(
            label.label, 0, True,
            "a line meeting the (essential) rest of the arrangement in nodes "
            "only forces delta_n = 0 for all n",
        )
    return None


def combinatorial_bounds(data: IntersectionData,
                         label: ClassLabel | None = None) -> BoundReport:
    """Tube bounds per line and the best combinatorial upper bound."""
    if label is None:
        label = classify_arrangement(data)
    if not label.essential:
        raise ArrangementError(
            "bounds require an essential arrangement; parallel-only input "
            "has its own closed form"
        )
    m = data.m
    cap = m * (m - 2)
    line_bounds = []
    for i in range(m):
        k = data.class_sizes[i]
        tube = sum((d - 1) ** 2 for d in data.per_line_counts[i]) - 1
        if k >= 2:
            tube += (k - 1) * (m - k)
        line_bounds.append(
            LineBound(i, k, data.per_line_counts[i], tube)
        )
    best = min([cap] + [lb.bound for lb in line_bounds])
    return BoundReport(global_bound=cap, line_bounds=tuple(line_bounds), best=best)


@dataclass(frozen=True)
class CurveBoundReport:
    """Bound for a degree-m curve from its behavior at the line at infinity.

    r points at infinity, each either transversal or a simple tangency.
    When the hypotheses hold (m = 2, or at least one transversal point) the
    degrees are bounded by m(m-2); for r <= m-1 the proof gives the sharper
    intermediate value m^2 - 3m + r + 1.  The report holds the verdict and
    the bounds, not the arguments.
    """

    hypotheses_hold: bool
    reason: str
    bound: int | None
    intermediate: int | None


def curve_at_infinity_bound(m: int, r: int,
                            tangent_flags: Sequence[bool]) -> CurveBoundReport:
    """The bound from one tangency flag per point at infinity."""
    if 1 <= r <= m and len(tangent_flags) != r:
        raise ArrangementError("one tangency flag per point at infinity")
    return curve_bound_from_counts(m, r, sum(map(bool, tangent_flags)))


def curve_bound_from_counts(m: int, r: int, tangents: int) -> CurveBoundReport:
    """The bound from r points at infinity, tangents of them tangencies;
    the same report and errors as `curve_at_infinity_bound` on r flags."""
    if not 1 <= r <= m:
        raise ArrangementError("need 1 <= r <= m")
    if tangents > r:
        raise ArrangementError("one tangency flag per point at infinity")
    transversal = r - tangents
    if transversal + 2 * tangents != m:
        raise ArrangementError(
            f"inconsistent flags: {transversal} transversal + 2*{tangents} "
            f"tangent intersections must account for degree {m}"
        )
    if m == 2:
        hold, reason = True, "degree two"
    elif transversal >= 1:
        hold, reason = True, "at least one transversal point at infinity"
    else:
        hold, reason = False, "no transversal point at infinity and degree > 2"
    if not hold:
        return CurveBoundReport(False, reason, None, None)
    cap = m * (m - 2)
    intermediate = m * m - 3 * m + r + 1 if r <= m - 1 else None
    bound = min(cap, intermediate) if intermediate is not None else cap
    return CurveBoundReport(True, reason, bound, intermediate)


# ----------------------------------------------------------------------
# family presentations


_FAMILY_MIN_M = {FAMILY_PENCIL: 3, FAMILY_NEAR_PENCIL: 2, FAMILY_PARALLEL: 1, FAMILY_GENERIC: 1}
FAMILIES = tuple(_FAMILY_MIN_M)


def _check_family(family: str, m: int) -> None:
    if family not in _FAMILY_MIN_M:
        raise ArrangementError(f"unknown family {family!r}; choose from {FAMILIES}")
    if m < _FAMILY_MIN_M[family]:
        raise ArrangementError(f"{family} family needs m >= {_FAMILY_MIN_M[family]}")


def family_presentation(family: str, m: int) -> Presentation:
    """Closed-form meridian presentations of the standard families.

    pencil(m >= 3):      the product of all meridians is central.
    near-pencil(m >= 2): the last meridian (transversal line) is central.
    parallel(m >= 1):    free group, no relations.
    generic(m >= 1):     all meridians commute.
    """
    _check_family(family, m)
    names = [f"x{i + 1}" for i in range(m)]
    if family == FAMILY_PENCIL:
        full = Word([i for i in range(m, 0, -1)])
        rels = [Word.generator(i).commutator(full) for i in range(m - 1)]
    elif family == FAMILY_NEAR_PENCIL:
        last = Word.generator(m - 1)
        rels = [Word.generator(i).commutator(last) for i in range(m - 1)]
    elif family == FAMILY_PARALLEL:
        rels = []
    else:
        rels = [
            Word.generator(i).commutator(Word.generator(j))
            for i in range(m)
            for j in range(i + 1, m)
        ]
    return presentation(names, rels)


def family_arrangement(family: str, m: int) -> list:
    """Concrete rational arrangements realizing the standard families."""
    _check_family(family, m)
    if family == FAMILY_PENCIL:
        # m distinct slopes through the origin
        return [Line.of(i, 1, 0) for i in range(m)]
    if family == FAMILY_NEAR_PENCIL:
        out = [Line.of(0, 1, i) for i in range(m - 1)]  # y = 0, 1, ..., m-2
        out.append(Line.of(1, 0, 0))                    # x = 0
        return out
    if family == FAMILY_PARALLEL:
        return [Line.of(0, 1, i) for i in range(m)]
    # generic: tangent lines to the parabola y = x^2/2 at x = 1, 2, ...: any
    # two meet, no three concurrent, slopes pairwise distinct
    return [Line.of(2 * i, -2, i * i) for i in range(1, m + 1)]


# ----------------------------------------------------------------------
# wiring sweep
#
# Sweep a vertical line left to right across a (sheared) real picture of
# the arrangement.  Each wire carries a word: the expression of its current
# meridian in terms of the base-fiber meridians.  At an intersection point
# the wires through it occupy consecutive positions; the local monodromy is
# a full twist, so the product of the block's words (top down) commutes
# with each word, which the cyclic relations below express.  Crossing the
# point reverses the block and conjugates each passing wire by the words of
# the wires it crossed from above on the way down.


@dataclass(frozen=True)
class SweepProvenance:
    """The integer shear s of (x, y) -> (x + s*y, y) the sweep ran under,
    and the input line index of each wire at the base fiber, bottom to
    top."""

    shear: int
    wire_lines: tuple


def _choose_shear(lines: Sequence[Line], scaled: Sequence[tuple]) -> tuple:
    """Smallest nonnegative integer shear s making the picture
    sweep-generic; returns s and the fixed-point abscissas of the points
    under it, in the order of ``scaled``.

    Under (x, y) -> (x + s*y, y) no line may become vertical and the multiple
    points must get pairwise distinct abscissas.  ``lines`` are ``Line``
    triples (a, b, c); the sheared line a*x + (b - s*a)*y = c is vertical
    when b = s*a.  ``scaled`` are the multiple points in the form of
    ``_fixed_point``, compared through their fixed-point abscissas
    floor((X + s*Y) * 2**B / W).  Each line and each pair of points rules
    out at most one s, so the range searched holds an answer; a candidate
    costs O(len(lines) + len(scaled)) operations on integers of about
    log2|x| + 3*log2(max W) bits, x the largest sheared abscissa, whatever
    the number of points, and stops at its first repeated abscissa.
    """
    n = len(scaled)
    for s in range(len(lines) + n * (n - 1) // 2 + 1):
        if any(b == s * a for a, b, _ in lines):
            continue
        xs = {}
        for x, y, w in scaled:
            v = (x + s * y) // w
            if v in xs:
                break
            xs[v] = None
        else:
            return s, list(xs)
    raise ArrangementError("shear search ran out of candidates")


_NOT_ADJACENT = ("lines through an event are not adjacent in the wire order; "
                 "geometry is inconsistent")


def _cross_events(order: Sequence[int], events) -> tuple:
    """Cross the multiple points of a sweep; return (relators, wire words).

    ``order`` lists the input lines on the base fiber by wire position,
    bottom to top, and ``events`` the sets of input lines through each
    multiple point in sweep order.  Words are freely reduced letter tuples;
    the relators come in event order, and the wire words are those after
    the last event, by position.  Each wire keeps its word's inverse in a
    list beside its word, and every product goes through
    ``reduced_product_with_inverse``, which returns a*b and (a*b)^-1 from
    one scan of the seam, so no inverse is rebuilt.  A k-fold point costs
    O(k) products.  A double point, most events of a sweep, costs three:
    with w1 the lower word and w2 the upper, the two wires swap, the lower
    one's word becomes N = w1*w2*w1^-1, and the relator w2*w1*w2^-1*w1^-1
    is written as w2*N^-1, the same reduced word.
    """
    product = reduced_product_with_inverse
    pos_of = {line_idx: pos for pos, line_idx in enumerate(order)}
    wires = list(order)                                # position -> line index
    words = [(i + 1,) for i in range(len(order))]      # position -> meridian word
    inverses = [(-i - 1,) for i in range(len(order))]  # position -> its inverse
    relators = []

    for incident in events:
        if len(incident) == 2:
            i, j = incident
            p, q = pos_of[i], pos_of[j]
            if p > q:
                p, q = q, p
            if q != p + 1:
                raise ArrangementError(_NOT_ADJACENT)
            w1, w2 = words[p], words[q]
            v1, v2 = inverses[p], inverses[q]
            w12, v12 = product(w1, v1, w2, v2)
            lower, lower_inv = product(w12, v12, v1, w1)
            relators.append(product(w2, v2, lower_inv, lower)[0])
            words[p], inverses[p] = lower, lower_inv
            words[q], inverses[q] = w1, v1
            wires[p], wires[q] = wires[q], wires[p]
            pos_of[i], pos_of[j] = pos_of[j], pos_of[i]
            continue
        block = sorted(pos_of[i] for i in incident)
        k = len(block)
        p = block[0]
        if block[-1] != p + k - 1:
            raise ArrangementError(_NOT_ADJACENT)
        # cyclic full-twist relations: with w_1..w_k the block words top
        # down, P_j = w_1...w_j and T = w_{j+1}...w_k, the product P_k
        # equals its rotation T*P_j for j = k-1, ..., 1, and the relator
        # P_k * (T*P_j)^-1 is P_k * P_j^-1 * T^-1
        top = words[p:p + k][::-1]
        top_inv = inverses[p:p + k][::-1]
        prefixes, prefixes_inv = [top[0]], [top_inv[0]]
        for w, v in zip(top[1:], top_inv[1:]):
            w, v = product(prefixes[-1], prefixes_inv[-1], w, v)
            prefixes.append(w)
            prefixes_inv.append(v)
        full, full_inv = prefixes[-1], prefixes_inv[-1]
        tail, tail_inv = top[-1], top_inv[-1]
        for j in range(k - 1, 0, -1):
            if j < k - 1:
                tail, tail_inv = product(top[j], top_inv[j], tail, tail_inv)
            w, v = product(full, full_inv, prefixes_inv[j - 1], prefixes[j - 1])
            relators.append(product(w, v, tail_inv, tail)[0])
        # cross the block: reverse wire order; the wire at position p + t
        # passes the t wires below it, and the product Q_t of their words
        # bottom up conjugates it: Q_t * w * Q_t^-1 = Q_{t+1} * Q_t^-1
        below, below_inv = words[p], inverses[p]
        crossed, crossed_inv = [below], [below_inv]
        for t in range(p + 1, p + k):
            upto, upto_inv = product(below, below_inv, words[t], inverses[t])
            w, v = product(upto, upto_inv, below_inv, below)
            crossed.append(w)
            crossed_inv.append(v)
            below, below_inv = upto, upto_inv
        words[p:p + k] = crossed[::-1]
        inverses[p:p + k] = crossed_inv[::-1]
        wires[p:p + k] = wires[p:p + k][::-1]
        for pos in range(p, p + k):
            pos_of[wires[pos]] = pos
    return relators, words


def wiring_presentation(lines: Sequence[Line]) -> tuple:
    """Present the fundamental group of the complement from a real sweep.

    Returns (Presentation, SweepProvenance).  Generator i is a meridian of
    the line at initial wire position i (bottom to top at the base fiber);
    the provenance records which input line that is.

    The shear maps the meeting point of two lines to that of their images,
    so the events go in the order of the abscissas that ``_choose_shear``
    accepted.  Every crossing is an event, so the base fiber may sit at
    x -> -inf: there the sheared line a*x + b'*y = c, b' = b - s*a != 0,
    lies by its slope a/b', then by its intercept c/b', bottom to top
    (equal keys would be a duplicate line).
    """
    by_point = _lines_through_points(lines)
    s, xs = _choose_shear(lines, _fixed_point(by_point))
    events = [idx for _, idx in sorted(zip(xs, by_point.values()), key=itemgetter(0))]
    keys = _fixed_point_keys([(a, c, b - s * a) if b > s * a else (-a, -c, s * a - b)
                              for a, b, c in lines])
    order = sorted(range(len(lines)), key=keys.__getitem__)
    relators, _ = _cross_events(order, events)
    names = [f"x{i + 1}" for i in order]
    pres = presentation(names, map(Word._reduced, relators))
    return pres, SweepProvenance(shear=s, wire_lines=tuple(order))
