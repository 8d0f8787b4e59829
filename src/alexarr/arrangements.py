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
from typing import Sequence

from .groups import Presentation, Word, presentation


class ArrangementError(ValueError):
    """Malformed arrangement input or geometrically inconsistent data."""


# ----------------------------------------------------------------------
# lines and intersections


@dataclass(frozen=True)
class Line:
    """The affine line a*x + b*y = c with (a, b) != (0, 0).

    Normal form: the first nonzero of (a, b) equals 1, so parallel lines
    share (a, b) exactly and equal lines compare equal.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    @classmethod
    def of(cls, a, b, c) -> "Line":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ArrangementError("degenerate line: a = b = 0")
        scale = a if a != 0 else b
        return cls(a / scale, b / scale, c / scale)

    def direction(self) -> tuple:
        """Key identifying the parallel class."""
        return (self.a, self.b)

    def y_at(self, x: Fraction) -> Fraction:
        if self.b == 0:
            raise ArrangementError("vertical line has no y(x)")
        return (self.c - self.a * x) / self.b

    def is_vertical(self) -> bool:
        return self.b == 0

    def shear(self, s: Fraction) -> "Line":
        """Image under (x, y) -> (x + s*y, y)."""
        return Line.of(self.a, self.b - s * self.a, self.c)

    def __str__(self):
        return f"{self.a}*x + {self.b}*y = {self.c}"


def intersection_point(l1: Line, l2: Line) -> tuple | None:
    """Exact intersection of two lines, or None when parallel."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = (l1.c * l2.b - l2.c * l1.b) / det
    y = (l1.a * l2.c - l2.a * l1.c) / det
    return (x, y)


@dataclass(frozen=True)
class IntersectionData:
    """Multiple points and parallel structure of an arrangement.

    points: ((x, y), (sorted incident line indices)) with multiplicity >= 2.
    per_line_counts[i]: multiplicities d of the points lying on line i.
    parallel_classes: partition of line indices by direction.
    """

    m: int
    points: tuple
    per_line_counts: tuple
    parallel_classes: tuple

    def class_of(self, i: int) -> tuple:
        for cls in self.parallel_classes:
            if i in cls:
                return cls
        raise IndexError(f"line index {i} out of range")

    def class_size(self, i: int) -> int:
        return len(self.class_of(i))


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
            a, b, c = (Fraction(t) for t in tokens)
        except (ValueError, ZeroDivisionError):
            raise ArrangementError(f"line {lineno}: bad rational token") from None
        lines.append(Line.of(a, b, c))
    if not lines:
        raise ArrangementError("no lines in arrangement input")
    return lines


def _lines_through_points(lines: Sequence[Line]) -> dict:
    """Map each multiple point (x, y) to the set of indices of its lines."""
    if not lines:
        raise ArrangementError("empty arrangement")
    if len(set(lines)) != len(lines):
        raise ArrangementError("duplicate lines in arrangement")
    by_point: dict = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = intersection_point(lines[i], lines[j])
            if pt is not None:
                by_point.setdefault(pt, set()).update((i, j))
    return by_point


def intersect_arrangement(lines: Sequence[Line]) -> IntersectionData:
    """Group all pairwise intersections into multiple points, exactly."""
    by_point = _lines_through_points(lines)
    m = len(lines)
    points = tuple(
        (pt, tuple(sorted(idx))) for pt, idx in sorted(by_point.items())
    )
    per_line: list = [[] for _ in range(m)]
    for _, idx in points:
        d = len(idx)
        for i in idx:
            per_line[i].append(d)
    classes: dict = {}
    for i, line in enumerate(lines):
        classes.setdefault(line.direction(), []).append(i)
    parallel_classes = tuple(tuple(v) for v in sorted(classes.values()))
    data = IntersectionData(
        m, points, tuple(tuple(sorted(c)) for c in per_line), parallel_classes
    )
    # incidence sanity: a line meets exactly the lines outside its class
    for i in range(m):
        k = data.class_size(i)
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
        if data.class_size(i) == 1 and all(d == 2 for d in data.per_line_counts[i])
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
    minimum, capped by the global bound.
    """

    m: int
    global_bound: int
    line_bounds: tuple
    best: int
    closed_form: "ClosedForm | None" = None


@dataclass(frozen=True)
class ClosedForm:
    """Exact value of delta_n forced by the classification, for all n."""

    label: str
    value: int | None  # None encodes infinity
    all_n: bool
    statement: str


def closed_form_for(label: ClassLabel, m: int) -> ClosedForm | None:
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
        k = data.class_size(i)
        tube = sum((d - 1) ** 2 for d in data.per_line_counts[i]) - 1
        if k >= 2:
            tube += (k - 1) * (m - k)
        line_bounds.append(
            LineBound(i, k, data.per_line_counts[i], tube)
        )
    best = min([cap] + [lb.bound for lb in line_bounds])
    return BoundReport(
        m=m,
        global_bound=cap,
        line_bounds=tuple(line_bounds),
        best=best,
        closed_form=closed_form_for(label, m),
    )


@dataclass(frozen=True)
class CurveBoundReport:
    """Bound for a degree-m curve from its behavior at the line at infinity.

    r points at infinity, each either transversal or a simple tangency.
    When the hypotheses hold (m = 2, or at least one transversal point) the
    degrees are bounded by m(m-2); for r <= m-1 the proof gives the sharper
    intermediate value m^2 - 3m + r + 1.
    """

    m: int
    r: int
    tangent_points: int
    hypotheses_hold: bool
    reason: str
    bound: int | None
    intermediate: int | None


def curve_at_infinity_bound(m: int, r: int,
                            tangent_flags: Sequence[bool]) -> CurveBoundReport:
    if not 1 <= r <= m:
        raise ArrangementError("need 1 <= r <= m")
    if len(tangent_flags) != r:
        raise ArrangementError("one tangency flag per point at infinity")
    tangents = sum(1 for f in tangent_flags if f)
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
        return CurveBoundReport(m, r, tangents, False, reason, None, None)
    cap = m * (m - 2)
    intermediate = m * m - 3 * m + r + 1 if r <= m - 1 else None
    bound = min(cap, intermediate) if intermediate is not None else cap
    return CurveBoundReport(m, r, tangents, True, reason, bound, intermediate)


# ----------------------------------------------------------------------
# verdicts


def vanishing_and_infinite_verdicts(label: ClassLabel,
                                    data: IntersectionData) -> ClosedForm | None:
    """Closed-form value of delta_n (all n) when the classification forces one."""
    return closed_form_for(label, data.m)


# ----------------------------------------------------------------------
# family presentations


FAMILY_PENCIL = "pencil"
FAMILY_NEAR_PENCIL = "near-pencil"
FAMILY_PARALLEL = "parallel"
FAMILY_GENERIC = "generic"

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
        return [Line.of(Fraction(i), 1, 0) for i in range(m)]
    if family == FAMILY_NEAR_PENCIL:
        out = [Line.of(0, 1, i) for i in range(m - 1)]  # y = 0, 1, ..., m-2
        out.append(Line.of(1, 0, 0))                    # x = 0
        return out
    if family == FAMILY_PARALLEL:
        return [Line.of(0, 1, i) for i in range(m)]
    # generic: tangent lines to the parabola y = x^2/2 at x = 1, 2, ...: any
    # two meet, no three concurrent, slopes pairwise distinct
    return [Line.of(Fraction(i), -1, Fraction(i * i, 2)) for i in range(1, m + 1)]


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
    shear: Fraction
    base_x: Fraction
    wire_lines: tuple  # wire position (bottom to top) -> input line index


def _choose_shear(lines: Sequence[Line], points) -> Fraction:
    """Smallest nonnegative integer shear making the picture sweep-generic.

    Under (x, y) -> (x + s*y, y) no line may become vertical and the multiple
    ``points`` (a collection of (x, y)) must get pairwise distinct abscissas.
    Each line and each pair of points rules out at most one s, so the range
    searched holds an answer; a candidate costs O(len(lines) + len(points)).
    """
    n = len(points)
    for s in range(len(lines) + n * (n - 1) // 2 + 1):
        if any(ln.b == s * ln.a for ln in lines):
            continue
        seen = set()
        for x, y in points:
            u = x + s * y
            if u in seen:
                break
            seen.add(u)
        else:
            return Fraction(s)
    raise ArrangementError("shear search ran out of candidates")


def wiring_presentation(lines: Sequence[Line]) -> tuple:
    """Present the fundamental group of the complement from a real sweep.

    Returns (Presentation, SweepProvenance).  Generator i is a meridian of
    the line at initial wire position i (bottom to top at the base fiber);
    the provenance records which input line that is.
    """
    by_point = _lines_through_points(lines)
    s = _choose_shear(lines, by_point)
    sheared = [ln.shear(s) for ln in lines]
    m = len(sheared)

    # the shear maps the meeting point of two lines to that of their images
    event_list = sorted(
        ((x + s * y, y), tuple(sorted(idx))) for (x, y), idx in by_point.items()
    )
    xs = [pt[0] for pt, _ in event_list]
    if len(set(xs)) != len(xs):
        raise ArrangementError("shear failed to separate event x-coordinates")

    base_x = (min(xs) if xs else Fraction(0)) - 1
    order = sorted(range(m), key=lambda i: sheared[i].y_at(base_x))
    ys = [sheared[i].y_at(base_x) for i in order]
    if len(set(ys)) != m:
        raise ArrangementError("base fiber meets a crossing; shear is degenerate")

    pos_of = {line_idx: pos for pos, line_idx in enumerate(order)}
    wires = list(order)                      # position -> line index
    words = [Word.generator(i) for i in range(m)]  # position -> meridian word
    relators = []

    for pt, incident in event_list:
        block = sorted(pos_of[i] for i in incident)
        k = len(block)
        p = block[0]
        if block != list(range(p, p + k)):
            raise ArrangementError(
                "lines through an event are not adjacent in the wire order; "
                "geometry is inconsistent"
            )
        # cyclic full-twist relations on the current block words, top down
        seq = [words[p + k - 1 - t] for t in range(k)]
        full = Word.identity()
        for w in seq:
            full = full * w
        rotated = list(seq)
        for _ in range(k - 1):
            rotated = rotated[-1:] + rotated[:-1]
            prod = Word.identity()
            for w in rotated:
                prod = prod * w
            relators.append(full * prod.inverse())
        # cross the block: reverse wire order; a wire dropping to position
        # p + j passed under the j lowest wires, whose words conjugate it
        new_words = list(words)
        new_wires = list(wires)
        for j in range(k):
            conj = Word.identity()
            for t in range(k - 1 - j):
                conj = conj * words[p + t]
            new_words[p + j] = words[p + k - 1 - j].conjugate_by(conj)
            new_wires[p + j] = wires[p + k - 1 - j]
        words = new_words
        wires = new_wires
        pos_of = {line_idx: pos for pos, line_idx in enumerate(wires)}

    names = [f"x{order[i] + 1}" for i in range(m)]
    pres = presentation(names, relators)
    prov = SweepProvenance(shear=s, base_x=base_x, wire_lines=tuple(order))
    return pres, prov
