"""Exact arrangement geometry, classification, bounds, presentations."""

import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from alexarr import arrangements, groups
from alexarr.arrangements import (
    ArrangementError,
    Line,
    SweepProvenance,
    _choose_shear,
    _cross_events,
    _fixed_point,
    _fixed_point_keys,
    _lines_through_points,
    classify_arrangement,
    combinatorial_bounds,
    curve_at_infinity_bound,
    curve_bound_from_counts,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    parse_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from alexarr.cli import main
from alexarr.groups import Word, free_reduce, presentation


def lines_of(*abc):
    return [Line.of(*t) for t in abc]


def intersection_point(l1, l2):
    """Oracle: exact intersection of two lines in fractions, or None when
    parallel."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.c * l2.b - l2.c * l1.b, det)
    y = Fraction(l1.a * l2.c - l2.a * l1.c, det)
    return (x, y)


def oracle_points(lines):
    """Oracle: map each multiple point (x, y), in fractions, to the set of
    indices of its lines."""
    by_point = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = intersection_point(lines[i], lines[j])
            if pt is not None:
                by_point.setdefault(pt, set()).update((i, j))
    return by_point


# ----------------------------------------------------------------------
# lines and intersections


def test_line_normal_form():
    assert Line.of(2, 4, 6) == Line.of(1, 2, 3)
    assert Line.of(0, -3, 6) == Line.of(0, 1, -2)
    with pytest.raises(ArrangementError):
        Line.of(0, 0, 1)


def fraction_normal_form(a, b, c):
    """Oracle: the coefficients scaled so that the first nonzero of (a, b)
    is 1."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    s = a if a != 0 else b
    return a / s, b / s, c / s


rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def related_triples(draw):
    """Two rational triples (a, b, c) of lines: each line is random,
    vertical or horizontal, and the second is random, a nonzero multiple of
    the first, or parallel to it."""
    def line():
        a, b, c = draw(rational), draw(rational), draw(rational)
        kind = draw(st.sampled_from(["any", "vertical", "horizontal"]))
        if kind == "vertical":
            b = 0
        elif kind == "horizontal":
            a = 0
        assume((a, b) != (0, 0))
        return a, b, c

    first = line()
    k = draw(rational.filter(bool))
    relation = draw(st.sampled_from(["random", "multiple", "parallel"]))
    if relation == "random":
        return first, line()
    if relation == "multiple":
        return first, tuple(k * v for v in first)
    return first, (k * first[0], k * first[1], draw(rational))


@settings(max_examples=300, deadline=None)
@given(related_triples())
def test_line_matches_fraction_normal_form(pair):
    (l1, o1), (l2, o2) = ((Line.of(*abc), fraction_normal_form(*abc)) for abc in pair)
    for line, (a, b, c) in ((l1, o1), (l2, o2)):
        assert all(type(v) is int for v in line) and gcd(*line) == 1
        assert (line.a or line.b) > 0
        assert str(line) == f"{a}*x + {b}*y = {c}"
    assert (l1 == l2) == (o1 == o2)
    assert (l1.direction() == l2.direction()) == (o1[:2] == o2[:2])


def test_parse_arrangement_rationals_and_errors():
    lines = parse_arrangement("# demo\nline: 1/2 1 3/4\nline: 0 1 0\n")
    assert lines[0] == Line.of(Fraction(1, 2), 1, Fraction(3, 4))
    with pytest.raises(ArrangementError):
        parse_arrangement("line: 1 2\n")
    with pytest.raises(ArrangementError):
        parse_arrangement("line: x y z\n")
    with pytest.raises(ArrangementError):
        parse_arrangement("\n")
    with pytest.raises(ArrangementError):
        parse_arrangement("notaline: 1 2 3\n")


def test_degenerate_line_error_names_its_line(tmp_path, capsys):
    with pytest.raises(ArrangementError,
                       match=r"^line 3: degenerate line: a = b = 0$"):
        parse_arrangement("line: 1 0 0\n# comment\nline: 0 0 1\n")
    f = tmp_path / "degenerate.txt"
    f.write_text("line: 0 0 1\n")
    assert main(["bounds", str(f)]) == 2
    assert "line 1: degenerate line: a = b = 0" in capsys.readouterr().err


@pytest.mark.parametrize("token", [
    "+3", "-0", "007", "1_000", "+-3", "--3", "1e2", "1.5", "3/6",
    "0x10", "\u00bd", "1e4300", "-1E-4300",
])
def test_integer_tokens_parse_like_fractions(token, monkeypatch):
    """ASCII integers with at most one sign take the ``int`` path; every
    token, a decimal exponent of magnitude up to 4,300 included, gives the
    lines or the error of a parse through ``Fraction``."""
    text = f"line: 1 2 3\nline: {token} 1 {token}\n"

    def outcome():
        try:
            return parse_arrangement(text)
        except ArrangementError as exc:
            return str(exc)

    got = outcome()
    if token in ("+3", "-0", "007"):
        assert type(arrangements._rational(token)) is int
    monkeypatch.setattr(arrangements, "_rational", Fraction)
    assert outcome() == got


def test_concurrent_lines_give_one_point():
    data = intersect_arrangement(lines_of((0, 1, 0), (1, -1, 0), (1, 1, 0)))
    assert len(data.points) == 1
    pt, idx = data.points[0]
    assert pt == (0, 0, 1) and idx == (0, 1, 2)
    assert data.per_line_counts == ((3,), (3,), (3,))


def test_parallel_lines_have_no_points():
    data = intersect_arrangement(lines_of((0, 1, 0), (0, 1, 1)))
    assert data.points == ()
    assert data.parallel_classes == ((0, 1),)


def test_triangle_has_three_double_points():
    data = intersect_arrangement(lines_of((0, 1, 0), (1, -1, 0), (1, 0, 1)))
    assert len(data.points) == 3
    assert all(len(idx) == 2 for _, idx in data.points)


def test_duplicate_lines_rejected():
    with pytest.raises(ArrangementError):
        intersect_arrangement(lines_of((0, 1, 0), (0, 2, 0)))


def test_incidence_identity_all_families():
    for family, m in (("pencil", 5), ("near-pencil", 5), ("generic", 5), ("parallel", 4)):
        data = intersect_arrangement(family_arrangement(family, m))
        for i in range(data.m):
            k = data.class_sizes[i]
            assert sum(d - 1 for d in data.per_line_counts[i]) == data.m - k


# ----------------------------------------------------------------------
# classification


def classify(*abc):
    return classify_arrangement(intersect_arrangement(lines_of(*abc)))


def test_classify_all_parallel_and_single_line():
    assert classify((0, 1, 0), (0, 1, 1)).label == "AllParallel"
    label = classify((0, 1, 0))
    assert label.label == "AllParallel" and not label.essential


def test_classify_pencil():
    label = classify((0, 1, 0), (1, -1, 0), (1, 1, 0))
    assert label.label == "Pencil" and label.essential


def test_classify_near_pencil():
    assert classify((0, 1, 0), (0, 1, 1), (1, 0, 0)).label == "NearPencil"


def test_classify_two_lines_is_generic():
    data = intersect_arrangement(lines_of((0, 1, 0), (1, 0, 0)))
    label = classify_arrangement(data)
    assert label.label == "GenericPosition"
    # the plain generic label carries no closed form; the vanishing arrives
    # downstream through the constant polynomial
    assert vanishing_and_infinite_verdicts(label, data) is None


def test_classify_pencil_plus_transversal():
    # y = 2x + 1 misses the pencil center and shares no slope with it
    label = classify((0, 1, 0), (1, -1, 0), (1, 1, 0), (2, -1, -1))
    assert label.label == "HasNodalTransversalLine"


def test_classify_pencil_plus_parallel_line_is_other():
    # y = 1 is parallel to one pencil member, so no nodal transversal exists
    label = classify((0, 1, 0), (1, -1, 0), (1, 1, 0), (0, 1, 1))
    assert label.label == "Other"


def test_classify_generic_three_is_nodal_transversal():
    # every line of a generic triple meets the essential rest in nodes, and
    # that case outranks the plain generic label
    label = classify((0, 1, 0), (1, -1, 0), (1, 0, 1))
    assert label.label == "HasNodalTransversalLine"


def test_classify_two_parallel_pairs_is_other():
    assert classify((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)).label == "Other"


# ----------------------------------------------------------------------
# bounds


def test_pencil_tube_bound_attains_cap():
    for m in (3, 4, 5):
        data = intersect_arrangement(family_arrangement("pencil", m))
        rep = combinatorial_bounds(data)
        assert rep.global_bound == m * (m - 2)
        assert all(lb.bound == m * (m - 2) for lb in rep.line_bounds)
        assert rep.best == m * (m - 2)
        verdict = vanishing_and_infinite_verdicts(classify_arrangement(data), data)
        assert verdict.value == m * (m - 2)


def test_near_pencil_bounds():
    data = intersect_arrangement(family_arrangement("near-pencil", 3))
    rep = combinatorial_bounds(data)
    assert rep.best == 1
    transversal = [lb for lb in rep.line_bounds if lb.parallel_class_size == 1]
    assert transversal and all(lb.bound == 1 for lb in transversal)


def test_two_parallel_pairs_bound():
    data = intersect_arrangement(
        lines_of((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    )
    rep = combinatorial_bounds(data)
    # each line: two double points, class of size 2: 2 + 1*2 - 1 = 3 < 8
    assert all(lb.bound == 3 for lb in rep.line_bounds)
    assert rep.best == 3
    assert rep.global_bound == 8


def test_bounds_reject_parallel_only_input():
    data = intersect_arrangement(lines_of((0, 1, 0), (0, 1, 1)))
    with pytest.raises(ArrangementError):
        combinatorial_bounds(data)


def test_best_bound_equality_only_for_pencils():
    cases = [
        ("pencil", 4, True),
        ("near-pencil", 4, False),
        ("generic", 4, False),
    ]
    for family, m, is_pencil in cases:
        data = intersect_arrangement(family_arrangement(family, m))
        rep = combinatorial_bounds(data)
        assert (rep.best == m * (m - 2)) == is_pencil


# ----------------------------------------------------------------------
# curve-at-infinity bounds


def test_curve_bound_spot_values():
    rep = curve_at_infinity_bound(4, 3, [True, False, False])
    assert rep.intermediate == 8 and rep.bound == 8
    rep = curve_at_infinity_bound(5, 4, [True, False, False, False])
    assert rep.intermediate == 15 and rep.bound == 15


def test_conic_tangent_to_infinity():
    rep = curve_at_infinity_bound(2, 1, [True])
    assert rep.hypotheses_hold and rep.bound == 0


def test_general_position_curve_bound():
    rep = curve_at_infinity_bound(5, 5, [False] * 5)
    assert rep.bound == 15 and rep.intermediate is None


def test_curve_bound_hypotheses_fail():
    rep = curve_at_infinity_bound(4, 2, [True, True])
    assert not rep.hypotheses_hold and rep.bound is None


def test_curve_bound_from_counts_matches_flags():
    for m in range(0, 7):
        for r in range(-1, m + 2):
            for tangents in range(0, r + 2):
                flags = [True] * tangents + [False] * (r - tangents)
                try:
                    want = curve_at_infinity_bound(m, r, flags)
                except ArrangementError as exc:
                    with pytest.raises(ArrangementError, match=re.escape(str(exc))):
                        curve_bound_from_counts(m, r, tangents)
                else:
                    assert curve_bound_from_counts(m, r, tangents) == want


def test_curve_bound_flag_consistency():
    with pytest.raises(ArrangementError):
        curve_at_infinity_bound(4, 3, [False, False, False])
    with pytest.raises(ArrangementError):
        curve_at_infinity_bound(4, 3, [True, True])
    with pytest.raises(ArrangementError):
        curve_at_infinity_bound(4, 0, [])


# ----------------------------------------------------------------------
# verdicts


def test_verdicts():
    data = intersect_arrangement(lines_of((0, 1, 0), (0, 1, 1), (0, 1, 2)))
    verdict = vanishing_and_infinite_verdicts(classify_arrangement(data), data)
    assert verdict.value is None and verdict.all_n

    data = intersect_arrangement(lines_of((0, 1, 0)))
    verdict = vanishing_and_infinite_verdicts(classify_arrangement(data), data)
    assert verdict.value == 0

    data = intersect_arrangement(
        lines_of((0, 1, 0), (1, -1, 0), (1, 1, 0), (2, -1, -1))
    )
    verdict = vanishing_and_infinite_verdicts(classify_arrangement(data), data)
    assert verdict.value == 0 and verdict.all_n and "nodes" in verdict.statement

    data = intersect_arrangement(family_arrangement("generic", 4))
    # nodal-transversal classification carries the vanishing statement here too
    verdict = vanishing_and_infinite_verdicts(classify_arrangement(data), data)
    assert verdict is not None and verdict.value == 0


# ----------------------------------------------------------------------
# family presentations


def test_family_presentation_shapes():
    p = family_presentation("near-pencil", 3)
    assert p.gens == ("x1", "x2", "x3")
    assert p.relators == (
        Word.generator(0).commutator(Word.generator(2)),
        Word.generator(1).commutator(Word.generator(2)),
    )
    assert all(p.meridians)

    p = family_presentation("parallel", 2)
    assert p.num_gens == 2 and p.num_relators == 0

    p = family_presentation("pencil", 3)
    full = Word([3, 2, 1])
    assert p.relators[0] == Word.generator(0).commutator(full)

    p = family_presentation("generic", 3)
    assert p.num_relators == 3


def test_family_minimums_enforced():
    with pytest.raises(ArrangementError):
        family_presentation("pencil", 2)
    with pytest.raises(ArrangementError):
        family_presentation("near-pencil", 1)
    with pytest.raises(ArrangementError):
        family_presentation("nonsense", 3)


# ----------------------------------------------------------------------
# wiring sweep


def test_wiring_two_generic_lines_is_hopf_like():
    pres, prov = wiring_presentation(lines_of((0, 1, 0), (1, 0, 0)))
    assert pres.num_gens == 2 and pres.num_relators == 1
    rel = pres.relators[0]
    assert len(rel) == 4  # a commutator of the two meridians


def test_wiring_pencil_relations_are_cyclic():
    pres, _ = wiring_presentation(lines_of((0, 1, 0), (1, -1, 0), (1, 1, 0)))
    assert pres.num_gens == 3 and pres.num_relators == 2


def test_wiring_parallel_lines_free_group():
    pres, _ = wiring_presentation(lines_of((0, 1, 0), (0, 1, 1)))
    assert pres.num_relators == 0


def test_wiring_relators_freely_reduced_and_die_in_homology():
    from alexarr.groups import abelianize, free_reduce

    pres, _ = wiring_presentation(family_arrangement("generic", 4))
    ab = abelianize(pres)
    for rel in pres.relators:
        assert free_reduce(rel.letters) == rel.letters
        assert ab.word_image(rel) == (0,) * ab.s


def test_wiring_shear_recorded_and_duplicates_rejected():
    pres, prov = wiring_presentation(lines_of((0, 1, 0), (0, 1, 1), (1, 0, 0)))
    assert prov.shear >= 0
    assert sorted(prov.wire_lines) == [0, 1, 2]
    with pytest.raises(ArrangementError):
        wiring_presentation(lines_of((0, 1, 0), (0, 2, 0)))


def test_wiring_handles_vertical_lines_via_shear():
    # x = 0 and x = 1 are vertical until the automatic shear kicks in
    pres, prov = wiring_presentation(lines_of((1, 0, 0), (1, 0, 1), (0, 1, 0)))
    assert prov.shear > 0
    assert pres.num_gens == 3


# ----------------------------------------------------------------------
# shear search


def shear_line(ln, s):
    """Image of a line under (x, y) -> (x + s*y, y)."""
    return Line.of(ln.a, ln.b - s * ln.a, ln.c)


def forbidden_set_shear(lines):
    """Oracle: collect every shear that makes a line vertical or two points
    share an abscissa, then return the smallest nonnegative integer outside."""
    forbidden = set()
    for ln in lines:
        if ln.a != 0:
            forbidden.add(Fraction(ln.b, ln.a))  # would become vertical
    pts = list(oracle_points(lines))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (x1, y1), (x2, y2) = pts[i], pts[j]
            if y1 != y2:
                # equal sheared x-coordinates iff s = -(x1-x2)/(y1-y2)
                forbidden.add(-(x1 - x2) / (y1 - y2))
    s = 0
    while Fraction(s) in forbidden:
        s += 1
    return Fraction(s)


coef = st.integers(-3, 3)
rational_coef = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def small_arrangements(draw, coef=coef, max_lines=9):
    """2 to ``max_lines`` distinct lines with coefficients drawn from
    ``coef`` (by default integers in -3..3).  Each line is random, vertical,
    parallel to an earlier line, or through the meeting point of two earlier
    lines (then c is rational and may leave the range of ``coef``)."""
    lines = []
    for _ in range(draw(st.integers(2, max_lines))):
        kind = draw(st.sampled_from(["any", "vertical", "parallel", "concurrent"]))
        a, b, c = draw(coef), draw(coef), draw(coef)
        if kind == "vertical":
            a, b = 1, 0
        elif kind == "parallel" and lines:
            ln = draw(st.sampled_from(lines))
            a, b = ln.a, ln.b
        elif kind == "concurrent" and len(lines) >= 2:
            i, j = draw(st.lists(st.sampled_from(range(len(lines))),
                                 min_size=2, max_size=2, unique=True))
            pt = intersection_point(lines[i], lines[j])
            if pt is not None:
                c = a * pt[0] + b * pt[1]
        if (a, b) != (0, 0):
            lines.append(Line.of(a, b, c))
    lines = list(dict.fromkeys(lines))
    assume(len(lines) >= 2)
    return lines


def search_shear(lines):
    return _choose_shear(lines, _fixed_point(_lines_through_points(lines)))[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_arrangements(), small_arrangements(rational_coef)))
def test_integer_points_match_fraction_oracle(lines):
    by_point = _lines_through_points(lines)
    assert all(w > 0 and gcd(x, y, w) == 1 for x, y, w in by_point)
    oracle = oracle_points(lines)
    assert {(Fraction(x, w), Fraction(y, w)): idx
            for (x, y, w), idx in by_point.items()} == oracle
    # the points are the reduced triples above, each once, with its sorted
    # line indices
    points = intersect_arrangement(lines).points
    assert len(points) == len(by_point)
    assert dict(points) == {pt: tuple(sorted(idx)) for pt, idx in by_point.items()}


@st.composite
def point_triples(draw):
    """Reduced triples (X, Y, W) with W up to 10**9.  Some points get a
    partner whose abscissa u/W2 is the nearest one at or next to X/W, so
    values closer than 1/(W*W2) or equal ones with other W occur."""
    big = st.integers(-10**12, 10**12)
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        x, w = draw(big), draw(st.integers(1, 10**9))
        raw.append((x, draw(big), w))
        if draw(st.booleans()):
            w2 = draw(st.sampled_from([w, 2 * w, draw(st.integers(1, 10**9))]))
            raw.append((x * w2 // w + draw(st.integers(0, 1)), draw(big), w2))
    return [(x // g, y // g, w // g) for x, y, w in raw for g in [gcd(x, y, w)]]


@settings(max_examples=300, deadline=None)
@given(point_triples(), st.integers(0, 3))
def test_fixed_point_abscissas_order_like_fractions(points, s):
    # the keys of the sheared points (X + s*Y, Y, W): abscissas first
    keys = _fixed_point_keys([(x + s * y, y, w) for x, y, w in points])
    exact = [(Fraction(x + s * y, w), Fraction(y, w)) for x, y, w in points]
    for k1, f1 in zip(keys, exact):
        for k2, f2 in zip(keys, exact):
            assert (k1[0] < k2[0]) == (f1[0] < f2[0])
            assert (k1[0] == k2[0]) == (f1[0] == f2[0])
            assert (k1 < k2) == (f1 < f2)
            assert (k1 == k2) == (f1 == f2)


@settings(max_examples=300, deadline=None)
@given(small_arrangements())
def test_shear_search_matches_forbidden_set_oracle(lines):
    by_point = _lines_through_points(lines)
    s, xs = _choose_shear(lines, _fixed_point(by_point))
    assert s == forbidden_set_shear(lines)
    # the abscissas of the accepted shear, floor((X + s*Y) * 2**B / W) with
    # B twice the bit length of the largest W, pairwise distinct
    bits = 2 * max((w for _, _, w in by_point), default=1).bit_length()
    assert xs == [((x + s * y) << bits) // w for x, y, w in by_point]
    assert len(set(xs)) == len(xs)
    # shearing the points gives the meeting points of the sheared lines
    sheared_points = {(x + s * y, y, w): idx for (x, y, w), idx in by_point.items()}
    assert sheared_points == _lines_through_points([shear_line(ln, s) for ln in lines])


A3 = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 0)]


@pytest.mark.parametrize("abc, shear", [
    ([(1, 0, 0), (1, 0, 1), (1, 0, 2)], 1),  # all vertical, all parallel
    (A3, 2),
    (A3 + [(1, 3, 5), (3, 1, 7)], 2),
])
def test_shear_search_named_cases(abc, shear):
    lines = lines_of(*abc)
    assert search_shear(lines) == shear
    assert forbidden_set_shear(lines) == shear
    assert wiring_presentation(lines)[1].shear == shear


def test_shear_search_stops_when_candidates_run_out():
    # a repeated point collides under every shear: the bounded search must
    # end with an error rather than spin
    with pytest.raises(ArrangementError, match="shear search"):
        _choose_shear(lines_of((1, 0, 0)), [(0, 0, 1)] * 2)


def random_arrangement(seed, m, lo=-6, hi=6, den=1):
    """m distinct lines with coefficients p/q, p drawn from lo..hi and q
    from 1..den (integers when den is 1)."""
    rng = random.Random(seed)

    def coefficient():
        p = rng.randint(lo, hi)
        return p if den == 1 else Fraction(p, rng.randint(1, den))

    lines = {}
    while len(lines) < m:
        a, b, c = (coefficient() for _ in range(3))
        if (a, b) != (0, 0):
            lines.setdefault(Line.of(a, b, c), (a, b, c))
    return list(lines.values())


# Shear and SHA-256 of the `alexarr presentation` output after its first
# (path) line, as the forbidden-set shear search produced them.
PINNED_SWEEPS = [
    ([(1, 0, 0), (1, 0, 2), (0, 1, 0), (0, 1, 1), (1, 1, 2), (1, -2, 0), (2, 1, 3)],
     5, "084705e39c1f7e85f5b505df10f1d70e7cb0539f8ffa412655a13345243c9080"),
    ([(0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 1, 0), (1, 1, 3), (1, -1, 0), (1, -1, 1),
      (2, 1, 1)],
     5, "c2062d7cbf481f35d716476adadb7b25eddf1df75a990a012b67e48b0eb67796"),
    (random_arrangement(12, 12),
     13, "be6f7847c88d20fb76087712b6f2706494709e7f7d46a1ca6151eaa91f6d15f1"),
    # benchmark size, and coefficients with denominators up to 4
    (random_arrangement(30, 30, den=4),
     37, "d86832a80520f322229bb640b4e107897a6de33ff4dbdf46c675e502644bf8fa"),
]


@pytest.mark.parametrize("abc, shear, digest", PINNED_SWEEPS,
                         ids=["vertical", "parallel", "random12", "rational30"])
def test_presentation_output_pinned(tmp_path, abc, shear, digest):
    src = tmp_path / "arr.txt"
    src.write_text("".join(f"line: {a} {b} {c}\n" for a, b, c in abc))
    out = tmp_path / "arr.dsl"
    assert main(["presentation", str(src), "--out", str(out)]) == 0
    path_line, body = out.read_text(encoding="utf-8").split("\n", 1)
    assert path_line == f"# swept arrangement: {src}"
    assert body.startswith(f"# shear: {shear}\n")
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


def sweep_generic(lines, s):
    """Check s from the sheared lines themselves: none vertical, and their
    meeting points have pairwise distinct abscissas."""
    sheared = [shear_line(ln, s) for ln in lines]
    if any(ln.b == 0 for ln in sheared):  # a vertical line
        return False
    xs = [x for x, _ in oracle_points(sheared)]
    return len(set(xs)) == len(xs)


@pytest.mark.parametrize("lines", [
    family_arrangement("generic", 40),
    lines_of(*random_arrangement(40, 40)),
], ids=["generic40", "random40"])
def test_large_sweep(lines):
    pres, prov = wiring_presentation(lines)
    m = len(lines)
    points = intersect_arrangement(lines).points
    assert pres.num_relators == sum(len(idx) - 1 for _, idx in points)
    for rel in pres.relators:
        sums = Counter()
        for x in rel.letters:
            sums[abs(x)] += 1 if x > 0 else -1
        assert not any(sums.values())
    assert sorted(prov.wire_lines) == list(range(m))
    assert sweep_generic(lines, prov.shear)
    assert not any(sweep_generic(lines, t) for t in range(int(prov.shear)))


# ----------------------------------------------------------------------
# the sweep's event loop against the O(k^2) loop it replaced


def quadratic_sweep(lines):
    """Oracle: the sweep with the event loop that rebuilds each block
    product, each rotation and each conjugator from scratch.  It takes the
    shear from `forbidden_set_shear`, orders the events by their sheared
    abscissas in fractions and the base fiber by the heights of the lines
    one unit left of the first event.  Returns the presentation, the
    provenance, the base order, the events crossed and the final wire
    words."""
    by_point = _lines_through_points(lines)
    s = forbidden_set_shear(lines)
    m = len(lines)
    xs = [Fraction(x + s * y, w) for x, y, w in by_point]
    assert len(set(xs)) == len(xs)
    event_list = sorted(zip(xs, by_point.values()), key=lambda e: e[0])
    base_x = event_list[0][0] - 1 if event_list else Fraction(-1)
    heights = [(c - a * base_x) / (b - s * a) for a, b, c in lines]
    assert len(set(heights)) == m
    order = sorted(range(m), key=heights.__getitem__)
    events = [idx for _, idx in event_list]

    pos_of = {line_idx: pos for pos, line_idx in enumerate(order)}
    wires = list(order)
    words = [Word.generator(i) for i in range(m)]
    relators = []
    for incident in events:
        block = sorted(pos_of[i] for i in incident)
        k = len(block)
        p = block[0]
        assert block == list(range(p, p + k))
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
        new_words = list(words)
        new_wires = list(wires)
        for j in range(k):
            conj = Word.identity()
            for t in range(k - 1 - j):
                conj = conj * words[p + t]
            new_words[p + j] = conj * words[p + k - 1 - j] * conj.inverse()
            new_wires[p + j] = wires[p + k - 1 - j]
        words = new_words
        wires = new_wires
        for pos in range(p, p + k):
            pos_of[wires[pos]] = pos

    pres = presentation([f"x{order[i] + 1}" for i in range(m)], relators)
    prov = SweepProvenance(shear=s, wire_lines=tuple(order))
    return pres, prov, order, events, words


def pencil_and_strays(seed, k, strays):
    """k lines through a random lattice point, with distinct random
    directions, plus `strays` random lines with coefficients in -2..2."""
    rng = random.Random(seed)
    x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
    lines = {}
    while len(lines) < k:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if (a, b) != (0, 0):
            lines.setdefault(Line.of(a, b, a * x0 + b * y0), None)
    while len(lines) < k + strays:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        if (a, b) != (0, 0):
            lines.setdefault(Line.of(a, b, c), None)
    return list(lines)


def shuffled_parallels(seed, m):
    """m distinct parallel lines k*a*x + k*b*y = c, (a, b) a drawn direction
    (vertical included), k in 1..3 and c drawn: a sweep without events whose
    wires have equal slopes from unequal coefficients, in a drawn order."""
    rng = random.Random(seed)
    a, b = rng.choice([(1, 0), (0, 1), (1, 1), (2, -3), (3, 2)])
    lines = {}
    while len(lines) < m:
        k = rng.randint(1, 3)
        lines.setdefault(Line.of(k * a, k * b, rng.randint(-6, 6)), None)
    return list(lines)


ORACLE_SWEEPS = (
    [family_arrangement("pencil", m) for m in range(3, 11)]
    + [family_arrangement("near-pencil", m) for m in range(2, 9)]
    + [pencil_and_strays(seed, k, seed % 4) for seed, k in enumerate(range(3, 11))]
    + [lines_of(*random_arrangement(seed, 3 + seed % 10, lo=-2, hi=2))
       for seed in range(40)]
    + [family_arrangement("parallel", m) for m in range(1, 6)]
    + [shuffled_parallels(seed, 1 + seed % 5) for seed in range(15)]
    + [lines_of(*random_arrangement(seed, 3 + seed % 10, den=4)) for seed in range(20)]
)


def test_sweep_matches_quadratic_oracle():
    multiplicities = set()
    for lines in ORACLE_SWEEPS:
        want_pres, want_prov, order, events, want_words = quadratic_sweep(lines)
        pres, prov = wiring_presentation(lines)
        assert pres == want_pres
        assert prov == want_prov
        relators, words = _cross_events(order, events)
        assert relators == [r.letters for r in want_pres.relators]
        assert words == [w.letters for w in want_words]
        multiplicities.update(map(len, events))
    assert set(range(2, 11)) <= multiplicities


def test_double_point_costs_three_products_and_no_inverse(monkeypatch):
    # each wire carries its inverse word, so the sweep rebuilds no inverse
    # and multiplies only through the kernel that returns both
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(arrangements, "reduced_product_with_inverse")
    for name in ("reduced_product", "reduced_inverse"):
        counted(groups, name)
    pres, _ = wiring_presentation(family_arrangement("generic", 8))
    assert pres.num_relators == 28  # one per double point, and no other point
    assert calls == {"reduced_product_with_inverse": 3 * 28}
    assert not hasattr(arrangements, "reduced_product")
    assert not hasattr(arrangements, "reduced_inverse")


def assert_wire_words_multiply_to_the_base_fiber_product(lines):
    # every crossing is a Hurwitz move on the wires' words, which keeps
    # their bottom-to-top product x_1...x_m
    _, _, order, events, _ = quadratic_sweep(lines)
    _, words = _cross_events(order, events)
    assert free_reduce([x for w in words for x in w]) == tuple(range(1, len(lines) + 1))


def test_final_wire_words_multiply_to_the_base_fiber_product():
    for lines in ORACLE_SWEEPS:
        assert_wire_words_multiply_to_the_base_fiber_product(lines)


@settings(max_examples=40, deadline=None)
@given(small_arrangements(max_lines=20))
def test_drawn_final_wire_words_multiply_to_the_base_fiber_product(lines):
    assert_wire_words_multiply_to_the_base_fiber_product(lines)
