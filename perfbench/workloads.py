"""Seeded inputs, expected answers and output checks for the alexarr benchmark.

Nothing here imports alexarr: the arrangements, presentation files and
expected answers are built with plain exact rationals, so a check never
trusts the code it is checking.

Every arrangement goes through a random rational affine change of
coordinates and a shuffle of its lines, and every presentation file gets
fresh generator names in a shuffled order.  None of these changes the
answer, so each job's expected values stay known.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path


@dataclass
class Job:
    """One in-process call of the alexarr CLI and the answer it must give."""

    kind: str        # stable label, e.g. "analyze generic m=5"
    command: str     # analyze | invariants | bounds | presentation
    path: Path       # input file
    out: Path        # where --out writes the report
    expect: dict
    route: str = "both"

    def argv(self) -> list:
        argv = [self.command, str(self.path), "--out", str(self.out)]
        return argv if self.route == "both" else argv + ["--route", self.route]


# ----------------------------------------------------------------------
# arrangements: lists of (a, b, c) for the line a*x + b*y = c


def family_lines(name: str, m: int = 0) -> list:
    F = Fraction
    if name == "generic":
        # tangents to y = x^2/2: no parallels, no three concurrent
        return [(F(i), F(-1), F(i * i, 2)) for i in range(1, m + 1)]
    if name == "pencil":
        return [(F(i), F(1), F(0)) for i in range(m)]
    if name == "near-pencil":
        return [(F(0), F(1), F(i)) for i in range(m - 1)] + [(F(1), F(0), F(0))]
    if name == "triple4":
        # x=0, y=0, x=1, x=y: a triple point plus a line parallel to one of its lines
        return [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(0), F(1)), (F(1), F(-1), F(0))]
    if name == "a3":
        # deconed braid arrangement x=0, y=0, x=1, y=1, x=y
        return family_lines("triple4") + [(F(0), F(1), F(1))]
    if name == "a3-nodal":
        return family_lines("a3") + [(F(1), F(3), F(5)), (F(3), F(1), F(7))]
    raise ValueError(f"unknown arrangement family {name!r}")


def random_lines(rng: random.Random, m: int) -> list:
    """m distinct lines with small integer coefficients, not all parallel."""
    seen = set()
    out = []
    while len(out) < m:
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-5, 5)
        if a == 0 and b == 0:
            continue
        key = _primitive(Fraction(a), Fraction(b), Fraction(c))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return [tuple(Fraction(v) for v in ln) for ln in out]


def _primitive(a: Fraction, b: Fraction, c: Fraction) -> tuple:
    """Integer coefficients without common factor, first nonzero of a, b positive."""
    den = lcm(a.denominator, b.denominator, c.denominator)
    ints = [int(v * den) for v in (a, b, c)]
    g = gcd(*ints)
    if (ints[0] or ints[1]) < 0:
        g = -g
    return tuple(v // g for v in ints)


def random_affine(rng: random.Random, lines: list, diagonal: bool = False) -> list:
    """Image of the lines under X = M x + t, M a random invertible integer
    matrix (a positive diagonal one when `diagonal`), t a random rational
    vector; then the lines are shuffled."""
    while True:
        if diagonal:
            p, q, r, s = rng.randint(1, 3), 0, 0, rng.randint(1, 3)
        else:
            p, q, r, s = (rng.randint(-3, 3) for _ in range(4))
        det = p * s - q * r
        if det:
            break
    tx = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    ty = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    out = []
    for a, b, c in lines:
        # (a, b) M^-1 is the new normal; c shifts by it dotted with t
        a2 = Fraction(a * s - b * r, det)
        b2 = Fraction(b * p - a * q, det)
        out.append(tuple(Fraction(v) for v in _primitive(a2, b2, c + a2 * tx + b2 * ty)))
    rng.shuffle(out)
    return out


def write_lines(path: Path, lines: list) -> None:
    path.write_text("".join(f"line: {a} {b} {c}\n" for a, b, c in lines), encoding="utf-8")


# ----------------------------------------------------------------------
# expected answers, computed independently of alexarr


@dataclass(frozen=True)
class Incidence:
    m: int
    points: list            # sets of incident line indices, multiplicity >= 2
    per_line: list          # sorted multiplicities of the points on each line
    class_size: list        # size of each line's parallel class
    num_classes: int


def incidence(lines: list) -> Incidence:
    m = len(lines)
    by_point: dict = {}
    for i in range(m):
        a1, b1, c1 = lines[i]
        for j in range(i + 1, m):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det:
                pt = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
                by_point.setdefault(pt, set()).update((i, j))
    points = list(by_point.values())
    per_line = [[] for _ in range(m)]
    for idx in points:
        for i in idx:
            per_line[i].append(len(idx))
    directions = Counter()
    keys = []
    for a, b, _ in lines:
        lead = a if a else b
        keys.append((a / lead, b / lead))
        directions[keys[-1]] += 1
    return Incidence(m, points, [sorted(d) for d in per_line],
                     [directions[k] for k in keys], len(directions))


def label_of(inc: Incidence) -> str:
    m = inc.m
    if inc.num_classes == 1:
        return "AllParallel"
    if m >= 3 and any(len(idx) == m for idx in inc.points):
        return "Pencil"
    if m >= 3 and sorted(inc.class_size) == [1] + [m - 1] * (m - 1):
        return "NearPencil"
    for i in range(m):
        # a line of its own direction, meeting the rest in nodes only, while
        # the rest is not one parallel class
        if (inc.class_size[i] == 1 and all(d == 2 for d in inc.per_line[i])
                and inc.num_classes >= 3):
            return "HasNodalTransversalLine"
    if all(len(idx) == 2 for idx in inc.points) and inc.num_classes == m:
        return "GenericPosition"
    return "Other"


CLOSED_FORM = {
    "Pencil": lambda m: m * (m - 2),
    "NearPencil": lambda m: m - 2,
    "HasNodalTransversalLine": lambda m: 0,
}


def arrangement_expect(lines: list, delta0: int | None = None) -> dict:
    """What bounds, analyze and presentation must report for these lines."""
    inc = incidence(lines)
    m = inc.m
    per_line = []
    for i in range(m):
        k = inc.class_size[i]
        tube = sum((d - 1) ** 2 for d in inc.per_line[i]) - 1
        if k >= 2:
            tube += (k - 1) * (m - k)
        per_line.append({"line": i + 1, "parallel_class_size": k,
                         "point_multiplicities": inc.per_line[i], "bound": tube})
    label = label_of(inc)
    closed = CLOSED_FORM.get(label)
    return {
        "m": m,
        "label": label,
        "closed_form": closed(m) if closed else None,
        "best": min([m * (m - 2)] + [lb["bound"] for lb in per_line]),
        "per_line": per_line,
        "relators": sum(len(idx) - 1 for idx in inc.points),
        "delta0": delta0,
    }


# ----------------------------------------------------------------------
# presentation files of the closed-form families


def family_relators(name: str, m: int) -> list:
    """Relators as lists of signed 1-based generator indices."""
    def comm(u, v):
        return u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]
    if name == "pencil":
        full = list(range(m, 0, -1))
        return [comm([i], full) for i in range(1, m)]
    if name == "near-pencil":
        return [comm([i], [m]) for i in range(1, m)]
    if name == "generic":
        return [comm([i], [j]) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    raise ValueError(f"unknown presentation family {name!r}")


FAMILY_DELTA0 = {"pencil": lambda m: m * (m - 2), "near-pencil": lambda m: m - 2,
                 "generic": lambda m: 0}


def write_family_dsl(rng: random.Random, path: Path, name: str, m: int) -> dict:
    """Write the family presentation with fresh generator names.

    The names change, their order does not: the order of the generators
    sets the order of the minors, and so the cost of the degree route."""
    names = [f"g{k}" for k in rng.sample(range(10 * m), m)]
    rels = family_relators(name, m)
    text = ["gens: " + " ".join(names)]
    for rel in rels:
        text.append("rel: " + " ".join(
            names[x - 1] if x > 0 else f"{names[-x - 1]}^-1" for x in rel))
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    best = arrangement_expect(family_lines(name, m))["best"]
    return {"m": m, "relators": len(rels), "delta0": FAMILY_DELTA0[name](m), "best": best,
            "route": "both"}


# ----------------------------------------------------------------------
# workloads: each pass is a fresh batch of jobs drawn from the pass's rng


def _swept(rng, work, tag, family, m, delta0, diagonal=False, route="both"):
    lines = random_affine(rng, family_lines(family, m), diagonal)
    path = work / f"{tag}.txt"
    write_lines(path, lines)
    expect = arrangement_expect(lines, delta0)
    expect["route"] = route
    return Job(f"analyze {family} m={m} route {route}", "analyze", path, work / f"{tag}.out",
               expect, route)


def _dsl(rng, work, tag, family, m):
    path = work / f"{tag}.dsl"
    expect = write_family_dsl(rng, path, family, m)
    return Job(f"invariants {family} m={m}", "invariants", path, work / f"{tag}.out", expect)


def degree_heavy(rng: random.Random, work: Path) -> list:
    # The swept jobs run the degree route only: on most swept generic
    # pictures the localized route takes a tenth of a second, but on a few
    # it takes seconds (6 s on one m=5 picture), which would swamp the
    # layer this workload is for.  The m=5 pictures come from positive
    # diagonal maps: under general ones the degree route's time spreads
    # 1.6-fold with the picture, and the run's eleventh-slowest job would
    # be the top of that spread; under diagonal ones these jobs cost about
    # what the presentation jobs cost.
    return [
        _swept(rng, work, "g4a", "generic", 4, 0, route="degree"),
        _swept(rng, work, "g4b", "generic", 4, 0, route="degree"),
        _swept(rng, work, "g5a", "generic", 5, 0, diagonal=True, route="degree"),
        _swept(rng, work, "g5b", "generic", 5, 0, diagonal=True, route="degree"),
        _dsl(rng, work, "d5a", "generic", 5),
        _dsl(rng, work, "d5b", "generic", 5),
    ]


def localized_heavy(rng: random.Random, work: Path) -> list:
    # Six swept pencils m=6 sit in the middle of each pass's job times, with
    # six cheaper and six dearer jobs on either side, so the run's median job
    # falls inside that steady cluster and not on a gap between two kinds.
    jobs = [_dsl(rng, work, f"p{m}{k}", "pencil", m) for m, k in ((6, ""), (7, "a"), (7, "b"), (8, ""))]
    jobs += [_swept(rng, work, "sp5", "pencil", 5, 15)]
    jobs += [_swept(rng, work, f"sp6{k}", "pencil", 6, 24) for k in "abcdef"]
    jobs += [_swept(rng, work, f"sp7{k}", "pencil", 7, 35) for k in "ab"]
    jobs += [_swept(rng, work, f"np{m}", "near-pencil", m, m - 2) for m in (7, 8, 9)]
    # Only positive diagonal maps here: under about a third of general
    # affine maps this arrangement's picture sends the localized route to
    # seconds or past a minute (run.py --table shows one), and a timed
    # workload must not fail.
    jobs += [_swept(rng, work, f"t4{k}", "triple4", 4, 0, diagonal=True) for k in "ab"]
    return jobs


def sweep_heavy(rng: random.Random, work: Path) -> list:
    # A ladder of random sizes, with five of m=24 in its middle: the job
    # times of a run form a continuum, a pass of many mid-sized jobs costs
    # about the same whatever the pictures, and the median job falls among
    # the m=24 sweeps.  Bounds run on three arrangements only, so the median
    # job is a sweep.  Three generic m=30 per pass make the slowest cluster,
    # twelve jobs or more a run, so the eleventh-slowest job falls inside
    # it.  Random m > 30 and generic m > 30 are left out: they would leave
    # few passes in a run, and generic m=35 and m=40 swing with the
    # coordinates (2.6-3.9 s and 3.3-6.2 s per presentation).
    jobs = []
    sizes = [20, 22, 24, 24, 24, 24, 24, 26, 28, 30]
    arrangements = [("random", m, k in (0, 2, 9)) for k, m in enumerate(sizes)]
    arrangements += [("generic", 30, False)] * 3
    for k, (kind, m, with_bounds) in enumerate(arrangements):
        base = random_lines(rng, m) if kind == "random" else family_lines("generic", m)
        lines = random_affine(rng, base)
        path = work / f"s{k}.txt"
        write_lines(path, lines)
        expect = arrangement_expect(lines)
        for command in ("bounds", "presentation")[0 if with_bounds else 1:]:
            jobs.append(Job(f"{command} {kind} m={m}", command, path,
                            work / f"s{k}-{command}.out", expect))
    return jobs


WORKLOADS = {
    "degree-heavy": degree_heavy,
    "localized-heavy": localized_heavy,
    "sweep-heavy": sweep_heavy,
}


def make_pass(workload: str, seed: int, index: int, work: Path) -> list:
    """The jobs of pass `index`; the same (workload, seed, index) gives the
    same files byte for byte."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng, work)


# ----------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def check(job: Job, exit_code: int) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        text = job.out.read_text(encoding="utf-8")
    except OSError as exc:
        return f"no report: {exc}"
    if job.command == "presentation":
        return _check_presentation(text, job.expect)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    return CHECKS[job.command](doc, job.expect)


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _check_bounds_part(doc: dict, exp: dict) -> str | None:
    bounds = doc.get("bounds") or {}
    m = exp["m"]
    return (_mismatch("label", doc["classification"]["label"], exp["label"])
            or _mismatch("closed form", (doc["closed_form"] or {}).get("value"),
                         exp["closed_form"])
            or _mismatch("global bound", bounds.get("global_bound"), m * (m - 2))
            or _mismatch("best bound", bounds.get("best"), exp["best"])
            or _mismatch("per-line bounds", bounds.get("per_line"), exp["per_line"]))


def _check_invariants_part(inv: dict, exp: dict) -> str | None:
    d = exp["delta0"]
    if not d <= exp["best"] <= exp["m"] * (exp["m"] - 2):
        return f"delta0 {d} <= best {exp['best']} <= m(m-2) fails"
    routes = {"degree": d if exp["route"] != "pid" else None,
              "pid": d if exp["route"] != "degree" else None}
    return (_mismatch("delta0", inv["delta0"], d)
            or _mismatch("routes", inv["routes"], routes)
            or _mismatch("route agreement", inv["route_agreement"], True)
            or _mismatch("generators", inv["generators"], exp["m"])
            or _mismatch("relators", inv["relators"], exp["relators"]))


def _check_analyze(doc: dict, exp: dict) -> str | None:
    return (_mismatch("m", doc["classification"]["m"], exp["m"])
            or _check_bounds_part(doc, exp)
            or _check_invariants_part(doc["invariants"], exp))


def _check_invariants(doc: dict, exp: dict) -> str | None:
    return _check_invariants_part(doc["invariants"], exp)


def _check_bounds(doc: dict, exp: dict) -> str | None:
    return _mismatch("m", doc["input"]["m"], exp["m"]) or _check_bounds_part(doc, exp)


def _check_presentation(text: str, exp: dict) -> str | None:
    """m generators, the expected number of relators, and every relator
    with zero exponent sum in every generator: the group abelianizes to
    Z^m with no torsion."""
    gens, rels, wires = None, 0, None
    for raw in text.splitlines():
        if raw.startswith("# wire order"):
            wires = sorted(int(t) for t in raw.split(":", 1)[1].split())
        line = raw.split("#", 1)[0].strip()
        key, _, rest = line.partition(":")
        if key == "gens":
            gens = rest.split()
        elif key == "rel":
            sums = Counter()
            for token in rest.split():
                name, caret, power = token.partition("^")
                sums[name] += int(power) if caret else 1
            if gens is None or not set(sums) <= set(gens):
                return "relator uses an unknown generator"
            if any(sums.values()):
                return "relator with nonzero exponent sum: abelianization is not Z^m"
            rels += 1
    if gens is None or len(set(gens)) != len(gens):
        return "missing or repeated generators"
    return (_mismatch("generators", len(gens), exp["m"])
            or _mismatch("relators", rels, exp["relators"])
            or _mismatch("wire order", wires, list(range(1, exp["m"] + 1))))


CHECKS = {"analyze": _check_analyze, "invariants": _check_invariants, "bounds": _check_bounds}
