"""Command-line front end.

Commands:
    analyze       arrangement file (or --family NAME --m N) -> full JSON report
    invariants    presentation DSL file -> invariant JSON report
    bounds        arrangement file or curve data -> bound JSON report
    presentation  emit the presentation DSL for a family or a swept file
    selftest      run the bundled corpus

Exit codes: 0 success, 1 selftest failure, 2 parse/usage error,
3 geometric inconsistency, 4 internal invariant violation (the two degree
routes, or the random draws of the localized route, disagree).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .alexinv import InvariantReport, SpecializationError, compute_invariants
from .arrangements import (
    ArrangementError,
    ClassLabel,
    ClosedForm,
    FAMILIES,
    IntersectionData,
    classify_arrangement,
    combinatorial_bounds,
    curve_at_infinity_bound,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    parse_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from .groups import PresentationError, parse_presentation, serialize_presentation
from .selftest import run_selftest

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_INTERNAL = 4


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _delta0_json(d) -> object:
    if d is None:
        return None
    return d.value if d.finite else "infinite"


def _closed_form_json(cf: ClosedForm | None) -> object:
    if cf is None:
        return None
    return {
        "label": cf.label,
        "value": "infinite" if cf.value is None else cf.value,
        "all_n": cf.all_n,
        "statement": cf.statement,
    }


def _bounds_json(data: IntersectionData, label: ClassLabel) -> object:
    """Global and per-line tube bounds; None for a non-essential arrangement."""
    if not label.essential:
        return None
    bounds = combinatorial_bounds(data, label)
    return {
        "global_bound": bounds.global_bound,
        "best": bounds.best,
        "per_line": [
            {
                "line": lb.line_index + 1,
                "parallel_class_size": lb.parallel_class_size,
                "point_multiplicities": list(lb.point_multiplicities),
                "bound": lb.bound,
            }
            for lb in bounds.line_bounds
        ],
    }


def _emit(text: str, out: str | None) -> None:
    """Write a report or a DSL text to --out, or else to standard output."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _emit_invariants(doc: dict, report: InvariantReport, args) -> None:
    """Write doc with the invariants of report added; after writing, fail
    with exit 4 if both routes ran and disagree."""
    doc["invariants"] = {
        "s": report.s,
        "alexander_polynomial": report.alexander_poly.format(),
        "delta0": _delta0_json(report.delta0),
        "routes": {
            "degree": _delta0_json(report.delta0_degree_route),
            "pid": _delta0_json(report.delta0_pid_route),
        },
        "route_agreement": report.route_agreement,
        "codim_gt_one": report.codim_gt_one,
        "generators": report.num_gens,
        "relators": report.num_relators,
    }
    doc["warnings"] = list(report.warnings)
    doc["notes"] = list(report.notes)
    _emit_json(doc, args.out)
    if args.route == "both" and not report.route_agreement:
        raise CliFailure(EXIT_INTERNAL, "the two degree routes disagree")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from None


def _guard(code: int, fn, *args):
    """fn(*args), with an input error it raises turned into exit `code`.

    Callers name fn at the call, so a function replaced on this module (as
    the benchmark's tracer does) is the one that runs.
    """
    try:
        return fn(*args)
    except (ArrangementError, PresentationError) as exc:
        raise CliFailure(code, str(exc)) from None


def _load_lines(args) -> list:
    """The lines of the arrangement file, or of --family NAME --m N."""
    if args.family:
        if args.m is None:
            raise CliFailure(EXIT_PARSE, "--family requires --m")
        return _guard(EXIT_PARSE, family_arrangement, args.family, args.m)
    if not args.path:
        raise CliFailure(EXIT_PARSE, "need an arrangement file or --family/--m")
    return _guard(EXIT_PARSE, parse_arrangement, _read(args.path))


def cmd_analyze(args) -> int:
    lines = _load_lines(args)
    if args.family:
        provenance = {"kind": "family", "family": args.family, "m": args.m}
    else:
        provenance = {"kind": "arrangement-file", "path": args.path}
    provenance["lines"] = [str(ln) for ln in lines]
    data = _guard(EXIT_GEOMETRY, intersect_arrangement, lines)
    label = classify_arrangement(data)
    verdict = vanishing_and_infinite_verdicts(label, data)
    bounds_doc = _bounds_json(data, label)

    if args.presentation == "family":
        family_by_label = {
            "Pencil": "pencil",
            "NearPencil": "near-pencil",
            "AllParallel": "parallel",
            "GenericPosition": "generic",
        }
        family = family_by_label.get(label.label)
        if family is None:
            raise CliFailure(
                EXIT_PARSE,
                f"classification {label.label} has no closed-form family presentation",
            )
        pres = family_presentation(family, data.m)
        pres_doc = {"source": "family", "family": family}
    else:
        pres, sweep = _guard(EXIT_GEOMETRY, wiring_presentation, lines)
        pres_doc = {
            "source": "wiring",
            "shear": str(sweep.shear),
            "wire_lines": [i + 1 for i in sweep.wire_lines],
        }
    pres_doc["dsl"] = serialize_presentation(pres)

    report = compute_invariants(pres, routes=args.route)
    doc = {
        "schema": SCHEMA_VERSION,
        "input": provenance,
        "classification": {
            "label": label.label,
            "essential": label.essential,
            "detail": label.detail,
            "m": data.m,
        },
        "bounds": bounds_doc,
        "closed_form": _closed_form_json(verdict),
        "presentation": pres_doc,
    }
    _emit_invariants(doc, report, args)
    if verdict is not None and report.delta0 is not None:
        want = "infinite" if verdict.value is None else verdict.value
        got = _delta0_json(report.delta0)
        if want != got:
            raise CliFailure(
                EXIT_INTERNAL,
                f"closed-form value {want} differs from computed degree {got}",
            )
    return EXIT_OK


def cmd_invariants(args) -> int:
    pres = _guard(EXIT_PARSE, parse_presentation, _read(args.path))
    report = compute_invariants(pres, routes=args.route)
    doc = {
        "schema": SCHEMA_VERSION,
        "input": {
            "kind": "presentation-file",
            "path": args.path,
            "gens": list(pres.gens),
        },
    }
    _emit_invariants(doc, report, args)
    return EXIT_OK


def _parse_curve_line(text: str) -> dict | None:
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped.startswith("curve:"):
            continue
        fields = {}
        for token in stripped[len("curve:"):].split():
            key, eq, value = token.partition("=")
            if not eq:
                raise ArrangementError(f"malformed curve token {token!r}")
            try:
                fields[key] = int(value)
            except ValueError:
                raise ArrangementError(f"malformed curve token {token!r}") from None
        for key in ("m", "r", "tangents"):
            if key not in fields:
                raise ArrangementError(f"curve line is missing {key}=")
        return fields
    return None


def cmd_bounds(args) -> int:
    text = _read(args.path)
    curve = _guard(EXIT_PARSE, _parse_curve_line, text)
    if curve is not None:
        flags = [True] * curve["tangents"] + [False] * (curve["r"] - curve["tangents"])
        rep = _guard(EXIT_GEOMETRY, curve_at_infinity_bound, curve["m"], curve["r"], flags)
        doc = {
            "schema": SCHEMA_VERSION,
            "input": {"kind": "curve", **curve},
            "hypotheses_hold": rep.hypotheses_hold,
            "reason": rep.reason,
            "bound": rep.bound,
            "intermediate": rep.intermediate,
        }
    else:
        lines = _guard(EXIT_PARSE, parse_arrangement, text)
        data = _guard(EXIT_GEOMETRY, intersect_arrangement, lines)
        label = classify_arrangement(data)
        doc = {
            "schema": SCHEMA_VERSION,
            "input": {"kind": "arrangement-file", "path": args.path, "m": data.m},
            "classification": {"label": label.label, "essential": label.essential},
            "closed_form": _closed_form_json(vanishing_and_infinite_verdicts(label, data)),
            "bounds": _bounds_json(data, label),
        }
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_presentation(args) -> int:
    lines = _load_lines(args)  # under --family, this checks the family and --m
    if args.family:
        pres = family_presentation(args.family, args.m)
        header = f"# family: {args.family} m={args.m}\n"
    else:
        pres, sweep = _guard(EXIT_GEOMETRY, wiring_presentation, lines)
        header = (
            f"# swept arrangement: {args.path}\n"
            f"# shear: {sweep.shear}\n"
            f"# wire order (bottom to top), as input line numbers: "
            + " ".join(str(i + 1) for i in sweep.wire_lines)
            + "\n"
        )
    _emit(header + serialize_presentation(pres), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    _, failed = run_selftest(name_filter=args.filter)
    return EXIT_SELFTEST if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alexarr",
        description=(
            "Exact Alexander-type invariants (multivariable Alexander "
            "polynomial, zeroth higher-order degree, combinatorial bounds) "
            "of line arrangement and plane curve complements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_route=True):
        p.add_argument("--out", metavar="PATH", help="write the JSON report here")
        if with_route:
            p.add_argument("--route", choices=("degree", "pid", "both"),
                           default="both", help="which degree computation(s) to run")

    p = sub.add_parser("analyze", help="full pipeline on an arrangement")
    p.add_argument("path", nargs="?", help="arrangement file ('line: a b c' per line)")
    p.add_argument("--family", choices=FAMILIES, help="analyze a built-in family instead")
    p.add_argument("--m", type=int, help="line count for --family")
    p.add_argument("--presentation", choices=("wiring", "family"), default="wiring",
                   help="presentation source for the invariants")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("invariants", help="invariants of a presentation DSL file")
    p.add_argument("path", help="presentation file")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("bounds", help="combinatorial bounds only")
    p.add_argument("path", help="arrangement file or curve data ('curve: m=4 r=3 tangents=1')")
    common(p, with_route=False)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("presentation", help="emit a presentation in the DSL")
    p.add_argument("path", nargs="?", help="arrangement file to sweep")
    p.add_argument("--family", choices=FAMILIES, help="emit a closed-form family")
    p.add_argument("--m", type=int, help="line count for --family")
    p.add_argument("--out", metavar="PATH", help="write the DSL here")
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("selftest", help="run the bundled corpus")
    p.add_argument("--filter", help="only run checks whose name contains this")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SpecializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
