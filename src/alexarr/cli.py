"""Command-line front end.

Commands:
    analyze       arrangement file (or --family NAME --m N) -> full JSON report
    invariants    presentation DSL file -> invariant JSON report
    bounds        arrangement file or curve data -> bound JSON report
    presentation  emit the presentation DSL for a family or a swept file
    selftest      run the bundled corpus

Exit codes: 0 success, 1 selftest failure, 2 parse/usage error,
3 geometric inconsistency, 4 internal invariant violation (the two degree
routes disagree; under --route both the localized route could not run; or
analyze's closed-form value differs from the computed degree).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from .alexinv import InvariantReport, compute_invariants
from .arrangements import (
    ArrangementError,
    ClassLabel,
    ClosedForm,
    FAMILIES,
    FAMILY_BY_LABEL,
    IntersectionData,
    classify_arrangement,
    combinatorial_bounds,
    curve_bound_from_counts,
    family_arrangement,
    family_presentation,
    intersect_arrangement,
    parse_arrangement,
    vanishing_and_infinite_verdicts,
    wiring_presentation,
)
from .groups import PresentationError, parse_presentation, serialize_presentation

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
    """Write a report or a DSL text to --out, or else to standard output;
    an unwritable --out is exit 2, as an unreadable input is."""
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliFailure(EXIT_PARSE, f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _emit_invariants(doc: dict, report: InvariantReport, args) -> None:
    """Write doc with the invariants of report added; after writing, fail
    with exit 4 if the routes disagree, which only --route both can report
    (the two routes differ, or the localized route could not run)."""
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
    if not report.route_agreement:
        if report.delta0_pid_route is None:
            # compute_invariants records the reason as its last warning
            raise CliFailure(EXIT_INTERNAL,
                             f"the localized route did not run: {report.warnings[-1]}")
        raise CliFailure(EXIT_INTERNAL, "the two degree routes disagree")


def _read(path: str) -> str:
    """The text of an input file, as UTF-8 after an optional byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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


def _family_mode(args) -> bool:
    """Whether the input is --family NAME --m N rather than an arrangement
    file.  Exit 2 unless exactly one of the two is given, and --family and
    --m come together."""
    if args.family and args.path:
        raise CliFailure(EXIT_PARSE, "give an arrangement file or --family/--m, not both")
    if args.family and args.m is None:
        raise CliFailure(EXIT_PARSE, "--family requires --m")
    if not args.family and args.m is not None:
        raise CliFailure(EXIT_PARSE, "--m requires --family")
    if not args.family and not args.path:
        raise CliFailure(EXIT_PARSE, "need an arrangement file or --family/--m")
    return bool(args.family)


def _load_lines(args) -> list:
    """The lines of the arrangement file, or of --family NAME --m N."""
    if _family_mode(args):
        return _guard(EXIT_PARSE, family_arrangement, args.family, args.m)
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
        family = FAMILY_BY_LABEL.get(label.label)
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


_CURVE_KEYS = ("m", "r", "tangents")


def _parse_curve_line(text: str) -> dict | None:
    """The fields of the ``curve:`` row, or None when there is none.  A curve
    file holds that row alone besides comments and blank lines.  Each key of
    ``_CURVE_KEYS`` must appear once, with a nonnegative integer value of
    at most 4,300 ASCII digits, and no other key may appear."""
    rows = [(lineno, stripped) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (stripped := raw.split("#", 1)[0].strip())]
    if not any(row.startswith("curve:") for _, row in rows):
        return None
    if len(rows) > 1:  # name the first row that is not the first curve row
        lineno, row = rows[1] if rows[0][1].startswith("curve:") else rows[0]
        what = "repeated curve line" if row.startswith("curve:") else "unexpected row in a curve file"
        raise ArrangementError(f"line {lineno}: {what}")
    fields = {}
    for token in rows[0][1].removeprefix("curve:").split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ArrangementError(f"malformed curve token {token!r}")
        if key not in _CURVE_KEYS:
            raise ArrangementError(f"unknown curve key in token {token!r}")
        if key in fields:
            raise ArrangementError(f"repeated curve key in token {token!r}")
        # int reads at most 4,300 digits (Python's default limit)
        if not re.fullmatch(r"[+-]?[0-9]{1,4300}", value):
            raise ArrangementError(f"malformed curve token {token!r}")
        fields[key] = int(value)
        if fields[key] < 0:
            raise ArrangementError(f"negative curve value in token {token!r}")
    for key in _CURVE_KEYS:
        if key not in fields:
            raise ArrangementError(f"curve line is missing {key}=")
    return fields


def cmd_bounds(args) -> int:
    text = _read(args.path)
    curve = _guard(EXIT_PARSE, _parse_curve_line, text)
    if curve is not None:
        rep = _guard(EXIT_GEOMETRY, curve_bound_from_counts,
                     curve["m"], curve["r"], curve["tangents"])
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
    if _family_mode(args):
        pres = _guard(EXIT_PARSE, family_presentation, args.family, args.m)
        header = f"# family: {args.family} m={args.m}\n"
    else:
        pres, sweep = _guard(EXIT_GEOMETRY, wiring_presentation, _load_lines(args))
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
    from . import selftest  # imported here, so other commands skip compiling it

    passed, failed = selftest.run_selftest(name_filter=args.filter)
    if not passed + failed:
        raise CliFailure(EXIT_PARSE, f"no selftest check matches {args.filter!r}")
    return EXIT_SELFTEST if failed else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: parsing does not change it, and each call gets a fresh
    namespace."""
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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
