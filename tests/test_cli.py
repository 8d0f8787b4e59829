"""CLI behavior: reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from alexarr import cli
from alexarr.cli import main
from alexarr.selftest import CorpusCase, run_selftest
from alexarr.alexinv import Delta0
from alexarr.groups import parse_presentation


PENCIL3 = "line: 0 1 0\nline: 1 -1 0\nline: 1 1 0\n"
PARALLEL2 = "line: 0 1 0\nline: 0 1 1\n"
NEAR_PENCIL4 = "line: 0 1 0\nline: 0 1 1\nline: 0 1 2\nline: 1 0 0\n"
DECONED_A3 = "line: 1 0 0\nline: 0 1 0\nline: 1 0 1\nline: 0 1 1\nline: 1 -1 0\n"
A3_NODAL = DECONED_A3 + "line: 1 3 5\nline: 3 1 7\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None)


def test_analyze_pencil_file(tmp_path, capsys):
    f = tmp_path / "pencil3.txt"
    f.write_text(PENCIL3)
    code, doc = run_json(capsys, "analyze", str(f))
    assert code == 0
    assert doc["schema"] == 1
    assert doc["classification"]["label"] == "Pencil"
    assert doc["invariants"]["delta0"] == 3
    assert doc["invariants"]["alexander_polynomial"] == "t1*t2*t3 - 1"
    assert doc["invariants"]["route_agreement"] is True
    assert doc["bounds"]["best"] == 3


def test_analyze_parallel_lines(tmp_path, capsys):
    f = tmp_path / "par.txt"
    f.write_text(PARALLEL2)
    code, doc = run_json(capsys, "analyze", str(f))
    assert code == 0
    assert doc["classification"]["label"] == "AllParallel"
    assert doc["invariants"]["delta0"] == "infinite"
    assert doc["closed_form"]["value"] == "infinite"
    assert doc["bounds"] is None


def test_analyze_near_pencil_four(tmp_path, capsys):
    f = tmp_path / "np4.txt"
    f.write_text(NEAR_PENCIL4)
    code, doc = run_json(capsys, "analyze", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 2
    assert doc["bounds"]["best"] == 2
    assert doc["closed_form"]["value"] == 2


def test_analyze_family_flag_and_family_presentation(capsys):
    code, doc = run_json(
        capsys, "analyze", "--family", "pencil", "--m", "4",
        "--presentation", "family",
    )
    assert code == 0
    assert doc["presentation"]["source"] == "family"
    assert doc["invariants"]["delta0"] == 8


def test_analyze_deterministic_output(tmp_path, capsys):
    f = tmp_path / "pencil3.txt"
    f.write_text(PENCIL3)
    _, out1 = run(capsys, "analyze", str(f))
    _, out2 = run(capsys, "analyze", str(f))
    assert out1 == out2
    doc = json.loads(out1)
    assert json.loads(json.dumps(doc)) == doc


def test_analyze_out_file(tmp_path, capsys):
    f = tmp_path / "pencil3.txt"
    f.write_text(PENCIL3)
    target = tmp_path / "report.json"
    code, out = run(capsys, "analyze", str(f), "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["invariants"]["delta0"] == 3


@pytest.mark.parametrize("command", ["analyze", "bounds", "presentation"])
def test_analyze_parse_error_exit_2(tmp_path, capsys, command):
    f = tmp_path / "bad.txt"
    f.write_text("line: 1 2\n")
    assert main([command, str(f)]) == 2
    assert main([command, str(tmp_path / "missing.txt")]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# no lines\n")
    assert main([command, str(empty)]) == 2


@pytest.mark.parametrize("command", ["analyze", "bounds", "invariants", "presentation"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    f = tmp_path / "input.txt"
    f.write_text("gens: a b\nrel: a b a^-1 b^-1\n" if command == "invariants" else PENCIL3)
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main([command, str(f), "--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "bounds", "presentation"])
def test_analyze_geometric_error_exit_3(tmp_path, capsys, command):
    f = tmp_path / "dup.txt"
    f.write_text("line: 0 1 0\nline: 0 2 0\n")
    assert main([command, str(f)]) == 3


def test_invariants_command(tmp_path, capsys):
    f = tmp_path / "hopf.pres"
    f.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    code, doc = run_json(capsys, "invariants", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 0
    assert doc["invariants"]["alexander_polynomial"] == "1"
    assert doc["invariants"]["codim_gt_one"] is True


def test_invariants_trefoil(tmp_path, capsys):
    f = tmp_path / "trefoil.pres"
    f.write_text("gens: a b\nrel: a b a b^-1 a^-1 b^-1\n")
    code, doc = run_json(capsys, "invariants", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 2
    assert doc["invariants"]["alexander_polynomial"] == "t1^2 - t1 + 1"


def test_invariants_single_line_free_group(tmp_path, capsys):
    f = tmp_path / "f1.pres"
    f.write_text("gens: a\n")
    code, doc = run_json(capsys, "invariants", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 0


def test_invariants_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.pres"
    f.write_text("gens: a\nrel: b\n")
    assert main(["invariants", str(f)]) == 2


def test_invariants_route_selection(tmp_path, capsys):
    f = tmp_path / "hopf.pres"
    f.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    code, doc = run_json(capsys, "invariants", str(f), "--route", "degree")
    assert code == 0
    assert doc["invariants"]["routes"]["pid"] is None
    code, doc = run_json(capsys, "invariants", str(f), "--route", "pid")
    assert code == 0
    assert doc["invariants"]["routes"]["degree"] is None
    assert doc["invariants"]["delta0"] == 0


def test_bounds_arrangement(tmp_path, capsys):
    f = tmp_path / "np3.txt"
    f.write_text("line: 0 1 0\nline: 0 1 1\nline: 1 0 0\n")
    code, doc = run_json(capsys, "bounds", str(f))
    assert code == 0
    assert doc["classification"]["label"] == "NearPencil"
    assert doc["bounds"]["best"] == 1


def test_bounds_curve_mode(tmp_path, capsys):
    f = tmp_path / "curve.txt"
    f.write_text("curve: m=4 r=3 tangents=1\n")
    code, doc = run_json(capsys, "bounds", str(f))
    assert code == 0
    assert doc == {
        "schema": 1,
        "input": {"kind": "curve", "m": 4, "r": 3, "tangents": 1},
        "hypotheses_hold": True,
        "reason": "at least one transversal point at infinity",
        "bound": 8,
        "intermediate": 8,
    }
    f.write_text("curve: m=4 r=2 tangents=2\n")
    code, doc = run_json(capsys, "bounds", str(f))
    assert code == 0
    assert doc == {
        "schema": 1,
        "input": {"kind": "curve", "m": 4, "r": 2, "tangents": 2},
        "hypotheses_hold": False,
        "reason": "no transversal point at infinity and degree > 2",
        "bound": None,
        "intermediate": None,
    }


def test_bounds_curve_inconsistent_flags_exit_3(tmp_path, capsys):
    f = tmp_path / "curve.txt"
    f.write_text("curve: m=4 r=3 tangents=0\n")
    assert main(["bounds", str(f)]) == 3


def test_bounds_curve_mode_huge_counts(tmp_path, capsys):
    # the bound comes from the counts; no per-point list of 10^13 flags
    m = 10_000_000_000_000
    f = tmp_path / "curve.txt"
    f.write_text(f"curve: m={m} r={m} tangents=0\n")
    code, doc = run_json(capsys, "bounds", str(f))
    assert code == 0
    assert doc["bound"] == m * (m - 2)
    assert doc["intermediate"] is None


@pytest.mark.parametrize("line, message", [
    ("curve: m=4 r=0 tangents=0\n", "need 1 <= r <= m"),
    ("curve: m=4 r=5 tangents=0\n", "need 1 <= r <= m"),
    ("curve: m=4 r=2 tangents=3\n", "one tangency flag per point at infinity"),
])
def test_bounds_curve_rejections_exit_3(tmp_path, capsys, line, message):
    f = tmp_path / "curve.txt"
    f.write_text(line)
    assert main(["bounds", str(f)]) == 3
    assert message in capsys.readouterr().err


def test_presentation_family_roundtrip(capsys, tmp_path):
    code, out = run(capsys, "presentation", "--family", "near-pencil", "--m", "3")
    assert code == 0
    f = tmp_path / "np3.pres"
    f.write_text(out)
    code, doc = run_json(capsys, "invariants", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 1


def test_presentation_wiring_roundtrip(tmp_path, capsys):
    arr = tmp_path / "pencil3.txt"
    arr.write_text(PENCIL3)
    pres = tmp_path / "pencil3.pres"
    code, _ = run(capsys, "presentation", str(arr), "--out", str(pres))
    assert code == 0
    text = pres.read_text()
    assert "# shear:" in text
    code, doc = run_json(capsys, "invariants", str(pres))
    assert code == 0
    assert doc["invariants"]["delta0"] == 3


def test_repeated_main_calls_match_fresh_calls(tmp_path, capsys):
    # main builds its parser once per process; calls that share it must
    # answer as calls that build their own
    arr = tmp_path / "pencil3.txt"
    arr.write_text(PENCIL3)
    dsl = tmp_path / "hopf.dsl"
    dsl.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    calls = [
        ["analyze", str(arr)],
        ["bounds", str(arr)],
        ["invariants", str(dsl), "--route", "pid"],
        ["analyze", str(arr), "--route", "sideways"],  # usage error
        ["analyze", str(arr)],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
    assert "invalid choice: 'sideways'" in fresh[3][2]


def test_selftest_ok_and_filter(capsys):
    assert main(["selftest", "--filter", "dsl-hopf"]) == 0
    out = capsys.readouterr().out
    assert "dsl-hopf" in out and "FAIL" not in out


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "alexarr", "selftest", "--filter", "family-pencil-3"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "family-pencil-3" in proc.stdout and "FAIL" not in proc.stdout


def test_cli_import_leaves_selftest_unloaded():
    """Only the selftest command loads the corpus module."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, alexarr.cli; sys.exit('alexarr.selftest' in sys.modules)"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_selftest_failure_exit_code(monkeypatch, capsys):
    import alexarr.selftest as selftest

    monkeypatch.setattr(selftest, "run_selftest", lambda name_filter=None: (5, 2))
    assert main(["selftest"]) == 1


def test_route_disagreement_exit_4(tmp_path, monkeypatch, capsys):
    # two routes that both ran disagree only after a bad random draw of the
    # localized route, far too rare to meet, so fake a disagreeing report
    import alexarr.cli as cli
    from alexarr.alexinv import InvariantReport
    from alexarr.ringkit import LaurentPolynomial

    fake = InvariantReport(
        alexander_poly=LaurentPolynomial.one(2),
        delta0=Delta0.of(0),
        delta0_degree_route=Delta0.of(0),
        delta0_pid_route=Delta0.of(1),
        route_agreement=False,
        codim_gt_one=True,
        s=2,
        num_gens=2,
        num_relators=1,
    )
    monkeypatch.setattr(cli, "compute_invariants", lambda p, routes="both": fake)
    f = tmp_path / "hopf.pres"
    f.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    assert main(["invariants", str(f)]) == 4
    assert capsys.readouterr().err == "error: the two degree routes disagree\n"


@pytest.mark.parametrize("text", ["gens: a\nrel: a\n", "gens: a b\nrel: a^2\nrel: b\n"])
def test_skipped_localized_route_exit_4_under_both(tmp_path, capsys, text):
    # a trivial torsion-free abelianization leaves the localized route no
    # variable to localize at: it is skipped with a warning, and --route
    # both, which asks for two routes, stops with exit 4 naming the reason;
    # only there can the routes disagree
    f = tmp_path / "trivial.pres"
    f.write_text(text)
    reason = "the group has trivial torsion-free abelianization; no linking direction exists"
    code, doc = run_json(capsys, "invariants", str(f), "--route", "degree")
    assert code == 0
    assert doc["invariants"]["delta0"] == 0
    assert doc["invariants"]["route_agreement"] is True
    code, doc = run_json(capsys, "invariants", str(f), "--route", "pid")
    assert code == 0
    assert doc["invariants"]["delta0"] is None
    assert doc["invariants"]["route_agreement"] is True
    assert reason in doc["warnings"]
    assert main(["invariants", str(f)]) == 4
    captured = capsys.readouterr()
    assert reason in json.loads(captured.out)["warnings"]
    assert json.loads(captured.out)["invariants"]["route_agreement"] is False
    assert captured.err == f"error: the localized route did not run: {reason}\n"


TWO_PARALLEL_PAIRS = "line: 1 0 0\nline: 1 0 1\nline: 0 1 0\nline: 0 1 1\n"


@pytest.mark.parametrize("argv, text, message", [
    (["bounds"], "curve: m=x r=3 tangents=1\n", "malformed curve token 'm=x'"),
    (["bounds"], "curve: m4 r=3 tangents=1\n", "malformed curve token 'm4'"),
    (["bounds"], "curve: m=4 r=3\n", "curve line is missing tangents="),
    (["analyze", "--family", "pencil"], None, "--family requires --m"),
    (["analyze"], None, "need an arrangement file or --family/--m"),
    (["analyze", "--presentation", "family"], TWO_PARALLEL_PAIRS,
     "classification Other has no closed-form family presentation"),
    (["invariants"], "gens: a\ngens: b\n", "line 2: repeated gens line"),
    (["invariants"], "meridians: a\ngens: a\n", "line 1: meridians before gens"),
    (["bounds"], "curve: m=4 r=3 tangents=1 tangent=5\n",
     "unknown curve key in token 'tangent=5'"),
    (["bounds"], "curve: m=4 m=5 r=4 tangents=1\n", "repeated curve key in token 'm=5'"),
    (["bounds"], "curve: m=4 r=3 tangents=-1\n",
     "negative curve value in token 'tangents=-1'"),
    # int() alone would read an Arabic-Indic four as 4 and 0_1 as 1
    (["bounds"], "curve: m=\u0664 r=3 tangents=1\n", "malformed curve token 'm=\u0664'"),
    (["bounds"], "curve: m=4 r=3 tangents=0_1\n", "malformed curve token 'tangents=0_1'"),
    # Fraction alone would read an Arabic-Indic three as 3
    (["bounds"], "line: 1 2 3\nline: \u0663 1 \u0663\n", "line 2: bad rational token"),
    # a curve file holds one curve row and nothing else
    (["bounds"], "curve: m=4 r=3 tangents=1\ncurve: m=5 r=3 tangents=1\n",
     "line 2: repeated curve line"),
    (["bounds"], "# curve\ncurve: m=4 r=3 tangents=1\n\nbogus stuff here\n",
     "line 4: unexpected row in a curve file"),
    (["bounds"], "line: 1 0 0\ncurve: m=4 r=3 tangents=1\n",
     "line 1: unexpected row in a curve file"),
    (["invariants"], "gens: a b\nmeridians: a\nmeridians: b\n", "line 3: repeated meridians line"),
    # a list of 10^20 letters overflows its length, one of 10^15 fails to allocate
    (["invariants"], "gens: a b\nrel: a^99999999999999999999 b\n",
     "line 2: exponent too large to expand in token 'a^99999999999999999999'"),
    (["invariants"], "gens: a\nrel: a^1000000000000000\n",
     "line 2: exponent too large to expand in token 'a^1000000000000000'"),
    # bytes that are not UTF-8; {path} stands for the input file
    (["analyze"], b"line: 1 0 0\n\xff\n", "cannot read {path}: 'utf-8' codec can't decode "
     "byte 0xff in position 12: invalid start byte"),
    (["bounds"], b"\xff", "cannot read {path}: 'utf-8' codec can't decode "
     "byte 0xff in position 0: invalid start byte"),
    (["invariants"], b"\xff", "cannot read {path}: 'utf-8' codec can't decode "
     "byte 0xff in position 0: invalid start byte"),
    (["presentation"], b"\xff", "cannot read {path}: 'utf-8' codec can't decode "
     "byte 0xff in position 0: invalid start byte"),
    # one input per command: a file or a family, and --m only with --family
    (["analyze", "/nonexistent/file.txt", "--family", "pencil", "--m", "3"], None,
     "give an arrangement file or --family/--m, not both"),
    (["presentation", "--family", "pencil", "--m", "3"], PENCIL3,
     "give an arrangement file or --family/--m, not both"),
    (["analyze", "--m", "7"], PENCIL3, "--m requires --family"),
    (["presentation", "--m", "9"], PENCIL3, "--m requires --family"),
    (["presentation", "--family", "pencil", "--m", "2"], None, "pencil family needs m >= 3"),
    (["selftest", "--filter", "nomatch"], None, "no selftest check matches 'nomatch'"),
    # int reads at most 4,300 digits; the ids keep the long inputs out of the test names
    pytest.param(["invariants"], f"gens: a\nrel: a^{'9' * 5000}\n",
                 f"line 2: malformed exponent in token 'a^{'9' * 5000}'",
                 id="dsl-exponent-5000-digits"),
    pytest.param(["bounds"], f"curve: m={'9' * 5000} r=1 tangents=0\n",
                 f"malformed curve token 'm={'9' * 5000}'", id="curve-value-5000-digits"),
    # Fraction would build 10^999999999 before it returned
    (["bounds"], "line: 1e999999999 1 0\n", "line 1: bad rational token"),
    (["bounds"], "line: 0 1 0\nline: 1e-999999999 1 0\n", "line 2: bad rational token"),
    # str prints at most 4,300 digits, and 1/10^4300 has 4,301 in its denominator
    (["analyze"], "# three lines\nline: 0 1 0\n\nline: 1e4300 1 0\nline: 1 0 3\n",
     "line 4: a normalized coefficient has more than 4300 digits"),
    (["bounds"], "line: 1 1e4300 0\n", "line 1: a normalized coefficient has more than 4300 digits"),
    # a bad relator token names its line, as every other DSL error does
    pytest.param(["invariants"], "gens: a b\nrel: a c\n",
                 "line 2: unknown generator name 'c'", id="dsl-unknown-generator"),
    pytest.param(["invariants"], "gens: a\n# x\nrel: a a^x\n",
                 "line 3: malformed exponent in token 'a^x'", id="dsl-malformed-exponent"),
    # no relator token could name x^2: it reads as x squared
    pytest.param(["invariants"], "gens: x^2 b\nrel: b x^2 b^-1\n",
                 "line 1: generator name 'x^2' contains '^'", id="dsl-caret-in-generator-name"),
])
def test_usage_error_exit_2_with_message(tmp_path, capsys, argv, text, message):
    if text is not None:
        f = tmp_path / "input.txt"
        if isinstance(text, bytes):
            f.write_bytes(text)
        else:
            f.write_text(text)
        argv = argv + [str(f)]
        message = message.replace("{path}", str(f))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, text", [
    (["analyze"], PENCIL3),
    (["invariants"], "gens: a b\nrel: a b a^-1 b^-1\n"),
    (["bounds"], "curve: m=4 r=3 tangents=1\n"),
])
def test_byte_order_mark_is_read_as_utf8(tmp_path, capsys, argv, text):
    f = tmp_path / "input.txt"
    runs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        f.write_bytes(bom + text.encode())
        runs.append((main(argv + [str(f)]), capsys.readouterr()))
    assert runs[0][0] == 0 and runs[0][1].err == ""
    assert runs[1] == runs[0]


def test_analyze_deconed_a3_with_default_routes(tmp_path, capsys):
    f = tmp_path / "a3.txt"
    f.write_text(DECONED_A3)
    code, doc = run_json(capsys, "analyze", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 0
    assert doc["invariants"]["routes"] == {"degree": 0, "pid": 0}


def test_analyze_pid_route_on_a3_plus_two_nodal_lines(tmp_path, capsys):
    # the report carries Δ under every route, so this also runs the degree
    # route: 7 x 16, 8008 column sets, Δ = 1 after a few of them
    f = tmp_path / "a3-nodal.txt"
    f.write_text(A3_NODAL)
    code, doc = run_json(capsys, "analyze", str(f), "--route", "pid")
    assert code == 0
    assert doc["invariants"]["delta0"] == 0
    assert doc["invariants"]["routes"] == {"degree": None, "pid": 0}
    assert doc["invariants"]["alexander_polynomial"] == "1"


def test_selftest_corrupted_corpus_entry_fails_by_name():
    # a case with a wrong expected value must fail and be named
    bad = CorpusCase(
        "corrupted-entry",
        lambda: (parse_presentation("gens: a b\nrel: a b a^-1 b^-1\n"), None),
        Delta0.of(7),
    )
    lines = []
    passed, failed = run_selftest(cases=[bad], name_filter="corrupted",
                                  emit=lines.append)
    assert failed == 1
    assert any("corrupted-entry" in ln and "FAIL" in ln and "expected 7" in ln
               for ln in lines)


_NUMBERS = ["-2", "-1", "0", "1", "2", "3", "3/2", "12345678901234567890"]
_NAMES = ["a", "b", "c"]
_POWERS = [f"{g}^{e}" for g in _NAMES for e in [*range(-3, 4), 10 ** 20]]
_ALPHABET = ["^", *_NUMBERS, *_NAMES, *_POWERS,
             *(f"{k}={n}" for k in cli._CURVE_KEYS for n in _NUMBERS)]
# a row of each key holding only tokens of the kind that key reads
_CLEAN_ROW = {
    "line:": lambda rng: rng.choices(_NUMBERS, k=3),
    "curve:": lambda rng: [f"{k}={rng.choice(_NUMBERS)}" for k in rng.sample(cli._CURVE_KEYS, 3)],
    "gens:": lambda rng: rng.sample(_NAMES, rng.randint(1, 3)),
    "rel:": lambda rng: rng.choices(_NAMES + _POWERS, k=rng.randint(0, 4)),
    "meridians:": lambda rng: rng.sample(_NAMES, rng.randint(0, 3)),
}
# the keys of the rows each command reads; an invariants file starts with gens:
_COMMAND_KEYS = {
    "analyze": ["line:"],
    "presentation": ["line:"],
    "bounds": ["line:", "curve:"],
    "invariants": ["rel:", "meridians:"],
}


def token_soup(rng, command):
    """Up to five rows (after an invariants file's gens row).  Nine rows in
    ten have a key the command reads, and four in five are clean; the rest
    hold zero to four tokens of the whole alphabet."""
    keys = ["gens:"] if command == "invariants" else []
    for _ in range(rng.randint(0, 5)):
        keys.append(rng.choice(_COMMAND_KEYS[command] if rng.random() < 0.9 else list(_CLEAN_ROW)))
    rows = []
    for key in keys:
        if rng.random() < 0.8:
            tokens = _CLEAN_ROW[key](rng)
        else:
            tokens = rng.choices(_ALPHABET, k=rng.randint(0, 4))
        rows.append(" ".join([key, *tokens]) + "\n")
    return "".join(rows)


@seed(2022)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_COMMAND_KEYS)), st.randoms(use_true_random=True))
def test_token_soup_exits_with_a_documented_code(command, rng):
    # every input ends in a report or a one-line error, never a traceback;
    # the one exit 4 an input can cause by itself is a group whose localized
    # route cannot run (trivial torsion-free abelianization)
    text = token_soup(rng, command)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "soup.txt"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 2, 3) or (
        code == 4 and err.getvalue().startswith("error: the localized route did not run")), (
        text, code, err.getvalue())
