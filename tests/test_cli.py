"""CLI behavior: reports, exit codes, determinism."""

import json

import pytest

from alexarr.cli import main
from alexarr.selftest import CorpusCase, run_selftest
from alexarr.alexinv import Delta0


PENCIL3 = "line: 0 1 0\nline: 1 -1 0\nline: 1 1 0\n"
PARALLEL2 = "line: 0 1 0\nline: 0 1 1\n"
NEAR_PENCIL4 = "line: 0 1 0\nline: 0 1 1\nline: 0 1 2\nline: 1 0 0\n"
DECONED_A3 = "line: 1 0 0\nline: 0 1 0\nline: 1 0 1\nline: 0 1 1\nline: 1 -1 0\n"


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
    assert doc["bound"] == 8 and doc["intermediate"] == 8
    f.write_text("curve: m=4 r=2 tangents=2\n")
    code, doc = run_json(capsys, "bounds", str(f))
    assert code == 0
    assert doc["hypotheses_hold"] is False and doc["bound"] is None


def test_bounds_curve_inconsistent_flags_exit_3(tmp_path, capsys):
    f = tmp_path / "curve.txt"
    f.write_text("curve: m=4 r=3 tangents=0\n")
    assert main(["bounds", str(f)]) == 3


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


def test_selftest_ok_and_filter(capsys):
    assert main(["selftest", "--filter", "dsl-hopf"]) == 0
    out = capsys.readouterr().out
    assert "dsl-hopf" in out and "FAIL" not in out


def test_selftest_failure_exit_code(monkeypatch, capsys):
    import alexarr.cli as cli

    monkeypatch.setattr(cli, "run_selftest", lambda name_filter=None: (5, 2))
    assert main(["selftest"]) == 1


def test_route_disagreement_exit_4(tmp_path, monkeypatch, capsys):
    # unreachable through honest computation, so fake a disagreeing report
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


def test_analyze_deconed_a3_with_default_routes(tmp_path, capsys):
    f = tmp_path / "a3.txt"
    f.write_text(DECONED_A3)
    code, doc = run_json(capsys, "analyze", str(f))
    assert code == 0
    assert doc["invariants"]["delta0"] == 0
    assert doc["invariants"]["routes"] == {"degree": 0, "pid": 0}


def test_disagreeing_draws_exit_4(tmp_path, monkeypatch, capsys):
    # a bad draw has probability below 2^-40 here, so fake one
    import alexarr.alexinv as alexinv

    answers = iter([([], 1), ([], 1), ([], 2)])
    monkeypatch.setattr(alexinv, "diagonalize_mod_p", lambda M: next(answers))
    f = tmp_path / "hopf.pres"
    f.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    assert main(["invariants", str(f)]) == 4
    assert "localized route" in capsys.readouterr().err


def test_selftest_corrupted_corpus_entry_fails_by_name():
    # a case with a wrong expected value must fail and be named
    bad = CorpusCase(
        "corrupted-entry",
        lambda: __import__("alexarr.groups", fromlist=["parse_presentation"])
        .parse_presentation("gens: a b\nrel: a b a^-1 b^-1\n"),
        Delta0.of(7),
    )
    lines = []
    passed, failed = run_selftest(cases=[bad], name_filter="corrupted",
                                  emit=lines.append)
    assert failed == 1
    assert any("corrupted-entry" in ln and "FAIL" in ln for ln in lines)
