"""tools/same_reports.py: the report and selftest comparison of two trees."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_reports_names_each_job_that_differs(tmp_path):
    # a tree whose reports carry another schema number: every JSON report
    # differs, while the presentation jobs' DSL output stays the same; its
    # selftest names one check differently
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "alexarr" / "cli.py"
    cli.write_text(cli.read_text().replace("SCHEMA_VERSION = 1\n", "SCHEMA_VERSION = 2\n"))
    selftest = tmp_path / "src" / "alexarr" / "selftest.py"
    selftest.write_text(selftest.read_text().replace(
        '("curve-bound-table", check_curve_bound_table)',
        '("curve-bound-tables", check_curve_bound_table)'))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), str(tmp_path),
         "--seeds", "2024"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    *differ, summary, removed, added, selftest_summary = proc.stdout.splitlines()
    assert differ and all(line.startswith("seed 2024: ") and line.endswith(": out")
                          and "(presentation " not in line for line in differ)
    same = int(summary.split()[0])
    assert same > 0 and summary == (
        f"{same} of {same + len(differ)} jobs give the same code, report, stdout and stderr")
    assert removed == "selftest: - ok   curve-bound-table (<s>)"
    assert added == "selftest: + ok   curve-bound-tables (<s>)"
    assert selftest_summary.startswith("selftest: ")
    assert selftest_summary.endswith(" lines, different apart from seconds")


def test_selftest_seconds_are_masked():
    spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
    same_reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_reports)
    assert same_reports.masked("ok   family-pencil-3 (0.00s)") == "ok   family-pencil-3 (<s>)"
    assert same_reports.masked("FAIL x (12.75s)  [bound 3 != 4]") == "FAIL x (<s>)  [bound 3 != 4]"
