"""tools/same_reports.py: the report comparison of two trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_reports_names_each_job_that_differs(tmp_path):
    # a tree whose reports carry another schema number: every JSON report
    # differs, while the presentation jobs' DSL output stays the same
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "alexarr" / "cli.py"
    cli.write_text(cli.read_text().replace("SCHEMA_VERSION = 1\n", "SCHEMA_VERSION = 2\n"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), str(tmp_path),
         "--seeds", "2024"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    *differ, summary = proc.stdout.splitlines()
    assert differ and all(line.startswith("seed 2024: ") and line.endswith(": out")
                          and "(presentation " not in line for line in differ)
    same = int(summary.split()[0])
    assert same > 0 and summary == (
        f"{same} of {same + len(differ)} jobs give the same code, report, stdout and stderr")
