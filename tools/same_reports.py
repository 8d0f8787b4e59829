"""Check that two alexarr trees give the same reports on the benchmark's jobs
and the same selftest lines.

    python tools/same_reports.py PARENT_TREE CHANGE_TREE [--seeds 2024 1311]

For each tree and seed, one subprocess builds passes 0-2 of every workload
with ``perfbench/workloads.make_pass`` from this checkout and runs each job
in-process through ``alexarr.cli.main``, imported from the tree's ``src/``.
It records the exit code, the ``--out`` file, stdout and stderr of each
job, with its work directory replaced by ``<work>``, since the two trees
run in different directories.  One more subprocess per tree runs
``alexarr selftest`` and records its stdout and stderr lines and its exit
code, with each check's seconds masked.  The script prints each job whose
record differs between the trees and each selftest line that differs, and
exits 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
PASSES = range(3)
SECONDS = re.compile(r"\(\d+\.\d+s\)")  # a selftest check's time, "(0.01s)"


def _run_cli(cli, argv: list) -> tuple:
    """Exit code, stdout and stderr of one in-process command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # a command that raises is a record, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def _run_job(cli, job, work: str) -> dict:
    """Exit code, report, stdout and stderr of one in-process job."""
    code, stdout, stderr = _run_cli(cli, job.argv())
    record = {
        "code": code,
        "out": job.out.read_text(encoding="utf-8") if job.out.exists() else None,
        "stdout": stdout,
        "stderr": stderr,
    }
    return {key: value.replace(work, "<work>") if isinstance(value, str) else value
            for key, value in record.items()}


def _tree_cli(tree: str):
    """alexarr.cli, checked to come from the tree's src/."""
    from alexarr import cli

    src = Path(tree).resolve() / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"alexarr was imported from {cli.__file__}, not from {src}")
    return cli


def records(tree: str, seed: str) -> None:
    """Print, as JSON, the record of every job of the passes at this seed;
    runs in the subprocess, with the tree's src/ and perfbench/ on sys.path."""
    import workloads

    cli = _tree_cli(tree)
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in workloads.WORKLOADS:
            for index in PASSES:
                pass_dir = Path(work) / workload / f"pass-{index}"
                for n, job in enumerate(workloads.make_pass(workload, int(seed), index, pass_dir)):
                    key = f"{workload} pass {index} job {n} ({job.kind})"
                    out[key] = _run_job(cli, job, work)
    json.dump(out, sys.stdout)


def masked(line: str) -> str:
    """A selftest line with each check's seconds replaced by "<s>"."""
    return SECONDS.sub("(<s>)", line)


def selftest_lines(tree: str) -> None:
    """Print, as JSON, the lines of ``alexarr selftest``: stdout, then
    stderr marked "stderr: ", then the exit code, each with its seconds
    masked; runs in the subprocess."""
    code, stdout, stderr = _run_cli(_tree_cli(tree), ["selftest"])
    lines = [*stdout.splitlines(), *("stderr: " + line for line in stderr.splitlines()),
             f"exit {code}"]
    json.dump([masked(line) for line in lines], sys.stdout)


def _in_tree(tree: str, function: str, *args: str):
    """The JSON that ``function(tree, *args)`` of this script prints in a
    subprocess with the tree's src/ and perfbench/ on sys.path."""
    path = os.pathsep.join([str(Path(tree).resolve() / "src"), str(HERE), str(PERFBENCH)])
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, same_reports; same_reports.{function}(*sys.argv[1:])", tree, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{function} {' '.join(args)} in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="tree of the parent commit (holds src/alexarr)")
    parser.add_argument("change", help="tree of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2024, 1311])
    args = parser.parse_args(argv)
    total = differ = 0
    for seed in args.seeds:
        before, after = (_in_tree(tree, "records", str(seed)) for tree in (args.parent, args.change))
        for key in list(before) + [key for key in after if key not in before]:
            total += 1
            old, new = before.get(key), after.get(key)
            if old == new:
                continue
            differ += 1
            if old is None or new is None:
                what = "only in " + ("the change" if old is None else "the parent")
            else:
                what = ", ".join(f"{field} {old[field]!r} -> {new[field]!r}" if field == "code"
                                 else field for field in old if old[field] != new[field])
            print(f"seed {seed}: {key}: {what}")
    print(f"{total - differ} of {total} jobs give the same code, report, stdout and stderr")
    before, after = (_in_tree(tree, "selftest_lines") for tree in (args.parent, args.change))
    changed = [line for line in difflib.ndiff(before, after) if line.startswith(("- ", "+ "))]
    for line in changed:
        print(f"selftest: {line}")
    print(f"selftest: {len(after)} lines, {'different' if changed else 'the same'} apart from seconds")
    return 1 if differ or changed else 0


if __name__ == "__main__":
    sys.exit(main())
