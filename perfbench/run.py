"""End-to-end and per-layer benchmark of the alexarr CLI.

Run from the repository root:

    python3 perfbench/run.py --workload degree-heavy --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --table            # the ROADMAP baseline table
    python3 perfbench/smoke.py                  # the benchmark's own smoke test

Each workload is a closed loop with one client in one process and one
thread: the next job starts when the previous one has finished.  A job is
one in-process call of ``alexarr.cli.main([...])`` with ``--out`` pointing
to a file; its exit code and report are checked against answers the
benchmark knows independently (see ``workloads.py``).  Jobs come in
passes: every pass is a fresh batch of seeded inputs, and the loop starts
passes until ``--seconds`` have gone by, finishing the pass it is in.

On a shared 2-vCPU cloud VM, identical work was measured to run up to
half slower for spells of five seconds to a minute, so a whole run can
fall in a fast or a slow spell.  The timed metrics therefore read in
reference seconds: each job (and each set-up) is scaled by
``REF_NOMINAL_S`` over the median time of a fixed pure-Python computation
(``reference.py``), timed between jobs every ``REF_EVERY_S`` or so, within
``REF_WINDOW_S`` of the job.  A change to alexarr moves the job time and
not the reference, so it shows in full; the host's spells move both and
cancel.  The measured seconds are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends the first half of its time untraced, then runs the
same passes again with every layer wrapped (see ``tracing.py``), and reports
per-layer self times and counts plus the tracing overhead.  The last line
of standard output is one JSON object; the lines before it say the same
for a reader.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing  # perfbench/, on sys.path as the script's directory
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PLAN = json.loads((HERE / "plan.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 11
# The reference computation takes about this long on a 2-vCPU x86-64
# cloud VM under CPython 3.11 in a fast spell; timed metrics are scaled to it.
REF_NOMINAL_S = 0.03
REF_EVERY_S = 0.5   # about a tenth of the run's time goes to reference timings
REF_WINDOW_S = 2.0  # shorter than a spell, long enough to hold several timings
TABLE_ROWS = [  # (input, presentation source, family, m, seed of an affine map or None)
    ("family pencil m=8", "family", "pencil", 8, None),
    ("family generic m=6", "family", "generic", 6, None),
    ("family generic m=7", "family", "generic", 7, None),
    ("wiring generic m=6", "wiring", "generic", 6, None),
    ("wiring pencil m=7", "wiring", "pencil", 7, None),
    ("deconed A3: x=0, y=0, x=1, y=1, x=y", "wiring", "a3", 0, None),
    ("A3 plus x+3y=5 and 3x+y=7", "wiring", "a3-nodal", 0, None),
    ("x=0, y=0, x=1, x=y", "wiring", "triple4", 0, None),
    ("x=0, y=0, x=1, x=y, affine map of seed 3", "wiring", "triple4", 0, 3),
]


class JobTimeout(BaseException):
    """Raised by the interval timer in a job that ran over its budget.

    A BaseException, so no ``except Exception`` in the program swallows it."""

    def __init__(self, where: str):
        super().__init__(where)
        self.where = where


def _where(frame, tracer) -> str:
    """The open span, and the innermost alexarr function, at the timeout."""
    func = "?"
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("alexarr"):
            func = f"{module}.{frame.f_code.co_name}"
            break
        frame = frame.f_back
    span = tracer.current() if tracer is not None else None
    return f"{span} ({func})" if span else func


def call_with_budget(fn, budget: float, tracer=None):
    """fn() under a wall-clock budget; raises JobTimeout when it runs over."""
    def on_alarm(signum, frame):
        raise JobTimeout(_where(frame, tracer))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_alexarr() -> None:
    """Import alexarr from the checkout's src/."""
    cli = importlib.import_module("alexarr.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"alexarr was imported from {cli.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# host speed


class Speed:
    """Reference timings taken through a run, and times scaled by them.

    The timings come from a helper process (reference.py) that runs only
    while this one waits for its answer, on the one CPU run() pins this
    process to, so it times the CPU the jobs run on.  Use as a context
    manager, which stops the helper and waits for it."""

    def __init__(self):
        self.helper = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.marks = []  # (perf_counter at the timing, reference seconds)

    def __enter__(self) -> "Speed":
        try:
            self.mark()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()

    def mark(self) -> None:
        at = perf_counter()
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        self.marks.append((at, float(self.helper.stdout.readline())))

    def tick(self) -> None:
        """Mark, unless the last mark is under REF_EVERY_S old."""
        if perf_counter() - self.marks[-1][0] >= REF_EVERY_S:
            self.mark()

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, in reference seconds.  Called
        with a tick before each interval, the window always holds a mark."""
        near = [ref for t, ref in self.marks
                if start - REF_WINDOW_S <= t <= start + seconds + REF_WINDOW_S]
        return seconds * REF_NOMINAL_S / statistics.median(near)


# ----------------------------------------------------------------------
# the closed loop


@dataclass
class JobResult:
    kind: str
    start: float      # perf_counter when the job started
    measured_s: float
    outcome: str      # ok | wrong | errored | timed_out
    detail: str = ""
    seconds: float = 0.0  # in reference seconds; run_passes fills it in


def run_job(job, budget: float, tracer=None, job_id: str = "") -> JobResult:
    cli = sys.modules["alexarr.cli"]
    if tracer is not None:
        tracer.job = job_id
    start = perf_counter()
    try:
        code = call_with_budget(lambda: cli.main(job.argv()), budget, tracer)
    except JobTimeout as exc:
        if tracer is not None:
            tracer.reset_stack()
        return JobResult(job.kind, start, budget, "timed_out",
                         f"over {budget} s in {exc.where}")
    except (Exception, SystemExit) as exc:  # a failing job is data, not a crash
        return JobResult(job.kind, start, perf_counter() - start, "errored",
                         f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    if tracer is not None and job.out.exists():
        tracer.counts["cli.report_bytes"] += job.out.stat().st_size
    reason = workloads.check(job, code)
    return JobResult(job.kind, start, seconds, "wrong" if reason else "ok", reason or "")


def run_passes(workload: str, seed: int, work: Path, budget: float, *,
               seconds: float | None = None, passes: int | None = None,
               tracer=None, corrupt=None) -> tuple:
    """Run whole passes until `seconds` have gone by (or exactly `passes`).

    Returns (job results, per-pass wall seconds); both in reference seconds,
    each result keeping its measured seconds too.  `corrupt`, when given,
    edits each pass's jobs before they run; the smoke test uses it to plant
    a wrong expected answer."""
    results, pass_jobs = [], []
    with Speed() as speed:
        start = perf_counter()
        index = 0
        while (index < passes) if passes is not None else (perf_counter() - start < seconds):
            pass_dir = work / f"pass-{index}"
            jobs = workloads.make_pass(workload, seed, index, pass_dir)
            if corrupt is not None:
                corrupt(jobs)
            gc.collect()
            first = len(results)
            for n, job in enumerate(jobs):
                speed.tick()
                results.append(run_job(job, budget, tracer, f"{index}.{n}"))
            pass_jobs.append(results[first:])
            shutil.rmtree(pass_dir)
            index += 1
        speed.mark()
    for r in results:
        r.seconds = speed.scale(r.start, r.measured_s)
    return results, [sum(r.seconds for r in jobs) for jobs in pass_jobs]


def setup(workload: str, seed: int, work: Path) -> tuple:
    """Time the import of alexarr plus writing one pass of inputs, several
    times; returns (reference seconds, measured seconds) of each."""
    starts, measured = [], []
    with Speed() as speed:
        for k in range(SETUP_REPEATS):
            for name in [n for n in sys.modules if n == "alexarr" or n.startswith("alexarr.")]:
                del sys.modules[name]
            gc.collect()  # the dropped modules hold cycles; free them untimed
            speed.tick()
            starts.append(perf_counter())
            import_alexarr()
            workloads.make_pass(workload, seed, 0, work / f"setup-{k}")
            measured.append(perf_counter() - starts[-1])
            shutil.rmtree(work / f"setup-{k}")
        speed.mark()
    return [speed.scale(t, m) for t, m in zip(starts, measured)], measured


# ----------------------------------------------------------------------
# metrics


def tail(times: list) -> tuple:
    """The highest percentile with at least ten jobs beyond it: the
    eleventh-slowest job.  Returns (percentile, seconds)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100 * (n - 10) / n, ordered[n - 11]


def failures(results: list) -> dict:
    return {kind: sum(r.outcome == kind for r in results)
            for kind in ("timed_out", "wrong", "errored")}


def end_to_end(setup_times: list, setup_measured: list, results: list, walls: list) -> tuple:
    times = [r.seconds for r in results]
    measured = [r.measured_s for r in results]
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": (f"median of {len(setup_times)} set-ups; "
                    f"{statistics.median(setup_measured):.4g} s measured"),
        "wall_s": (f"median over {len(walls)} passes of the summed job times; "
                   f"{sum(measured) / len(walls):.4g} s per pass measured"),
        "job_p50_s": (f"median of {len(times)} jobs; "
                      f"{statistics.median(measured):.4g} s measured"),
        "job_tail_s": (f"p{pct:.1f} of {len(times)} jobs, 10 beyond it" if len(times) > 10
                       else f"slowest of only {len(times)} jobs"),
        "peak_rss_mb": "ru_maxrss of the process",
    }
    return metrics, notes


CHOSEN_LAYERS = {
    "degree-heavy": ("ringkit.minors", "ringkit.gcd"),
    "localized-heavy": ("alexinv.pid", "ringkit.grade_substitute", "ringkit.diagonalize"),
    "sweep-heavy": ("arrangements.intersect", "arrangements.classify", "arrangements.sweep"),
}


def per_layer(tracer, workload: str, results: list, walls: list, plain_walls: list) -> tuple:
    """Per-pass self times and counts, per-job call counts, run-wide failures."""
    n_pass, n_jobs = len(walls), len(results)
    metrics, notes = {}, {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / n_pass, "s")
        if layer != "cli":
            metrics[f"{layer}.calls"] = (tracer.calls[layer] / n_jobs, "calls/job")
    for name in tracing.COUNTS:
        metrics[name] = (tracer.counts[name] / n_pass, "count")
    metrics["ringkit.minors.max_terms"] = (tracer.maxima["ringkit.minors.max_terms"], "count")
    for kind, count in failures(results).items():
        metrics[f"jobs.{kind}"] = (count, "count")
    metrics["trace.overhead_frac"] = (sum(walls) / sum(plain_walls) - 1, "ratio")
    wall = sum(r.measured_s for r in results) / n_pass  # self times are measured seconds
    for layer in tracing.LAYERS:
        notes[f"{layer}.self_s"] = f"{tracer.self_s[layer] / n_pass / wall:6.1%} of traced wall_s"
    chosen = sum(tracer.self_s[layer] for layer in CHOSEN_LAYERS[workload]) / n_pass
    print(f"{' + '.join(CHOSEN_LAYERS[workload])}: {chosen / wall:.1%} of traced wall_s "
          f"({wall:.3f} s per pass, {n_pass} passes)")
    return metrics, notes


def report(results: list, metrics: dict, notes: dict) -> dict:
    failed = sum(failures(results).values())
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:40s} {value:14.6g} {unit:9s} {note}")
    print(f"{'failed_frac':40s} {failed / len(results):14.6g} {'ratio':9s} "
          f"{failed} of {len(results)} jobs; in the result as attempted and failed")
    for r in results:
        if r.outcome != "ok":
            print(f"FAILED {r.outcome}: {r.kind}: {r.detail}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, traced: bool, corrupt=None) -> dict:
    budget = PLAN["job_budget_s"][workload]
    # One CPU for the jobs and the reference helper, which inherits it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        setup_times, setup_measured = setup(workload, seed, work)
        print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(traced)}, "
              f"job budget {budget} s")
        if not traced:
            results, walls = run_passes(workload, seed, work, budget, seconds=seconds,
                                        corrupt=corrupt)
            metrics, notes = end_to_end(setup_times, setup_measured, results, walls)
            return report(results, metrics, notes)
        plain, plain_walls = run_passes(workload, seed, work, budget, seconds=seconds / 2,
                                        corrupt=corrupt)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_results, walls = run_passes(workload, seed, work, budget,
                                               passes=len(plain_walls), tracer=tracer,
                                               corrupt=corrupt)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{workload}-{seed}.json")
        metrics, notes = per_layer(tracer, workload, traced_results, walls, plain_walls)
        return report(plain + traced_results, metrics, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# the ROADMAP baseline table


def baseline_table() -> None:
    """Degree route (alexander_polynomial) and localized route
    (delta0_via_pid) on the precomputed Fox matrix of each ladder input,
    timed from the traced spans; an input over budget shows as a timeout."""
    budget = PLAN["table_budget_s"]
    import_alexarr()
    arr, alexinv = sys.modules["alexarr.arrangements"], sys.modules["alexarr.alexinv"]
    tracer = tracing.Tracer()
    tracer.install()
    print("| input | gens × rels | degree route | localized route |")
    print("|---|---|---|---|")
    try:
        for label, source, family, m, affine_seed in TABLE_ROWS:
            if source == "family":
                pres = arr.family_presentation(family, m)
            else:
                lines = workloads.family_lines(family, m)
                if affine_seed is not None:
                    lines = workloads.random_affine(random.Random(affine_seed), lines)
                pres, _ = arr.wiring_presentation([arr.Line.of(*ln) for ln in lines])
            A = alexinv.alexander_matrix(pres)
            cells = []
            for route, fn in (("alexinv.degree", alexinv.alexander_polynomial),
                              ("alexinv.pid", alexinv.delta0_via_pid)):
                tracer.job = f"{label} / {route}"
                try:
                    call_with_budget(lambda: fn(A), budget, tracer)
                except JobTimeout as exc:
                    tracer.reset_stack()
                    cells.append(f"**timeout > {budget:g} s** in {exc.where}")
                    continue
                (span,) = [s for s in tracer.spans if s[2] == tracer.job and s[3] is None]
                cells.append(f"{span[5] - span[4]:.3f} s")
            print(f"| {label} | {pres.num_gens} × {pres.num_relators} | {cells[0]} | {cells[1]} |",
                  flush=True)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / "trace-table.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true",
                        help="print the ROADMAP baseline table instead of running a workload")
    args = parser.parse_args(argv)
    if not (SRC / "alexarr" / "__init__.py").is_file():
        print(f"error: no alexarr sources under {SRC}", file=sys.stderr)
        return 2
    if not args.table and args.workload is None:
        parser.error("--workload is required unless --table is given")
    sys.path.insert(0, str(SRC))
    if args.table:
        baseline_table()
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
