"""Print the frontier table: both invariant routes on swept random arrangements.

    python tools/frontier.py [--tree TREE]

For m = 10, 12 and 14 lines (seeds 0-5, 0-9 and 0-2) the script sweeps
``random_arrangement(seed, m)`` of ``tests/test_arrangements.py``
(coefficients -6..6) into a presentation with ``wiring_presentation`` and
times ``compute_invariants(pres, "degree")`` (the degree route) and
``compute_invariants(pres, "both")`` in-process, without the sweep; the
sweep (the ``wiring_presentation`` call) is timed on its own, and its
relators' letters are counted.  Each timing runs in its own subprocess, one at a time, with alexarr imported
from TREE's ``src/`` (default: this checkout); a timing over its
wall-clock budget (BUDGET, 60 s) is killed and prints as a timeout.  Each
timing also counts the subresultant pseudo-remainder sequences the gcd
ran (``laurent._subresultant_prs`` calls), the gcd's costly fallback.  It
prints one row per draw (relators, relator letters, the sweep's time, the
two route times, the two PRS counts, δ0 and whether the routes agreed),
then one row per size with the range of each time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {10: range(6), 12: range(10), 14: range(3)}
BUDGET = 60.0
ROUTES = ("degree", "both")


def case(m: str, seed: str, routes: str) -> None:
    """Print, as JSON, one timing of compute_invariants on the swept draw;
    runs in the subprocess, with TREE's src/ and this checkout's tests/
    and tools/ on sys.path, so every tree times the same draws."""
    from time import perf_counter

    from alexarr.alexinv import compute_invariants
    from alexarr.arrangements import Line, wiring_presentation
    from alexarr.ringkit import laurent
    from test_arrangements import random_arrangement

    prs_calls = []
    prs = laurent._subresultant_prs
    laurent._subresultant_prs = lambda *args: prs_calls.append(1) or prs(*args)
    lines = [Line.of(*abc) for abc in random_arrangement(int(seed), int(m))]
    start = perf_counter()
    pres = wiring_presentation(lines)[0]
    sweep_seconds = perf_counter() - start
    start = perf_counter()
    report = compute_invariants(pres, routes)
    seconds = perf_counter() - start
    delta0 = report.delta0
    json.dump({
        "relators": len(pres.relators),
        "relator_letters": sum(map(len, pres.relators)),
        "sweep_seconds": sweep_seconds,
        "seconds": seconds,
        "delta0": None if delta0 is None else delta0.value if delta0.finite else "infinite",
        "agree": report.route_agreement,
        "prs_calls": len(prs_calls),
    }, sys.stdout)


def _timed(tree: Path, m: int, seed: int, routes: str, budget: float) -> dict | None:
    """The record of one timing, or None when it ran over budget."""
    path = os.pathsep.join([str(tree / "src"), str(ROOT / "tests"), str(ROOT / "tools")])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, frontier; frontier.case(*sys.argv[1:])",
             str(m), str(seed), routes],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise SystemExit(f"m={m} seed={seed} routes={routes} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _span(times: list) -> str:
    """The range of a size's times; a timeout shows as its budget, ">B s"."""
    done = [t for t in times if isinstance(t, float)]
    over = [t for t in times if isinstance(t, str)]
    if not done:
        return over[0]
    text = f"{min(done):.2f}–{max(done):.2f} s" if len(done) > 1 else f"{done[0]:.2f} s"
    return f"{text}, {len(over)} over {over[0]}" if over else text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the alexarr tree whose src/ is timed (default: this checkout)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    timeout = f">{BUDGET:g} s"
    print("| m | seed | relators | relator letters | sweep | degree route | both routes "
          "| PRS calls | δ0 | routes agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    summary = []
    for m, seeds in SEEDS.items():
        relators, sweeps, times = set(), [], {routes: [] for routes in ROUTES}
        for seed in seeds:
            cells, prs_calls, sweep, facts = [], [], [], None
            for routes in ROUTES:
                record = _timed(tree, m, seed, routes, BUDGET)
                if record is None:
                    times[routes].append(timeout)
                    cells.append(timeout)
                    prs_calls.append("?")
                    continue
                times[routes].append(record["seconds"])
                cells.append(f"{record['seconds']:.2f} s")
                prs_calls.append(str(record["prs_calls"]))
                sweep.append(record["sweep_seconds"])
                relators.add(record["relators"])
                facts = record
            # each timing sweeps the draw once; the faster sweep is shown
            if facts is None:
                shown = ("?",) * 5
            else:
                sweeps.append(min(sweep))
                shown = (facts["relators"], facts["relator_letters"],
                         f"{min(sweep) * 1e3:.1f} ms", facts["delta0"], facts["agree"])
            print(f"| {m} | {seed} | {shown[0]} | {shown[1]} | {shown[2]} | {cells[0]} | "
                  f"{cells[1]} | {' / '.join(prs_calls)} | {shown[3]} | {shown[4]} |",
                  flush=True)
        span = f"{min(relators)}–{max(relators)}" if relators else "?"
        sweep_span = "?"
        if sweeps:
            lo, hi = (f"{t * 1e3:.1f}" for t in (min(sweeps), max(sweeps)))
            sweep_span = f"{lo} ms" if lo == hi else f"{lo}–{hi} ms"
        summary.append(f"| {m} | {seeds[0]}–{seeds[-1]} | {span} | {sweep_span} | "
                       f"{_span(times['degree'])} | {_span(times['both'])} |")
    print()
    print("| m | seeds | relators | sweep | degree route | both routes |")
    print("|---|---|---|---|---|---|")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
