"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

Runs one pass of every workload untraced and one traced, and checks that
each emits exactly the metrics BENCHMARK.json names, with their units, and
that every job passes its checks.  Then it plants a wrong expected answer
in one job and checks that the job counts as failed.  Exits 1 on the first
check that does not hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAILED: {message}")
        sys.exit(1)


def one_pass(workload: str, traced: bool, corrupt=None) -> dict:
    # a run starts a pass only while time is left, and always finishes it
    return run.run(workload, seed=0, seconds=1e-3, traced=traced, corrupt=corrupt)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    for workload in (w["name"] for w in spec["workloads"]):
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = one_pass(workload, traced)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} {key}: metrics {sorted(set(got) ^ set(want))} "
                                "differ from BENCHMARK.json, or their units do")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} {key}: {result['failed']} of {result['attempted']} jobs failed")

    def plant_wrong_answer(jobs):
        jobs[0].expect["delta0"] += 1

    result = one_pass("degree-heavy", False, plant_wrong_answer)
    expect(result["failed"] / result["attempted"] > 0 and not result["correct"],
           "a wrong expected answer did not raise failed_frac")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
