"""tools/frontier.py: each timing in its own subprocess, under a budget."""

import importlib.util
import json
from pathlib import Path

from alexarr.ringkit import laurent

ROOT = Path(__file__).resolve().parents[1]


def _frontier():
    spec = importlib.util.spec_from_file_location("frontier", ROOT / "tools" / "frontier.py")
    frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frontier)
    return frontier


def test_a_timing_reports_its_draw_and_one_over_budget_is_a_timeout():
    frontier = _frontier()
    record = frontier._timed(ROOT, 10, 0, "both", 120.0)
    assert (record["relators"], record["delta0"], record["agree"]) == (42, 0, True)
    assert record["seconds"] > 0
    assert record["prs_calls"] == 0
    assert record["gcd_calls"] > 0
    assert record["sweep_seconds"] > 0
    assert record["relator_letters"] == 544
    # the 14-line draw takes seconds: a tenth of one is over budget
    assert frontier._timed(ROOT, 14, 0, "degree", 0.1) is None


def test_span_shows_the_range_and_the_timeouts():
    span = _frontier()._span
    assert span([0.25, 0.1, 0.3]) == "0.10–0.30 s"
    assert span([0.1, ">60 s"]) == "0.10 s, 1 over >60 s"
    assert span([">60 s", ">60 s"]) == ">60 s"


def test_a_timing_counts_the_subresultant_sequences(monkeypatch, capsys):
    # with the coprimality certificate refused, the 10-line seed-2 draw's
    # gcd falls back to the PRS, and the record counts those calls; case()
    # puts back the two functions it wraps to count them
    poly_gcd, prs = laurent._poly_gcd, laurent._subresultant_prs
    monkeypatch.setattr(laurent, "_gcd_free_of", lambda p, q, k: False)
    _frontier().case("10", "2", "degree")
    record = json.loads(capsys.readouterr().out)
    assert record["prs_calls"] > 0
    assert (record["relators"], record["delta0"]) == (43, 0)
    assert laurent._poly_gcd is poly_gcd and laurent._subresultant_prs is prs
