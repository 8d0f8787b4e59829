"""The benchmark tracer wraps alexarr functions by module attribute name;
every name it wraps must still exist, or a traced run fails to start, and
every count hook must read what the wrapped function returns, or every
traced job fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(tracing):
    hooks = tracing.WRAPPED + tracing.WRAPPED_GENERATORS
    assert hooks
    for module_name, attr, *_ in hooks:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_jobs_run(tracing, tmp_path, capsys):
    # a pencil invariants job runs the modular localized route; the selftest
    # case also runs the exact one, so the diagonalization hook fires
    cli = importlib.import_module("alexarr.cli")
    pres = tmp_path / "pencil.pres"
    assert cli.main(["presentation", "--family", "pencil", "--m", "4",
                     "--out", str(pres)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["invariants", str(pres), "--out", str(tmp_path / "out.json")]) == 0
        assert cli.main(["selftest", "--filter", "family-pencil-3"]) == 0
    finally:
        tracer.uninstall()
    assert "FAIL" not in capsys.readouterr().out
    assert tracer.calls["alexinv.pid"] >= 2
    assert tracer.calls["ringkit.diagonalize"] >= 1
    assert tracer.counts["ringkit.diagonalize.torsion_degree"] == 3


def test_cli_calls_reach_the_traced_names(tracing, tmp_path, capsys):
    # the CLI must look the wrapped names up on its module at each call; a
    # reference taken before the tracer patches them would zero these counts
    cli = importlib.import_module("alexarr.cli")
    arr = tmp_path / "nodal4.txt"
    arr.write_text("line: 0 1 0\nline: 1 -1 0\nline: 1 1 0\nline: 2 -1 -1\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in ("analyze", "bounds", "presentation"):
            out = tmp_path / f"{command}.out"
            assert cli.main([command, str(arr), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["arrangements.intersect"] == 2
    assert tracer.calls["arrangements.classify"] == 6
    assert tracer.calls["arrangements.sweep"] == 2


def test_degree_route_goes_through_the_traced_minors(tracing, tmp_path, capsys):
    # the tracer counts minors at alexarr.alexinv.iter_minors; a degree route
    # that enumerated minors under another name would read 0 here
    cli = importlib.import_module("alexarr.cli")
    pres = tmp_path / "generic5.pres"
    assert cli.main(["presentation", "--family", "generic", "--m", "5",
                     "--out", str(pres)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["invariants", str(pres), "--out", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["ringkit.minors"] == 1
    assert tracer.counts["ringkit.minors.yielded"] > 0
    assert tracer.calls["alexinv.degree"] == 1
