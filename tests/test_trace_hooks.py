"""The benchmark tracer wraps alexarr functions by module attribute name;
every name it wraps must still exist, or a traced run fails to start."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = tracing.WRAPPED + tracing.WRAPPED_GENERATORS
    assert hooks
    for module_name, attr, *_ in hooks:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
