"""The benchmark's tracer (bench/tracer.py) wraps frictionopt functions by
name; a name that no longer resolves would break the benchmark, so every
traced name is checked here.  Nothing under bench/ is changed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, attr in tracer.TRACED:
        obj = importlib.import_module(f"frictionopt.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{attr}")
    assert len(tracer.TRACED) > 0
    assert missing == []
