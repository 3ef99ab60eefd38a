"""The benchmark's tracer wraps package functions by `module.function`
name; a rename here would break `perfbench/run.py --trace 1`, which the
unit tests do not run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    missing = []
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"interpanel.{module}"),
                                function, None)):
            missing.append(name)
    assert missing == []
