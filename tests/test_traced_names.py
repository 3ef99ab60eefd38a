"""The benchmark's tracer wraps package functions by `module.function`
name; a rename here would break `perfbench/run.py --trace 1`, which the
unit tests do not run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracer):
    assert tracer.FUNCTIONS
    missing = []
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"interpanel.{module}"),
                                function, None)):
            missing.append(name)
    assert missing == []


def test_every_measured_name_is_traced(tracer):
    # latency, fit-ratio and byte metrics read the spans of FUNCTIONS only
    measured = {"LATENCY": set(tracer.LATENCY), "FITS": set(tracer.FITS),
                "BYTES": set(tracer.BYTES),
                "BYTES_METRIC": set(tracer.BYTES_METRIC)}
    untraced = {table: sorted(names - set(tracer.FUNCTIONS))
                for table, names in measured.items()}
    assert untraced == {table: [] for table in measured}
