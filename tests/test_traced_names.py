"""Every function that the benchmark's traced run wraps exists.

perfbench/spans.py names each traced function by module and name, and its
Tracer.install fails on a name that is gone.  A change that moves a traced
function also deletes that function's own tests, so this test is what shows
the break in tier-1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, function) for module, function, *_ in spans.TARGETS]


@pytest.mark.parametrize("module, function", traced_targets())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"lmgspec.{module}"), function, None))
