"""The benchmark's tracer (perfbench/tracing.py) wraps wtal functions by name.

A function it names that no longer exists is only listed as missing, and its
per-layer metrics read 0, so a rename in ``src/`` would go unnoticed there.
This test loads the tracer's table without changing anything under
``perfbench/`` and checks every entry against the package.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module}.{name}" for module, name, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"wtal.{module}"), name,
                                       None))]
    assert missing == []
