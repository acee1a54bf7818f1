"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps rodfield
functions by name; each name must still resolve in its module."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"rodfield.{layer}.{func}"
               for layer, funcs in tracing.LAYERS.items()
               for func in funcs
               if not callable(getattr(importlib.import_module(f"rodfield.{layer}"),
                                       func, None))]
    assert not missing
