"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps rodfield
functions by name, and the benchmark scripts import rodfield names; each
name must still resolve in its module."""

import ast
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


def _resolves(module: str, name: str | None = None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    return _resolves(f"{module}.{name}")


def test_perfbench_rodfield_imports_resolve():
    # gen_refs.py imports inside the functions that only the slow
    # self-test runs; a moved name broke it unseen by tier-1
    found, missing = 0, []
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                pairs = [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                pairs = [(a.name, None) for a in node.names]
            else:
                continue
            for module, name in pairs:
                if module.split(".")[0] == "rodfield":
                    found += 1
                    if not _resolves(module, name):
                        missing.append(f"{path.name}: {module} {name or ''}")
    assert found > 0
    assert not missing
