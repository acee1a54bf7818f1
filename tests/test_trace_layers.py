"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps rodfield
functions by name, and the benchmark scripts import rodfield names; each
name must still resolve in its module, and the reference generator's calls
must still run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import rodfield

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


#: Runs perfbench's reference generator at the self-test's tiny sizes and prints,
#: for each workload, the operations that want a reference, the ones given one,
#: and the scales that are not finite and positive
COMPUTE_REFS = """
import json
from gen_refs import compute_refs   # first: its env module pins BLAS before numpy loads
import numpy as np
from workloads import WORKLOADS, build_ops
out = {}
for w in WORKLOADS:
    refs = compute_refs(w, tiny=True)[0]
    want = [op.name for op in build_ops(w, tiny=True) if op.kind not in ("invert", "validate")]
    bad = [f"{op}.{k}" for op, r in refs.items() for k, v in r.items()
           if k.endswith("_scale") and not (np.isfinite(v) & (v > 0)).all()]
    out[w] = [sorted(want), sorted(refs), bad]
print(json.dumps(out))
"""


def test_perfbench_reference_generator_runs():
    # only the self-test on CI's latest-deps legs called gen_refs, which builds
    # AsymptoticModel by keyword and calls solve_forward, default_counts,
    # asym_u_general and parse_config, so a changed signature there passed
    # tier-1 unseen.  perfbench's env module sets BLAS variables on import,
    # so it runs in a process of its own
    src = os.path.dirname(os.path.dirname(rodfield.__file__))
    path = os.pathsep.join(p for p in (src, str(TRACING.parent), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", COMPUTE_REFS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result) == 4
    for workload, (want, got, bad) in result.items():
        assert want and got == want and not bad, workload
