"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size (references computed on the spot) and
asserts that

- untraced and traced runs print every metric of BENCHMARK.json, by name
  and with its unit, on a last line with exactly the four result keys;
- a deliberately corrupted output (a zeroed value column) is counted as a
  failed operation, for every workload;
- BENCHMARK.json, run.py and workloads.py name the same metrics and
  workloads;
- in a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads; must precede numpy)

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from gen_refs import compute_refs
from workloads import WORKLOADS, build_ops, corrupt_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_printed_metrics(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in WORKLOADS:
            proc = _run(["--workload", w, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace), "--tiny"])
            assert proc.returncode == 0, f"{w} trace={trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (w, trace)
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (w, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
                    (w, name, m)
            print(f"ok   {w} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def check_corruption_counted() -> None:
    for w in WORKLOADS:
        run.import_rodfield()
        refs = compute_refs(w, tiny=True)[0]
        state = run.setup(w, run.DEFAULT_SEED, refs)
        assert state.canary_caught, w
        _, results = run.run_pass(state)
        clean = run.summarize(state, [run.check_pass(state, results)])["failed"]
        corrupt_output(state.ops[0], state.workdir)
        s = run.summarize(state, [run.check_pass(state, results)])
        shutil.rmtree(state.workdir, ignore_errors=True)
        assert s["failed"] > clean, (w, clean, s)
        assert state.ops[0].name in s["failures"], (w, s["failures"])
        print(f"ok   {w}: zeroed output of {state.ops[0].name} counted as failed "
              f"({clean} -> {s['failed']})")


def check_names(bench: dict) -> None:
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS
    for w in WORKLOADS:
        names = [op.name for op in build_ops(w)]
        assert len(names) == len(set(names)), w
    print("ok   BENCHMARK.json, run.py and workloads.py agree")


def check_bare_directory(bench: dict) -> None:
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        proc = _run(["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_names(bench)
    check_bare_directory(bench)
    check_corruption_counted()
    check_printed_metrics(bench)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
