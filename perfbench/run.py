"""rodfield benchmark: run the CLI in-process on one workload and print its metrics.

    python3 perfbench/run.py --workload thin_rod --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in its own process

Run from the repository root.  The benchmark imports ``rodfield`` from
``src/`` of the checkout it sits in, writes the generated configs and the
CLI's outputs under ``perfbench/work/`` and the spans of a traced run under
``perfbench/results/``, and pins BLAS to one thread (see ``env.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds what no gate reads: the environment, every pass
time, ``pass_s_tail``, ``failed_share``, ``err_near`` and each failure.

An operation is one CLI invocation.  Its output is checked against the
workload's reference after each pass, and a wrong output counts as a
failed operation; the run goes on.  ``correct`` says that the checker is
live: in every set-up it is shown a deliberately corrupted output and must
reject it.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads; must precede numpy)

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from gen_refs import compute_refs, load_refs
from tracing import LAYERS, SpanRecorder, span_name
from workloads import (DEFAULT_SEED, WORKLOADS, Op, Verdict, build_ops, check,
                       corrupt_output, write_configs)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

# set-ups per untraced run; setup_s is their median
SETUPS = 3

# relative errors below this are rounding, and err_rel reads them as this:
# a gate on rounding noise would reject any reordering of a sum
ERR_FLOOR = 1e-12

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "err_rel": "1",
    "ok_share": "1",
}

PER_LAYER = {           # name -> unit; ".s" is self time unless noted in README.md
    "config.load_config.s": "s",
    "geometry.build_mesh.s": "s",
    "geometry.nodes": "count",
    "potentials.assemble_np.s": "s",
    "potentials.assemble_np.pairs": "count",
    "potentials.assemble_np.peak_mb": "MB",
    "potentials.solve_density.s": "s",
    "potentials.solve_density.peak_mb": "MB",
    "potentials.solve_density.residual": "1",
    "potentials.single_layer.s": "s",
    "potentials.single_layer.pair_evals": "count",
    "potentials.single_layer.peak_mb": "MB",
    "potentials.single_layer_grad.s": "s",
    "potentials.single_layer_grad.pair_evals": "count",
    "potentials.single_layer_grad.peak_mb": "MB",
    "potentials.near_flags.s": "s",
    "potentials.near_flags.peak_mb": "MB",
    "potentials.near_flagged": "count",
    "solver.solve_forward.s": "s",
    "solver.eval_u.s": "s",
    "solver.eval_grad_u.s": "s",
    "asymptotics.asym_u_general.s": "s",
    "asymptotics.asym_u_general.points": "count",
    "asymptotics.asym_u_linear.s": "s",
    "asymptotics.asym_u_linear.points": "count",
    "asymptotics.asym_grad_linear.s": "s",
    "asymptotics.asym_grad_linear.points": "count",
    "inverse.fit_rod.s": "s",
    "inverse.fit_rod.calls": "count",
    "inverse.fit_rod.nfev": "count",
    "inverse.fit_rod.ok_ratio": "1",
    "validate.run_validation.s": "s",
    "validate.checks_failed": "count",
    "cli.fieldmap.s": "s",
    "cli.forward.s": "s",
    "cli.asymptotic.s": "s",
    "cli.invert.s": "s",
    "cli.compare.s": "s",
    "cli.validate.s": "s",
    "cli.output.s": "s",
    "cli.rows_written": "count",
    "trace.untraced_pass_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class OpResult:
    code: int | None
    stdout: str
    seconds: float
    error: str = ""
    calibrated_s: float = 0.0


@dataclass
class State:
    """What a set-up leaves for the passes."""

    cli: object
    ops: list[Op]
    refs: dict
    workdir: Path
    calibration: Calibration
    canary_caught: bool = False
    setup_s: float = 0.0        # calibrated time of the set-up


def import_rodfield():
    """Import ``rodfield.cli`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "rodfield" or n.startswith("rodfield.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rodfield.cli

    if not Path(rodfield.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rodfield imported from {rodfield.cli.__file__}, not {SRC}")
    return rodfield.cli


def run_op(cli, op: Op, workdir: Path) -> OpResult:
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv(workdir))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing operation is a failed operation
        return OpResult(None, out.getvalue(), perf_counter() - t0, repr(exc))
    return OpResult(code, out.getvalue(), perf_counter() - t0)


def run_pass(state: State) -> tuple[float, list[OpResult]]:
    """Run every operation once; return the calibrated pass time and results."""
    for path in state.workdir.iterdir():
        if path.suffix in (".csv", ".json"):
            path.unlink()
    gc.collect()
    cal = state.calibration
    before = cal.measure()
    results = []
    for op in state.ops:
        r = run_op(state.cli, op, state.workdir)
        after = cal.measure()
        r.calibrated_s = r.seconds * cal.scale(before, after)
        before = after
        results.append(r)
    return sum(r.calibrated_s for r in results), results


def check_pass(state: State, results: list[OpResult]) -> list[Verdict]:
    return [Verdict(ok=False, err=1.0, why=r.error) if r.error else
            check(op, r.code, r.stdout, state.workdir, state.refs)
            for op, r in zip(state.ops, results)]


def setup(workload: str, seed: int, tiny_refs: dict | None = None) -> State:
    """Import rodfield, generate the configs, load the references, warm up.

    ``tiny_refs`` (the self-test's) selects the tiny sizes.
    """
    tiny = tiny_refs is not None
    cal = Calibration(workload)
    before = cal.measure()
    t0 = perf_counter()
    cli = import_rodfield()
    ops = build_ops(workload, seed, tiny)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    write_configs(ops, workdir)
    refs = load_refs(workload) if tiny_refs is None else tiny_refs
    missing = [op.name for op in ops
               if op.kind not in ("invert", "validate") and op.name not in refs]
    if missing:
        raise SystemExit(f"no reference for {missing}; run perfbench/gen_refs.py")
    state = State(cli, ops, refs, workdir, cal)
    state.setup_s = (perf_counter() - t0) * cal.scale(before, cal.measure())
    warmup_s, results = run_pass(state)
    state.setup_s += warmup_s
    # the canary: a zeroed output must fail its check
    if results[0].code == 0:
        corrupt_output(ops[0], workdir)
        state.canary_caught = not check_pass(state, results[:1])[0].ok
    return state


def measure(state: State, seconds: float, recorder: SpanRecorder | None = None):
    """Run passes until ``seconds`` have gone by; check each pass after it."""
    times, results, verdicts = [], [], []
    t_end = perf_counter() + seconds
    while True:
        if recorder is not None:
            recorder.pass_id = len(times)
        dt, res = run_pass(state)
        times.append(dt)
        results.append(res)
        verdicts.append(check_pass(state, res))
        if perf_counter() >= t_end:
            return times, results, verdicts


def tail(times: list[float]) -> dict:
    """The highest whole percentile with at least ten passes beyond it."""
    n = len(times)
    p = math.floor(100 * (n - 10) / n) if n > 10 else None
    value = None
    if p is not None:
        value = sorted(times)[math.ceil(p / 100 * n) - 1]
    return {"value": value, "percentile": p, "passes": n, "unit": "s"}


def summarize(state: State, verdicts: list[list[Verdict]]) -> dict:
    """Failures, and the worst errors per operation, over the checked passes."""
    failed, failures, op_err, near = 0, {}, {}, []
    for vs in verdicts:
        for op, v in zip(state.ops, vs):
            if not v.ok:
                failed += 1
                failures.setdefault(op.name, v.why)
            if v.err is not None:
                op_err[op.name] = max(op_err.get(op.name, 0.0), v.err)
            if v.err_near is not None:
                near.append(v.err_near)
    return {"attempted": len(state.ops) * len(verdicts), "failed": failed,
            "err_rel": max(ERR_FLOOR, *op_err.values()) if op_err else 1.0,
            "op_err": op_err, "err_near": max(near) if near else None,
            "failures": failures}


def untraced_run(args, tiny_refs) -> tuple[dict, dict]:
    states = []
    for _ in range(SETUPS):
        if states:
            shutil.rmtree(states[-1].workdir, ignore_errors=True)
        states.append(setup(args.workload, args.seed, tiny_refs))
    setup_times = [st.setup_s for st in states]
    state = states[-1]
    times, results, verdicts = measure(state, args.seconds)
    s = summarize(state, verdicts)
    shutil.rmtree(state.workdir, ignore_errors=True)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_rel": s["err_rel"],
        "ok_share": (s["attempted"] - s["failed"]) / s["attempted"],
    }
    op_s = {op.name: statistics.median(r[i].seconds for r in results)
            for i, op in enumerate(state.ops)}
    info = {"setup_times": setup_times, "pass_times": times,
            "wall_pass_times": [sum(r.seconds for r in res) for res in results],
            "pass_s_tail": tail(times),
            "failed_share": s["failed"] / s["attempted"],
            "err_near": s["err_near"], "op_s": op_s, "op_err": s["op_err"],
            "failures": s["failures"]}
    result = {"correct": all(st.canary_caught for st in states),
              "attempted": s["attempted"], "failed": s["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in END_TO_END.items()}}
    return result, info


def traced_run(args, tiny_refs) -> tuple[dict, dict]:
    state = setup(args.workload, args.seed, tiny_refs)
    plain, _, _ = measure(state, args.seconds / 2)
    with SpanRecorder() as rec:
        traced, _, verdicts = measure(state, args.seconds / 2, rec)
    shutil.rmtree(state.workdir, ignore_errors=True)

    passes = rec.per_pass(range(len(traced)))
    values = {}
    for layer, funcs in LAYERS.items():
        for func in funcs:
            name = span_name(layer, func)
            kind = "dur_s" if layer == "cli" else "self_s"
            values[f"{name}.s"] = statistics.median(p.get(f"{name}.{kind}", 0.0)
                                                    for p in passes)
            values[f"{name}.peak_mb"] = max(p.get(f"{name}.peak_mb", 0.0)
                                            for p in passes)
    for key in PER_LAYER:
        if key not in values:
            values[key] = statistics.median(p.get(key, 0.0) for p in passes)
    cli_names = [span_name("cli", f) for f in LAYERS["cli"]]
    values["cli.output.s"] = statistics.median(
        sum(p.get(f"{n}.self_s", 0.0) for n in cli_names) for p in passes)
    values["cli.rows_written"] = statistics.median(sum(v.rows for v in vs)
                                                   for vs in verdicts)
    fits = [v for vs in verdicts for op, v in zip(state.ops, vs) if op.kind == "invert"]
    values["inverse.fit_rod.ok_ratio"] = (sum(v.ok for v in fits) / len(fits)
                                          if fits else 0.0)
    values["trace.untraced_pass_s"] = statistics.median(plain)
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - values["trace.untraced_pass_s"]

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env.describe(),
        "spans": rec.spans}))
    s = summarize(state, verdicts)
    result = {"correct": state.canary_caught,
              "attempted": s["attempted"], "failed": s["failed"],
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in PER_LAYER.items()}}
    return result, {"spans": str(spans_path.relative_to(HERE.parent)),
                    "failures": s["failures"]}


def run_all(args) -> int:
    """Each workload in its own process: ru_maxrss only ever grows."""
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
        for key in ("pass_s_tail", "failed_share", "err_near", "failures"):
            if key in info:
                print(f"  {key:42s} {json.dumps(info[key])}")
    return code


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes with references computed on the spot (self-test)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    tiny_refs = None
    if args.tiny:
        import_rodfield()
        tiny_refs = compute_refs(args.workload, tiny=True)[0]
    run = traced_run if args.trace else untraced_run
    result, info = run(args, tiny_refs)
    info = {"workload": args.workload, "seed": args.seed, "env": env.describe(), **info}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
