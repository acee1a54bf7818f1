"""Span recorder for the traced run.

The recorder wraps the public functions of each ``rodfield`` module from
outside; nothing under ``src/`` changes.  ``cli``, ``solver``, ``inverse``
and ``validate`` bind most of these functions with ``from ... import``, so
each wrapper is installed in every rodfield module namespace that holds
the original function, not only in the module that defines it.

A span records name, start, end, parent span and pass id.  Self time is a
span's duration minus the durations of its child spans (calls are nested
and sequential, so the children never overlap).  Counters are kept at the
same boundaries by hooks that look at a call's arguments and result; the
time a hook takes is taken out of every span still open, so hooks do not
show up as self time.  Each span of the potentials layer also records its
tracemalloc peak above the memory traced at its start.  tracemalloc runs
only while such a span is open: the dense (n, n) and (m, n, 2) arrays
live there, and tracing the Python-heavy layers (the closed-form loop,
the CSV writers) would slow them fivefold.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

MEMORY_LAYER = "potentials."

# layer -> traced functions, in the ROADMAP's order
LAYERS = {
    "config": ("load_config",),
    "geometry": ("build_mesh",),
    "potentials": ("assemble_np", "solve_density", "single_layer",
                   "single_layer_grad", "_near_flags"),
    "solver": ("solve_forward", "eval_u", "eval_grad_u"),
    "asymptotics": ("asym_u_general", "asym_u_linear", "asym_grad_linear"),
    "inverse": ("fit_rod",),
    "validate": ("run_validation",),
    "cli": ("cmd_fieldmap", "cmd_compare", "cmd_validate", "cmd_invert",
            "cmd_forward", "cmd_asymptotic"),
}


def span_name(module: str, func: str) -> str:
    if module == "cli":
        return f"cli.{func.removeprefix('cmd_')}"
    return f"{module}.{func.lstrip('_')}"


def _n_points(x) -> int:
    return len(np.atleast_2d(np.asarray(x, dtype=float)))


def _count_mesh(rec, args, result):
    rec.count("geometry.nodes", len(result))


def _count_assembly(rec, args, result):
    rec.count("potentials.assemble_np.pairs", result.n ** 2)


def _residual(rec, args, result):
    # ||(lam I - K) phi - b|| / ||b||, which solve_density computes and drops
    npm, lam, rhs = args["np_matrix"], args["lam"], args["rhs"]
    b = rhs.values
    r = lam * result.values - npm.apply(result.values) - b
    rec.maximum("potentials.solve_density.residual",
                float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300)))


def _count_single_layer(rec, args, result):
    m = _n_points(args["x"])
    rec.count("potentials.single_layer.pair_evals", m * len(args["mesh"]))
    rec.count("potentials.near_flagged", int(np.count_nonzero(result[1])))


def _count_single_layer_grad(rec, args, result):
    rec.count("potentials.single_layer_grad.pair_evals",
              _n_points(args["x"]) * len(args["mesh"]))


def _count_points(name):
    def hook(rec, args, result):
        rec.count(f"asymptotics.{name}.points", _n_points(args["x"]))
    return hook


def _count_fit(rec, args, result):
    rec.count("inverse.fit_rod.calls", 1)
    rec.count("inverse.fit_rod.nfev", result.iterations)


def _count_checks(rec, args, result):
    rec.count("validate.checks_failed", sum(not c.passed for c in result))


HOOKS = {
    "geometry.build_mesh": _count_mesh,
    "potentials.assemble_np": _count_assembly,
    "potentials.solve_density": _residual,
    "potentials.single_layer": _count_single_layer,
    "potentials.single_layer_grad": _count_single_layer_grad,
    "asymptotics.asym_u_general": _count_points("asym_u_general"),
    "asymptotics.asym_u_linear": _count_points("asym_u_linear"),
    "asymptotics.asym_grad_linear": _count_points("asym_grad_linear"),
    "inverse.fit_rod": _count_fit,
    "validate.run_validation": _count_checks,
}


class SpanRecorder:
    """Collects spans and counters in memory while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self._stack: list[dict] = []
        self._mem_stack: list[dict] = []
        self._excluded = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------
    def count(self, key: str, n: float) -> None:
        self.counters[self.pass_id][key] += n

    def maximum(self, key: str, value: float) -> None:
        c = self.counters[self.pass_id]
        c[key] = max(c[key], value)

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> dict:
        span = {"name": name, "pass": self.pass_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans), "children_s": 0.0}
        self.spans.append(span)
        if name.startswith(MEMORY_LAYER):
            if not self._mem_stack:
                tracemalloc.start()
            else:
                parent = self._mem_stack[-1]
                parent["peak_abs"] = max(parent["peak_abs"],
                                         tracemalloc.get_traced_memory()[1])
            span["mem0"] = span["peak_abs"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self._mem_stack.append(span)
        self._stack.append(span)
        span["excl0"] = self._excluded
        span["start"] = perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        dur = span["end"] - span["start"] - (self._excluded - span.pop("excl0"))
        span["dur_s"] = dur
        span["self_s"] = dur - span.pop("children_s")
        if self._stack:
            self._stack[-1]["children_s"] += dur
        if self._mem_stack and self._mem_stack[-1] is span:
            self._mem_stack.pop()
            peak = max(span.pop("peak_abs"), tracemalloc.get_traced_memory()[1])
            span["peak_mb"] = (peak - span.pop("mem0")) / 1e6
            if self._mem_stack:
                parent = self._mem_stack[-1]
                parent["peak_abs"] = max(parent["peak_abs"], peak)
            else:
                tracemalloc.stop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                t0 = perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
                self._excluded += perf_counter() - t0
            return result

        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function in every rodfield namespace binding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rodfield" or n.startswith("rodfield."))]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"rodfield.{layer}"]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self.wrap(span_name(layer, func), orig)
                for mod in modules:
                    if getattr(mod, func, None) is orig:
                        setattr(mod, func, wrapper)
                        self._patched.append((mod, func, orig))

    def uninstall(self) -> None:
        for mod, func, orig in reversed(self._patched):
            setattr(mod, func, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries --------------------------------------------------------
    def per_pass(self, passes) -> list[dict[str, float]]:
        """Self time, inclusive time and peak per span name, for each pass."""
        out = []
        for p in passes:
            agg: dict[str, float] = defaultdict(float)
            for s in self.spans:
                if s["pass"] != p:
                    continue
                agg[f"{s['name']}.self_s"] += s["self_s"]
                agg[f"{s['name']}.dur_s"] += s["dur_s"]
                if "peak_mb" in s:
                    key = f"{s['name']}.peak_mb"
                    agg[key] = max(agg[key], s["peak_mb"])
            agg.update(self.counters.get(p, {}))
            out.append(agg)
        return out
