"""The four benchmark workloads: seeded configs, the CLI operations of one
pass, and the check that compares each operation's output with its
reference.

One operation is one ``rodfield`` CLI invocation (``cli.main([...])``).
Every workload is a fixed list of operations; a pass runs them in order.
Only ``closed_form`` depends on the seed: its fit rod centre is jittered by
at most ``FIT_JITTER`` on seeds other than ``DEFAULT_SEED``, because the
true endpoints are the fits' reference and so need no regeneration.  The
sweep angles stay at k*pi/8: a phase shift moves between one and four fits
into the basin of the wrong minimum (D2) and would swing the failed share
and the fit time by far more than the benchmark's bounds.

This module imports numpy only, so that importing it costs nothing that
``setup_s`` should measure.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("thin_rod", "fieldmap", "closed_form", "small_problems")
DEFAULT_SEED = 0
FIT_JITTER = 0.01

# check tolerances: the relative error (against the reference) above which
# an output counts as wrong
TOL_BEM = 1e-4          # BEM far field against a refined mesh
TOL_ASYM = 1e-6         # closed form against a finer quadrature
TOL_GRAD_PAIR = 1e-4    # `asymptotic` gradient against `fieldmap --model asymptotic`
TOL_ENDPOINT = 1e-6     # fit endpoints on noise-free asymptotic data (absolute)

# grid checks count only points at least this far outside the rod; errors
# are relative to the largest reference value there.  Closer in, the BEM's
# midpoint quadrature degrades (points in the near band are reported apart,
# as err_near) and the finite-difference gradient of `fieldmap --model
# asymptotic` straddles the rod axis.
FAR = 0.1


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its check needs."""

    name: str                       # unique in the workload; names files and reference keys
    command: str                    # rodfield subcommand
    kind: str                       # selects the check
    config: dict | None = None      # written to <name>.yaml
    extra: tuple[str, ...] = ()     # further CLI arguments
    meta: dict = field(default_factory=dict)

    def argv(self, workdir: Path) -> list[str]:
        if self.config is None:
            return [self.command, *self.extra]
        argv = [self.command, "--config", str(workdir / f"{self.name}.yaml"),
                "--out", str(self.out_path(workdir)), *self.extra]
        if self.kind == "forward":
            argv += ["--density", str(workdir / f"{self.name}.density.csv")]
        return argv

    def out_path(self, workdir: Path) -> Path:
        suffix = ".json" if self.command in ("invert", "compare") else ".csv"
        return workdir / f"{self.name}{suffix}"


@dataclass
class Verdict:
    """Outcome of one operation's check."""

    ok: bool
    err: float | None = None        # worst relative error away from the boundary
    err_near: float | None = None   # worst relative error in the near band
    rows: int = 0                   # CSV data rows written
    why: str = ""


# ---------------------------------------------------------------------------
# configs

def _rod(L, delta, sigma0=2.0, center=(0.0, 0.0), angle=0.0) -> dict:
    return {"L": L, "delta": delta, "center": [float(c) for c in center],
            "angle": float(angle), "sigma0": sigma0}


def _grid(lo, hi, n) -> dict:
    return {"xmin": lo, "xmax": hi, "ymin": lo, "ymax": hi, "nx": n, "ny": n}


def build_ops(workload: str, seed: int = DEFAULT_SEED, tiny: bool = False) -> list[Op]:
    """Operations of one pass.  ``tiny`` shrinks every size for the self-test."""
    if workload == "thin_rod":
        deltas = (0.05, 0.025) if tiny else (0.002, 0.001)
        return [Op(f"forward_d{d:g}_s{s:g}", "forward", "forward",
                   {"rod": _rod(2.0, d, s, angle=0.4),
                    "background": {"a": [1.0, 0.5]},
                    # every lattice point lies at least 0.6 from the rod
                    "grid": _grid(-3.0, 3.0, 4)})
                for d in deltas for s in (2.0, 100.0)]
    if workload == "fieldmap":
        return [Op("fieldmap_bem", "fieldmap", "fieldmap_bem",
                   {"rod": _rod(2.0, 0.05 if tiny else 0.01),
                    "background": {"a": [1.0, 0.5]},
                    "grid": _grid(-3.0, 3.0, 21 if tiny else 101)},
                   ("--model", "bem"))]
    if workload == "closed_form":
        coeffs = [0.0, 1.0, 0.5, 0.3, 0.2]
        quad = {"rod": _rod(2.0, 0.01, center=(0.1, -0.1), angle=0.3),
                "background": {"coefficients": coeffs},
                "grid": _grid(-3.0, 3.0, 9 if tiny else 41)}
        ops = [Op("fieldmap_asym", "fieldmap", "fieldmap_asym", quad,
                  ("--model", "asymptotic")),
               Op("asymptotic", "asymptotic", "asymptotic", quad,
                  meta={"pair": "fieldmap_asym", "coefficients": coeffs})]
        center = np.array([0.3, -0.2])
        if seed != DEFAULT_SEED:
            center = center + np.random.default_rng(seed).uniform(
                -FIT_JITTER, FIT_JITTER, 2)
        for k in range(2 if tiny else 8):
            rod = _rod(2.0, 0.05, center=center, angle=k * math.pi / 8.0)
            ops.append(Op(f"invert_k{k}", "invert", "invert",
                          {"rod": rod, "background": {"a": [1.0, 1.0]},
                           "sensors": {"center": [0.0, 0.0], "radius": 3.0,
                                       "count": 64}},
                          ("--synthesize", "--model", "asymptotic"),
                          meta={"rod": rod}))
        return ops
    if workload == "small_problems":
        deltas = [0.1, 0.05] if tiny else [0.1, 0.05, 0.025, 0.0125, 0.00625]
        ops = [Op(f"compare_s{s:g}", "compare", "compare",
                  {"rod": _rod(2.0, deltas[0], s),
                   "background": {"a": [1.0, 0.5]},
                   "sweep": {"deltas": deltas, "probe_radius": 3.0,
                             "probe_count": 64, "probe_offset": [0.0, 1.0]}})
               for s in (2.0, 100.0, 0.01)]
        return ops + [Op("validate", "validate", "validate")]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_configs(ops: list[Op], workdir: Path) -> None:
    import yaml

    for op in ops:
        if op.config is not None:
            (workdir / f"{op.name}.yaml").write_text(yaml.safe_dump(op.config))


# ---------------------------------------------------------------------------
# checks

def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path, newline="") as f:
        got = next(csv.reader(f), None)
    if got != header:
        raise ValueError(f"{path.name}: header {got} != {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns")
    return data


def _rel(got: np.ndarray, ref: np.ndarray, scale: float) -> float:
    if got.size == 0:
        return 0.0
    return float(np.abs(got - ref).max() / scale)


def _unusable(why: str, rows: int = 0) -> Verdict:
    # an output that cannot be compared is as wrong as it can be
    return Verdict(ok=False, err=1.0, rows=rows, why=why)


def check(op: Op, code: int, stdout: str, workdir: Path, refs: dict) -> Verdict:
    """Compare one operation's output with its reference."""
    if op.kind == "validate":
        return _check_validate(code, stdout)
    if code != 0 and op.kind != "invert":
        return _unusable(f"exit code {code}")
    try:
        return _CHECKS[op.kind](op, code, workdir, refs)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _unusable(f"unreadable output: {exc}")


def _check_forward(op, code, workdir, refs) -> Verdict:
    data = _read_csv(op.out_path(workdir),
                     ["x1", "x2", "u", "ux", "uy", "near_boundary_flag"])
    dens = _read_csv(workdir / f"{op.name}.density.csv", ["index", "x1", "x2", "phi"])
    rows = len(data) + len(dens)
    if not (np.isfinite(data).all() and np.isfinite(dens).all()) or len(dens) == 0:
        return _unusable("non-finite or empty output", rows)
    r = refs[op.name]
    err = max(_rel(data[:, 2], r["u"], float(r["u_scale"])),
              _rel(data[:, 3:5], r["grad"], float(r["grad_scale"])))
    return Verdict(ok=err <= TOL_BEM, err=err, rows=rows,
                   why="" if err <= TOL_BEM else f"far-field error {err:.2e}")


def _check_fieldmap_bem(op, code, workdir, refs) -> Verdict:
    data = _read_csv(op.out_path(workdir), ["x1", "x2", "du", "dgrad", "near_flag"])
    if not np.isfinite(data).all():
        return _unusable("non-finite output", len(data))
    r = refs[op.name]
    near = data[:, 4] != 0
    far = r["far"]
    near_ok = near & r["ref_valid"]
    su, sg = float(r["du_scale"]), float(r["dgrad_scale"])

    def err_on(mask):
        return max(_rel(data[mask, 2], r["du"][mask], su),
                   _rel(data[mask, 3], r["dgrad"][mask], sg))

    err = err_on(far)
    return Verdict(ok=err <= TOL_BEM, err=err,
                   err_near=err_on(near_ok) if near_ok.any() else None,
                   rows=len(data),
                   why="" if err <= TOL_BEM else f"far-field error {err:.2e}")


def _check_fieldmap_asym(op, code, workdir, refs) -> Verdict:
    data = _read_csv(op.out_path(workdir), ["x1", "x2", "du", "dgrad", "near_flag"])
    if not np.isfinite(data).all():
        return _unusable("non-finite output", len(data))
    r = refs[op.name]
    far = r["far"]
    err = max(_rel(data[far, 2], r["du"][far], float(r["du_scale"])),
              _rel(data[far, 3], r["dgrad"][far], float(r["dgrad_scale"])))
    return Verdict(ok=err <= TOL_ASYM, err=err, rows=len(data),
                   why="" if err <= TOL_ASYM else f"error {err:.2e}")


def _background_grad(coeffs, pts) -> np.ndarray:
    _, c1, c2, c3, c4 = coeffs
    x1, x2 = pts[:, 0], pts[:, 1]
    return np.stack([c1 + 2.0 * c3 * x1 + c4 * x2,
                     c2 - 2.0 * c3 * x2 + c4 * x1], axis=1)


def _check_asymptotic(op, code, workdir, refs) -> Verdict:
    data = _read_csv(op.out_path(workdir),
                     ["x1", "x2", "u", "ux", "uy", "near_boundary_flag"])
    if not np.isfinite(data).all():
        return _unusable("non-finite output", len(data))
    r = refs[op.name]
    far = r["far"]
    dgrad = np.linalg.norm(data[:, 3:5] - _background_grad(op.meta["coefficients"],
                                                           data[:, :2]), axis=1)
    err_u = _rel(data[far, 2], r["u"][far], float(r["u_scale"]))
    err_g = _rel(dgrad[far], r["dgrad"][far], float(r["dgrad_scale"]))
    # the pair check: the gradient this command writes against the one
    # `fieldmap --model asymptotic` wrote for the same config in this pass
    pair = _read_csv(workdir / f"{op.meta['pair']}.csv",
                     ["x1", "x2", "du", "dgrad", "near_flag"])
    err_pair = _rel(dgrad[far], pair[far, 3], float(r["dgrad_scale"]))
    err = max(err_u, err_g)
    why = []
    if err_u > TOL_ASYM:
        why.append(f"u error {err_u:.2e}")
    if err_pair > TOL_GRAD_PAIR:
        why.append(f"gradient differs from fieldmap's dgrad by {err_pair:.2e}")
    return Verdict(ok=not why, err=err, rows=len(data), why="; ".join(why))


def fit_endpoint_error(fit: dict, rod: dict) -> float:
    """Worst endpoint displacement, with the P <-> Q symmetry folded."""
    c = np.asarray(rod["center"])
    axis = np.array([math.cos(rod["angle"]), math.sin(rod["angle"])])
    P, Q = c - rod["L"] / 2.0 * axis, c + rod["L"] / 2.0 * axis
    Ph, Qh = (np.asarray(e, dtype=float) for e in fit["endpoints"])
    direct = max(np.linalg.norm(Ph - P), np.linalg.norm(Qh - Q))
    swapped = max(np.linalg.norm(Ph - Q), np.linalg.norm(Qh - P))
    return float(min(direct, swapped))


def _check_invert(op, code, workdir, refs) -> Verdict:
    fit = json.loads(op.out_path(workdir).read_text())
    e = fit_endpoint_error(fit, op.meta["rod"])
    if not math.isfinite(e):
        return _unusable("non-finite endpoints")
    err = e / op.meta["rod"]["L"]
    if code != 0 or not fit["converged"]:
        return Verdict(ok=False, err=err, why=f"not converged (exit {code})")
    ok = e <= TOL_ENDPOINT
    return Verdict(ok=ok, err=err,
                   why="" if ok else f"converged: true at endpoint error {e:.2e}")


def _check_compare(op, code, workdir, refs) -> Verdict:
    report = json.loads(op.out_path(workdir).read_text())
    got = np.array([row["max_error"] for row in report["rows"]], dtype=float)
    r = refs[op.name]
    if got.shape != r["max_error"].shape or not np.isfinite(got).all():
        return _unusable(f"{got.size} finite rows, expected {r['max_error'].size}")
    # the refined mesh leaves the asymptotic term unchanged, so the shift in
    # the reported error is the BEM's own far-field error on the probe
    err = float((np.abs(got - r["max_error"]) / r["pert_scale"]).max())
    return Verdict(ok=err <= TOL_BEM, err=err, why="" if err <= TOL_BEM else
                   f"BEM far-field error {err:.2e} on the probe circle")


def _check_validate(code: int, stdout: str) -> Verdict:
    # the analytic disc oracle's measured value is validate's error figure
    m = re.search(r"disc oracle \(relative\): (\S+)", stdout)
    err = float(m.group(1)) if m else math.nan
    if not math.isfinite(err):
        return _unusable("no disc oracle line in the output")
    failed = stdout.count("[FAIL] ")
    ok = code == 0 and failed == 0
    return Verdict(ok=ok, err=err, why="" if ok else f"{failed} checks failed")


_CHECKS = {
    "forward": _check_forward,
    "fieldmap_bem": _check_fieldmap_bem,
    "fieldmap_asym": _check_fieldmap_asym,
    "asymptotic": _check_asymptotic,
    "invert": _check_invert,
    "compare": _check_compare,
}


def corrupt_output(op: Op, workdir: Path) -> None:
    """Zero every value column of ``op``'s output (the checker's canary)."""
    path = op.out_path(workdir)
    if path.suffix == ".json":
        def zero(v):
            if isinstance(v, float):
                return 0.0
            if isinstance(v, list):
                return [zero(x) for x in v]
            if isinstance(v, dict):
                return {k: zero(x) for k, x in v.items()}
            return v
        path.write_text(json.dumps(zero(json.loads(path.read_text()))))
        return
    lines = path.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join(cells[:2] + ["0.0"] * (len(cells) - 2)))
    path.write_text("\n".join(out) + "\n")
