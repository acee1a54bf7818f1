"""Compute the references the benchmark checks its outputs against.

    python3 perfbench/gen_refs.py [workload ...]

writes ``perfbench/refs/<workload>.npz`` and records the mesh counts and
quadrature orders it used in ``perfbench/refs/meta.json``.  The references
are committed; the benchmark only loads them (the self-test computes its
tiny ones with :func:`compute_refs`).  None of them depends on the seed.

- BEM references are the same solver on a refined mesh.  The far-field
  error is set by the facade spacing (doubling the cap count changes
  nothing at 1e-9), so the facade count grows by ``facade_refine`` and the
  cap count doubles.  The refined mesh is capped near ``REF_MAX_NODES``
  nodes because the dense assembly needs about 50 n^2 bytes.
- Closed-form references are ``asym_u_general`` with ``ASYM_REF_QUAD``
  Gauss points per panel instead of the default 32; gradients are central
  differences of those values.
- Fit references need no file: the true rod endpoints are in the config.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import env  # noqa: F401  (pins BLAS threads; must precede numpy)
import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
REF_MAX_NODES = 6200
ASYM_REF_QUAD = 64
FIELD_CHUNK = 1000


def _facade_refine(n_facade: int) -> float:
    """6x like the ROADMAP's reference, unless that exceeds REF_MAX_NODES."""
    return min(6.0, (REF_MAX_NODES - 128) / (2.0 * n_facade))


def _solve_refined(cfg, spec):
    from rodfield.geometry import default_counts
    from rodfield.solver import solve_forward

    n_cap, n_facade = default_counts(spec)
    f = _facade_refine(n_facade)
    sol = solve_forward(spec, cfg.background, n_cap=2 * n_cap,
                        n_facade=int(round(f * n_facade)))
    counts = {"default_nodes": 2 * (n_cap + n_facade), "ref_nodes": len(sol.mesh),
              "ref_n_cap": sol.mesh.n_cap, "ref_n_facade": sol.mesh.n_facade,
              "facade_refine": round(f, 3)}
    return sol, counts


def _field(sol, pts):
    from rodfield.solver import eval_grad_u, eval_u

    u, g, near = [], [], []
    for i in range(0, len(pts), FIELD_CHUNK):
        chunk = pts[i:i + FIELD_CHUNK]
        ui, ni = eval_u(sol, chunk)
        gi, _ = eval_grad_u(sol, chunk)
        u.append(ui), g.append(gi), near.append(ni)
    return np.concatenate(u), np.concatenate(g), np.concatenate(near)


def compute_refs(workload: str, tiny: bool = False) -> tuple[dict, dict]:
    """References for every operation of ``workload``, and what was used."""
    from rodfield.asymptotics import AsymptoticModel, asym_u_general, asym_u_linear
    from rodfield.config import parse_config
    from rodfield.geometry import RodSpec, signed_distance
    from rodfield.inverse import sensor_circle
    from rodfield.solver import lambda_of_sigma
    from workloads import FAR, build_ops

    refs, used = {}, {}
    for op in build_ops(workload, tiny=tiny):
        if op.kind in ("invert", "validate"):
            continue
        cfg = parse_config(op.config)
        bg = cfg.background
        if op.kind in ("forward", "fieldmap_bem"):
            pts = cfg.grid.points()
            sol, used[op.name] = _solve_refined(cfg, cfg.rod)
            u, g, near = _field(sol, pts)
            du = u - bg.value(pts)
            dg = g - bg.grad(pts)
            if op.kind == "forward":
                if signed_distance(cfg.rod, pts).min() < 0.5:
                    raise SystemExit(f"{op.name}: lattice point within 0.5 of the rod")
                refs[op.name] = {"u": u, "grad": g, "u_scale": np.abs(du).max(),
                                 "grad_scale": np.abs(dg).max()}
            else:
                dgn = np.linalg.norm(dg, axis=1)
                far = signed_distance(cfg.rod, pts) >= FAR
                refs[op.name] = {"du": np.abs(du), "dgrad": dgn, "far": far,
                                 "ref_valid": ~near,
                                 "du_scale": np.abs(du)[far].max(),
                                 "dgrad_scale": dgn[far].max()}
        elif op.kind in ("fieldmap_asym", "asymptotic"):
            pts = cfg.grid.points()
            rod = cfg.rod
            model = AsymptoticModel(L=rod.L, delta=rod.delta,
                                    lam=lambda_of_sigma(rod.sigma0),
                                    center=rod.center, angle=rod.angle,
                                    background=bg)
            far = signed_distance(rod, pts) >= FAR
            u = asym_u_general(model, pts, n_quad=ASYM_REF_QUAD)
            g = np.full_like(pts, np.nan)
            h = 1e-5
            for k in range(2):
                step = np.zeros(2)
                step[k] = h
                g[far, k] = (asym_u_general(model, pts[far] + step, n_quad=ASYM_REF_QUAD)
                             - asym_u_general(model, pts[far] - step, n_quad=ASYM_REF_QUAD)) / (2 * h)
            du = np.abs(u - bg.value(pts))
            dg = np.linalg.norm(g - bg.grad(pts), axis=1)
            refs[op.name] = {"u": u, "du": du, "dgrad": dg, "far": far,
                             "u_scale": du[far].max(), "du_scale": du[far].max(),
                             "dgrad_scale": dg[far].max()}
            used[op.name] = {"n_quad": ASYM_REF_QUAD, "fd_step": h,
                             "far_points": int(far.sum())}
        elif op.kind == "compare":
            center = np.asarray(cfg.rod.center) + np.asarray(cfg.sweep_probe_offset)
            probe = sensor_circle(center, cfg.sweep_probe_radius, cfg.sweep_probe_count)
            errs, perts, counts = [], [], []
            for delta in cfg.sweep_deltas:
                rod = RodSpec(L=cfg.rod.L, delta=delta, center=cfg.rod.center,
                              angle=cfg.rod.angle, sigma0=cfg.rod.sigma0)
                sol, c = _solve_refined(cfg, rod)
                u_bem, _, _ = _field(sol, probe)
                model = AsymptoticModel(L=rod.L, delta=delta,
                                        lam=lambda_of_sigma(rod.sigma0),
                                        center=rod.center, angle=rod.angle,
                                        background=bg)
                errs.append(float(np.abs(u_bem - asym_u_linear(model, probe)).max()))
                perts.append(float(np.abs(u_bem - bg.value(probe)).max()))
                counts.append({"delta": delta, **c})
            refs[op.name] = {"max_error": np.asarray(errs),
                             "pert_scale": np.asarray(perts)}
            used[op.name] = counts
    return refs, used


def save_refs(workload: str, refs: dict) -> Path:
    path = REFS / f"{workload}.npz"
    np.savez_compressed(path, **{f"{op}/{k}": np.asarray(v)
                                 for op, fields in refs.items()
                                 for k, v in fields.items()})
    return path


def load_refs(workload: str) -> dict:
    refs: dict = {}
    path = REFS / f"{workload}.npz"
    if not path.exists():
        return refs
    with np.load(path) as data:
        for key in data.files:
            op, _, k = key.partition("/")
            refs.setdefault(op, {})[k] = data[key]
    return refs


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    names = argv or WORKLOADS
    meta_path = REFS / "meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    REFS.mkdir(exist_ok=True)
    for w in names:
        t0 = time.perf_counter()
        refs, used = compute_refs(w)
        if refs:
            save_refs(w, refs)
        meta[w] = {"ops": used, "seconds": round(time.perf_counter() - t0, 1),
                   "env": env.describe()}
        print(f"{w}: {len(refs)} references in {meta[w]['seconds']} s", flush=True)
    meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
