"""Command-line front end.

Subcommands: fieldmap, compare, validate, invert, forward, asymptotic.
Outputs are CSV/JSON data files; plotting is left to external tools.
Exit codes: 0 success, 1 validation/convergence failure, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .geometry import ValidationError, write_csv
from .inverse import (IdentifiabilityError, dump_fit_json, dump_measurements_csv,
                      fit_rod, load_measurements_csv, sensor_circle,
                      simulate_measurements)
from .potentials import SolverError
from .solver import perturbation, refuse_non_finite
from .validate import run_validation

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _grid_or_error(cfg: RunConfig) -> np.ndarray:
    if cfg.grid is None:
        raise ConfigError("this command needs a 'grid' block")
    return cfg.grid.points()


def _write_field(path: str, cfg: RunConfig, pts: np.ndarray, s, gs, near) -> None:
    """The CSV of ``forward`` and ``asymptotic``: u = H + s, grad u, near flag."""
    u, g = cfg.background.value(pts) + s, cfg.background.grad(pts) + gs
    refuse_non_finite("u", pts, u, g)
    write_csv(path, ["x1", "x2", "u", "ux", "uy", "near_boundary_flag"],
              pts[:, 0], pts[:, 1], u, g[:, 0], g[:, 1], near)


def cmd_fieldmap(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    s, gs, near, sol = perturbation(cfg.rod, cfg.background, pts, args.model,
                                    cfg.n_cap, cfg.n_facade)
    dgrad = np.linalg.norm(gs, axis=1)
    refuse_non_finite("|grad(u - H)|", pts, dgrad)
    write_csv(args.out, ["x1", "x2", "du", "dgrad", "near_flag"],
              pts[:, 0], pts[:, 1], np.abs(s), dgrad, near)
    mesh = f"  n={len(sol.mesh)}" if sol is not None else ""
    print(f"fieldmap: wrote {len(pts)} rows to {args.out}{mesh}  "
          f"near={np.count_nonzero(near)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    if not cfg.sweep_deltas:
        raise ConfigError("compare needs a 'sweep' block with a deltas list")
    # Probe circle offset from the rod center: on the axis the leading
    # error term has a sign change that masks the delta decay.
    probe = sensor_circle(cfg.probe_center, cfg.sweep_probe_radius,
                          cfg.sweep_probe_count)
    rows = []
    for delta in cfg.sweep_deltas:
        rod = dataclasses.replace(cfg.rod, delta=delta)
        t0 = time.perf_counter()
        # the closed form first: it refuses a disc before any solve
        s_asym = perturbation(rod, cfg.background, probe, "asymptotic")[0]
        s_bem, _, _, sol = perturbation(rod, cfg.background, probe, "bem",
                                        cfg.n_cap, cfg.n_facade)
        err = float(np.abs(s_bem - s_asym).max())
        rows.append({
            "delta": delta,
            "max_error": err,
            "error_over_delta": err / delta,
            "mesh_nodes": len(sol.mesh),
            "solve_residual": sol.phi.residual,
            "factored_blocks": sol.phi.factored_blocks,
            "wall_seconds": time.perf_counter() - t0,
        })
    report = {"probe_radius": cfg.sweep_probe_radius,
              "probe_center": list(cfg.probe_center), "rows": rows}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for r in rows:
        print(f"delta={r['delta']:g}  E={r['max_error']:.3e}  "
              f"E/delta={r['error_over_delta']:.3e}  "
              f"n={r['mesh_nodes']}  {r['wall_seconds']:.2f}s")
    return EXIT_OK


def cmd_validate(args) -> int:
    checks = run_validation()
    for c in checks:
        print(c.line(verbose=args.verbose))
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def cmd_invert(args) -> int:
    if not (math.isfinite(args.noise) and args.noise >= 0.0):
        raise ConfigError(f"--noise: must be finite and >= 0, got {args.noise!r}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    cfg = load_config(args.config)
    if cfg.sensors is None:
        raise ConfigError("invert needs a 'sensors' block")

    if args.synthesize:
        points = sensor_circle(cfg.sensors.center, cfg.sensors.radius,
                               cfg.sensors.count)
        data = simulate_measurements(cfg.rod, cfg.background, points,
                                     noise_rms=args.noise, source=args.model,
                                     seed=args.seed, n_cap=cfg.n_cap,
                                     n_facade=cfg.n_facade)
        if args.data:
            dump_measurements_csv(data, args.data)
    else:
        if args.data is None:
            print("invert: provide a data CSV with --data or use --synthesize",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            data = load_measurements_csv(args.data, cfg.background,
                                         noise_rms=args.noise)
        except FileNotFoundError:
            print(f"invert: data file not found: {args.data}\n"
                  "hint: pass --synthesize to generate it first", file=sys.stderr)
            return EXIT_USAGE

    result = fit_rod(data)
    print(dump_fit_json(result, args.out))
    return EXIT_OK if result.converged else EXIT_FAILURE


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    s, gs, near, sol = perturbation(cfg.rod, cfg.background, pts, "bem",
                                    cfg.n_cap, cfg.n_facade)
    _write_field(args.out, cfg, pts, s, gs, near)
    if args.density:
        write_csv(args.density, ["index", "x1", "x2", "phi"], np.arange(len(sol.mesh)),
                  *sol.mesh.points.T, sol.phi.values)
    print(f"forward: wrote {len(pts)} rows to {args.out}  n={len(sol.mesh)}  "
          f"residual={sol.phi.residual:.2e}  blocks={sol.phi.factored_blocks}  "
          f"near={np.count_nonzero(near)}")
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    _write_field(args.out, cfg, pts,
                 *perturbation(cfg.rod, cfg.background, pts, "asymptotic")[:3])
    print(f"asymptotic: wrote {len(pts)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rodfield",
                                description="Rod-inclusion conductivity tools")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = p.add_subparsers(dest="command", required=True)

    fm = sub.add_parser("fieldmap", help="perturbed field magnitudes on a grid")
    fm.add_argument("--config", required=True)
    fm.add_argument("--model", choices=["bem", "asymptotic"], default="bem")
    fm.add_argument("--out", default="fieldmap.csv")
    fm.set_defaults(func=cmd_fieldmap)

    cp = sub.add_parser("compare", help="BEM vs asymptotic error sweep over delta")
    cp.add_argument("--config", required=True)
    cp.add_argument("--out", default="compare.json")
    cp.set_defaults(func=cmd_compare)

    va = sub.add_parser("validate", help="run the built-in cross-check suite")
    va.add_argument("--verbose", action="store_true")
    va.set_defaults(func=cmd_validate)

    iv = sub.add_parser("invert", help="fit rod parameters to boundary data")
    iv.add_argument("--config", required=True)
    iv.add_argument("--data", default=None, help="measurement CSV (x1,x2,u)")
    iv.add_argument("--synthesize", action="store_true",
                    help="generate the data from the configured rod first")
    iv.add_argument("--noise", type=float, default=0.0,
                    help="noise RMS: added to synthesized data, and stated for "
                         "loaded data; the fit converges only to a residual "
                         "within twice it or 1e-3 of the signal")
    iv.add_argument("--model", choices=["bem", "asymptotic"], default="bem")
    iv.add_argument("--out", default="fit.json")
    iv.set_defaults(func=cmd_invert)

    fw = sub.add_parser("forward", help="full boundary-integral field on a grid")
    fw.add_argument("--config", required=True)
    fw.add_argument("--out", default="forward.csv")
    fw.add_argument("--density", default=None, help="also dump the density CSV")
    fw.set_defaults(func=cmd_forward)

    asy = sub.add_parser("asymptotic", help="closed-form field on a grid")
    asy.add_argument("--config", required=True)
    asy.add_argument("--out", default="asymptotic.csv")
    asy.set_defaults(func=cmd_asymptotic)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, IdentifiabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
