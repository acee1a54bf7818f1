"""Command-line front end.

Subcommands: fieldmap, compare, validate, invert, forward, asymptotic.
Outputs are CSV/JSON data files; plotting is left to external tools.
Exit codes: 0 success, 1 validation/convergence failure, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from .asymptotics import AsymptoticModel, asymptotic_field, asymptotic_perturbation
from .config import ConfigError, RunConfig, load_config
from .geometry import RodSpec, ValidationError, signed_distance, write_csv
from .inverse import (IdentifiabilityError, dump_fit_json, dump_measurements_csv,
                      fit_rod, load_measurements_csv, sensor_circle,
                      simulate_measurements)
from .potentials import SolverError, dump_density_csv, single_layer_field
from .solver import dump_field_csv, eval_u, solve_forward, write_field_csv
from .validate import run_validation

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _thread_limit(n: int | None):
    if n is None:
        return contextlib.nullcontext()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("warning: --threads has no effect without the threadpoolctl "
              "package; set OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) instead",
              file=sys.stderr)
        return contextlib.nullcontext()
    return threadpool_limits(limits=n)


def _grid_or_error(cfg: RunConfig) -> np.ndarray:
    if cfg.grid is None:
        raise ConfigError("this command needs a 'grid' block")
    return cfg.grid.points()


def _asymptotic_near(cfg: RunConfig, pts: np.ndarray) -> np.ndarray:
    """The closed form's near flag: within 0.1 delta of the rod."""
    return signed_distance(cfg.rod, pts) < cfg.rod.delta * 0.1


def fieldmap_arrays(cfg: RunConfig, model: str, pts: np.ndarray):
    """Perturbation magnitude |u - H| and |grad u - grad H| on points.

    Both come from the perturbation itself (the single layer, or the
    closed form's terms), never from u - H, which cancels where the
    perturbation is small against the background.
    """
    if model == "bem":
        sol = solve_forward(cfg.rod, cfg.background,
                            n_cap=cfg.n_cap, n_facade=cfg.n_facade)
        s, gs, near = single_layer_field(sol.mesh, sol.phi, pts)
    elif model == "asymptotic":
        s, gs = asymptotic_perturbation(
            AsymptoticModel.from_spec(cfg.rod, cfg.background), pts)
        near = _asymptotic_near(cfg, pts)
    else:
        raise ConfigError(f"unknown model {model!r}")
    return np.abs(s), np.linalg.norm(gs, axis=1), near


def cmd_fieldmap(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    du, dg, near = fieldmap_arrays(cfg, args.model, pts)
    write_csv(args.out, ["x1", "x2", "du", "dgrad", "near_flag"],
              pts[:, 0], pts[:, 1], du, dg, near)
    print(f"fieldmap: wrote {len(pts)} rows to {args.out}  "
          f"near={np.count_nonzero(near)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    if not cfg.sweep_deltas:
        raise ConfigError("compare needs a 'sweep' block with a deltas list")
    if cfg.rod.L == 0.0:
        raise ConfigError("compare: L = 0 (disc) has no rod asymptotic model")
    # Probe circle offset from the rod center: on the axis the leading
    # error term has a sign change that masks the delta decay.
    probe_center = (cfg.rod.center[0] + cfg.sweep_probe_offset[0],
                    cfg.rod.center[1] + cfg.sweep_probe_offset[1])
    probe = sensor_circle(probe_center, cfg.sweep_probe_radius,
                          cfg.sweep_probe_count)
    rows = []
    for delta in cfg.sweep_deltas:
        rod = RodSpec(L=cfg.rod.L, delta=delta, center=cfg.rod.center,
                      angle=cfg.rod.angle, sigma0=cfg.rod.sigma0)
        t0 = time.perf_counter()
        sol = solve_forward(rod, cfg.background, n_cap=cfg.n_cap,
                            n_facade=cfg.n_facade)
        u_bem, _ = eval_u(sol, probe)
        u_asym, _ = asymptotic_field(AsymptoticModel.from_spec(rod, cfg.background),
                                     probe)
        err = float(np.abs(u_bem - u_asym).max())
        rows.append({
            "delta": delta,
            "max_error": err,
            "error_over_delta": err / delta,
            "mesh_nodes": len(sol.mesh),
            "solve_residual": sol.phi.residual,
            "wall_seconds": time.perf_counter() - t0,
        })
    report = {"probe_radius": cfg.sweep_probe_radius,
              "probe_center": list(probe_center), "rows": rows}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for r in rows:
        print(f"delta={r['delta']:g}  E={r['max_error']:.3e}  "
              f"E/delta={r['error_over_delta']:.3e}  "
              f"n={r['mesh_nodes']}  {r['wall_seconds']:.2f}s")
    return EXIT_OK


def cmd_validate(args) -> int:
    checks = run_validation(verbose=args.verbose)
    for c in checks:
        print(c.line(verbose=args.verbose))
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def cmd_invert(args) -> int:
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
    dump_fit_json(result, args.out)
    d = result.to_dict()
    print(json.dumps(d, indent=2))
    return EXIT_OK if result.converged else EXIT_FAILURE


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    sol = solve_forward(cfg.rod, cfg.background, n_cap=cfg.n_cap,
                        n_facade=cfg.n_facade)
    near = dump_field_csv(sol, pts, args.out)
    if args.density:
        dump_density_csv(sol.phi, args.density)
    print(f"forward: wrote {len(pts)} rows to {args.out}  n={len(sol.mesh)}  "
          f"residual={sol.phi.residual:.2e}  near={np.count_nonzero(near)}")
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    u, g = asymptotic_field(AsymptoticModel.from_spec(cfg.rod, cfg.background), pts)
    write_field_csv(args.out, pts, u, g, _asymptotic_near(cfg, pts))
    print(f"asymptotic: wrote {len(pts)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rodfield",
                                description="Rod-inclusion conductivity tools")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--threads", type=int, default=None,
                   help="cap BLAS thread count for reproducible runs")
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
        with _thread_limit(args.threads):
            return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, IdentifiabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
