"""Command-line front end.

Subcommands: fieldmap, compare, validate, invert, forward, asymptotic.
Outputs are CSV/JSON data files; plotting is left to external tools.
This module holds every data-file format: the numerical modules return
arrays and open no files.
Exit codes: 0 success, 1 validation/convergence failure, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np
import orjson

from .background import HarmonicBackground
from .config import ConfigError, RunConfig, load_config
from .geometry import ValidationError, to_world
from .inverse import (RESIDUAL_TOL, IdentifiabilityError, SensorSet, fit_rod,
                      sensor_circle, simulate_measurements)
from .potentials import SolverError
from .solver import MODELS, perturbation, refuse_non_finite
from .validate import run_validation

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: Rows formatted at a time by :func:`write_csv`: the cells it holds at
#: once are bounded by the block, not by the table.
CSV_BLOCK_ROWS = 256

#: Header of the CSV of forward and asymptotic; its first three make it a measurement file.
FIELD_HEADER = ["x1", "x2", "u", "ux", "uy", "near_boundary_flag"]


def write_csv(path: str, header, *columns) -> None:
    """Write equal-length numeric columns under ``header``.

    One header line, then one line per row, each ended by CRLF.  Floats
    are written in their shortest round-trip digits, repr's digits in
    orjson's spelling (``1e-7``, ``1e16``, ``0.000014``), integers as
    themselves and boolean flags as 0/1.  A column that is not bool, int
    or float, or a float cell that is not finite, is refused before the
    file is opened: orjson would quote a string and write NaN as null.
    """
    cols = [np.asarray(c) for c in columns]
    for name, c in zip(header, cols, strict=True):
        if c.dtype.kind not in "biuf":
            raise ValidationError(f"{path}: column {name} is {c.dtype}, not bool, int or float")
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            raise ValidationError(f"{path}: column {name} holds a value that is not finite")
    cols = [c.view(np.uint8) if c.dtype == bool else c for c in cols]
    with open(path, "wb") as f:
        f.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            rows = list(zip(*(c[start:start + CSV_BLOCK_ROWS].tolist() for c in cols)))
            # [[a,b],[c,d]] -> a,b CRLF c,d
            f.write(orjson.dumps(rows)[2:-2].replace(b"],[", b"\r\n") + b"\r\n")


def load_measurements_csv(path: str, bg: HarmonicBackground,
                          noise_rms: float = 0.0) -> SensorSet:
    """The sensors of a CSV with header x1,x2,u (further columns ignored); a
    byte-order mark and blank lines, which editors and spreadsheets add, are passed over."""
    pts, vals = [], []
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != FIELD_HEADER[:3]:
            raise ValidationError(f"{path}: expected header {','.join(FIELD_HEADER[:3])}")
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                x1, x2, u = map(float, row[:3])
            except ValueError as exc:
                raise ValidationError(f"{path}:{ln}: bad row {row!r}") from exc
            # NaN passes every later check and ends in an SVD failure in the fit
            if not np.isfinite((x1, x2, u)).all():
                raise ValidationError(f"{path}:{ln}: non-finite value in row {row!r}")
            pts.append([x1, x2])
            vals.append(u)
    if not pts:
        raise ValidationError(f"{path}: no data rows")
    return SensorSet(points=np.asarray(pts), values=np.asarray(vals), background=bg,
                     noise_rms=noise_rms)


def _grid_or_error(cfg: RunConfig) -> np.ndarray:
    """The points (m, 2) of the config's grid."""
    if cfg.grid is None:
        raise ConfigError("this command needs a 'grid' block")
    return cfg.grid.points()


def _field_columns(cfg: RunConfig, pts: np.ndarray, s, gs, near) -> tuple:
    """The columns under FIELD_HEADER after x1, x2: u = H + s, grad u and
    the near flag."""
    u, g = cfg.background.value(pts) + s, cfg.background.grad(pts) + gs
    refuse_non_finite("u", pts, u, g)
    return u, g[:, 0], g[:, 1], near


def _refuse_clashes(args) -> None:
    """Refuse an output path that names the file of an input or of another
    output, which would leave one file where two were meant.  Run before
    any file is opened; ``--data`` is an output under ``--synthesize``."""
    seen = {}
    for name in ("config", "data", "out", "density"):
        path = getattr(args, name, None)
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen and (name != "data" or args.synthesize):
            raise ConfigError(f"--{name} and --{seen[real]} name the same file {path!r}")
        seen.setdefault(real, name)


def _open_outputs(*paths: str | None) -> None:
    """Open every output path of a command before any is written, so that
    a command refused on one unwritable path writes none of them.  Each
    opens for append, which leaves a file already there as it was; a file
    made here is removed again when a later path fails."""
    made = []
    try:
        for path in filter(None, paths):
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise


def cmd_fieldmap(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    s, gs, near, sol = perturbation(cfg.rod, cfg.background, pts, args.model,
                                    cfg.n_cap, cfg.n_facade)
    dgrad = np.linalg.norm(gs, axis=1)
    refuse_non_finite("|grad(u - H)|", pts, dgrad)
    write_csv(args.out, ["x1", "x2", "du", "dgrad", "near_flag"],
              *pts.T, np.abs(s), dgrad, near)
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
            "mesh": sol.mesh.rule,
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
              f"n={r['mesh_nodes']}  mesh={r['mesh']}  {r['wall_seconds']:.2f}s")
    return EXIT_OK


def cmd_validate(args) -> int:
    checks = run_validation()
    for c in checks:
        print(c.line())
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
    else:
        if args.data is None:
            raise ConfigError("invert: provide a data CSV with --data or use --synthesize")
        try:
            data = load_measurements_csv(args.data, cfg.background,
                                         noise_rms=args.noise)
        except FileNotFoundError as exc:
            raise ConfigError(f"invert: data file not found: {args.data}\n"
                              "hint: pass --synthesize to generate it first") from exc

    result = fit_rod(data)
    # strict JSON: a non-finite value raises before any file is opened
    text = json.dumps(result.to_dict(), indent=2, allow_nan=False)
    data_out = args.data if args.synthesize else None
    _open_outputs(data_out, args.out)
    if data_out:
        write_csv(data_out, FIELD_HEADER[:3], *data.points.T, data.values)
    with open(args.out, "w") as f:
        f.write(text + "\n")
    print(text)
    return EXIT_OK if result.converged else EXIT_FAILURE


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    s, gs, near, sol = perturbation(cfg.rod, cfg.background, pts, "bem",
                                    cfg.n_cap, cfg.n_facade)
    field = _field_columns(cfg, pts, s, gs, near)
    _open_outputs(args.out, args.density)
    write_csv(args.out, FIELD_HEADER, *pts.T, *field)
    if args.density:
        write_csv(args.density, ["index", "x1", "x2", "phi"], np.arange(len(sol.mesh)),
                  *to_world(cfg.rod, sol.mesh.points).T, sol.phi.values)
    print(f"forward: wrote {len(pts)} rows to {args.out}  n={len(sol.mesh)}  "
          f"mesh={sol.mesh.rule}  "
          f"residual={sol.phi.residual:.2e}  blocks={sol.phi.factored_blocks}  "
          f"near={np.count_nonzero(near)}")
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    cfg = load_config(args.config)
    pts = _grid_or_error(cfg)
    s, gs, near, _ = perturbation(cfg.rod, cfg.background, pts, "asymptotic")
    write_csv(args.out, FIELD_HEADER, *pts.T, *_field_columns(cfg, pts, s, gs, near))
    print(f"asymptotic: wrote {len(pts)} rows to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process however often main runs."""
    p = argparse.ArgumentParser(prog="rodfield",
                                description="Rod-inclusion conductivity tools")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = p.add_subparsers(dest="command", required=True)

    fm = sub.add_parser("fieldmap", help="perturbed field magnitudes on a grid")
    fm.add_argument("--config", required=True)
    fm.add_argument("--model", choices=MODELS, default="bem")
    fm.add_argument("--out", default="fieldmap.csv")

    cp = sub.add_parser("compare", help="BEM vs asymptotic error sweep over delta")
    cp.add_argument("--config", required=True)
    cp.add_argument("--out", default="compare.json")

    sub.add_parser("validate", help="run the built-in cross-check suite")

    iv = sub.add_parser("invert", help="fit rod parameters to boundary data")
    iv.add_argument("--config", required=True)
    iv.add_argument("--data", default=None, help="measurement CSV (x1,x2,u)")
    iv.add_argument("--synthesize", action="store_true",
                    help="generate the data from the configured rod first")
    iv.add_argument("--noise", type=float, default=0.0,
                    help="noise RMS: added to synthesized data, and stated for "
                         "loaded data; the fit converges only to a residual "
                         f"within twice it or {RESIDUAL_TOL:g} of the signal")
    iv.add_argument("--model", choices=MODELS, default="bem")
    iv.add_argument("--out", default="fit.json")

    fw = sub.add_parser("forward", help="full boundary-integral field on a grid")
    fw.add_argument("--config", required=True)
    fw.add_argument("--out", default="forward.csv")
    fw.add_argument("--density", default=None, help="also dump the density CSV")

    asy = sub.add_parser("asymptotic", help="closed-form field on a grid")
    asy.add_argument("--config", required=True)
    asy.add_argument("--out", default="asymptotic.csv")

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed usage (exit 2) or --help (exit 0): a caller
        # in process gets the code, as from any other error
        return exc.code
    try:
        _refuse_clashes(args)
        # every non-finite value is refused with its own error line; numpy's
        # overflow and invalid-value warnings would only print before it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # looked up per call, so that a rebound cmd_* (a tracer's span) runs
            return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ValidationError, OSError) as exc:
        # OSError: a missing or unreadable input file, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, IdentifiabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
