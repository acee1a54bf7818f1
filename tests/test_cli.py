"""End-to-end checks of the command-line front end."""

import argparse
import ast
import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

import rodfield
from rodfield import cli, solver
from rodfield import (AsymptoticModel, HarmonicBackground, RodSpec, ValidationError, build_mesh,
                      potentials, sensor_circle, simulate_measurements, single_layer_field,
                      solve_forward)
from rodfield.asymptotics import asymptotic_perturbation
from rodfield.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from rodfield.config import load_config
from rodfield.geometry import default_counts, rotation_matrix, to_local
from rodfield.solver import perturbation


CONFIG = """\
rod:
  L: 2.0
  delta: 0.05
  center: [0.0, 0.0]
  angle: 0.0
  sigma0: 2.0
background:
  a: [1.0, 0.5]
grid:
  xmin: -3.0
  xmax: 3.0
  ymin: -3.0
  ymax: 3.0
  nx: 5
  ny: 5
sensors:
  center: [0.0, 0.0]
  radius: 3.0
  count: 32
solver:
  n_cap: 16
  n_facade: 48
sweep:
  deltas: [0.1, 0.05]
  probe_radius: 3.0
  probe_count: 16
  probe_offset: [0.0, 1.0]
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG)
    return str(path)


def _read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def _near_count(summary):
    return int(summary.split("near=")[1].split()[0])


def test_fieldmap_bem(config_path, tmp_path, capsys):
    out = tmp_path / "fieldmap.csv"
    code = main(["fieldmap", "--config", config_path, "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert rows[0] == ["x1", "x2", "du", "dgrad", "near_flag"]
    assert len(rows) == 26
    summary = capsys.readouterr().out
    assert _near_count(summary) == sum(int(r[4]) for r in rows[1:])
    assert "  n=128  " in summary   # 2 * (n_cap + n_facade)


def test_fieldmap_bem_on_a_101_by_101_grid(tmp_path, capsys):
    # the benchmark's fieldmap grid: 105 of its points lie within half of a
    # node's panel, so that a change to the near rule shows
    path, out = tmp_path / "fieldmap.yaml", tmp_path / "fieldmap.csv"
    path.write_text("rod: {L: 2.0, delta: 0.01, center: [0.0, 0.0], angle: 0.0, sigma0: 2.0}\n"
                    "background: {a: [1.0, 0.5]}\n"
                    "grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 101, ny: 101}\n")
    assert main(["fieldmap", "--config", str(path), "--model", "bem",
                 "--out", str(out)]) == EXIT_OK
    cells = np.array(_read_csv(out)[1:], dtype=float)
    assert cells.shape == (10201, 5) and np.isfinite(cells).all()
    assert _near_count(capsys.readouterr().out) == 105 == cells[:, 4].sum()


def test_fieldmap_asymptotic_matches_repeat(config_path, tmp_path):
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    for out in (out1, out2):
        code = main(["fieldmap", "--config", config_path,
                     "--model", "asymptotic", "--out", str(out)])
        assert code == EXIT_OK
    assert out1.read_text() == out2.read_text()


FIELDMAP_CONFIGS = {
    "bem": """\
rod: {L: 2.0, delta: 0.01, center: [0.0, 0.0], angle: 0.0, sigma0: 2.0}
background: {a: [1.0, 0.5]}
grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 101, ny: 101}
""",
    "asymptotic": """\
rod: {L: 2.0, delta: 0.01, center: [0.1, -0.1], angle: 0.3, sigma0: 2.0}
background: {coefficients: [0.0, 1.0, 0.5, 0.3, 0.2]}
grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 41, ny: 41}
""",
}


@pytest.mark.parametrize("model", ["bem", "asymptotic"])
def test_grid_commands_write_the_perturbation(model, tmp_path):
    # fieldmap writes |s| and |grad s| of the perturbation s = u - H itself:
    # |u - H| loses digits where s is small against H (up to 7.6e-11
    # relative on the bem grid).  forward and asymptotic write H + s.
    path = tmp_path / "fm.yaml"
    path.write_text(FIELDMAP_CONFIGS[model])
    cfg = load_config(str(path))
    pts = cfg.grid.points()
    if model == "bem":
        sol = solve_forward(cfg.rod, cfg.background, n_cap=cfg.n_cap,
                            n_facade=cfg.n_facade)
        s, gs, _ = single_layer_field(sol.phi, pts)
    else:
        s, gs = asymptotic_perturbation(
            AsymptoticModel.from_spec(cfg.rod, cfg.background), to_local(cfg.rod, pts))
        gs = gs @ rotation_matrix(cfg.rod.angle).T
    fmap, field, dens = (tmp_path / f"{n}.csv" for n in ("fm", "field", "dens"))
    assert main(["fieldmap", "--config", str(path), "--model", model,
                 "--out", str(fmap)]) == EXIT_OK
    rows = np.array(_read_csv(fmap)[1:], dtype=float)
    assert np.array_equal(rows[:, 2], np.abs(s))
    assert np.array_equal(rows[:, 3], np.linalg.norm(gs, axis=1))
    argv = ["forward", "--density", str(dens)] if model == "bem" else ["asymptotic"]
    assert main([*argv, "--config", str(path), "--out", str(field)]) == EXIT_OK
    lines = _read_csv(field)
    assert lines[0] == ["x1", "x2", "u", "ux", "uy", "near_boundary_flag"]
    u = np.array(lines[1:], dtype=float)
    assert np.array_equal(u[:, 2], cfg.background.value(pts) + s)
    assert np.array_equal(u[:, 3:5], cfg.background.grad(pts) + gs)
    assert np.array_equal(u[:, 5], rows[:, 4])
    if model == "bem":
        lines = _read_csv(dens)
        assert lines[0] == ["index", "x1", "x2", "phi"]
        assert np.array_equal(np.array(lines[1:], dtype=float), np.column_stack(
            [np.arange(len(sol.mesh)), sol.mesh.points, sol.phi.values]))


def test_forward_with_density(config_path, tmp_path, capsys):
    out = tmp_path / "forward.csv"
    dens = tmp_path / "density.csv"
    code = main(["forward", "--config", config_path, "--out", str(out),
                 "--density", str(dens)])
    assert code == EXIT_OK
    assert _read_csv(out)[0][:2] == ["x1", "x2"]
    assert len(_read_csv(dens)) > 1
    summary = capsys.readouterr().out
    assert "n=128" in summary
    assert float(summary.split("residual=")[1].split()[0]) < 1e-10
    # a linear background excites two of the four parity blocks
    assert "blocks=2" in summary
    assert _near_count(summary) == sum(int(r[5]) for r in _read_csv(out)[1:])


def test_asymptotic_command(config_path, tmp_path):
    out = tmp_path / "asym.csv"
    code = main(["asymptotic", "--config", config_path, "--out", str(out)])
    assert code == EXIT_OK
    assert len(_read_csv(out)) == 26


def test_asymptotic_gradient_on_quadratic_background(tmp_path):
    # the `asymptotic` command writes the exact gradient, the one that
    # `fieldmap --model asymptotic` reduces to |grad u - grad H|
    coeffs = [0.0, 1.0, 0.5, 0.3, 0.2]
    path = tmp_path / "quad.yaml"
    path.write_text(CONFIG.replace("  a: [1.0, 0.5]", f"  coefficients: {coeffs}"))
    asym, fmap = tmp_path / "asym.csv", tmp_path / "fieldmap.csv"
    assert main(["asymptotic", "--config", str(path), "--out", str(asym)]) == EXIT_OK
    assert main(["fieldmap", "--config", str(path), "--model", "asymptotic",
                 "--out", str(fmap)]) == EXIT_OK
    rows = np.array(_read_csv(asym)[1:], dtype=float)
    x1, x2, grad = rows[:, 0], rows[:, 1], rows[:, 3:5]
    assert (grad != 0.0).any(axis=0).all()
    _, c1, c2, c3, c4 = coeffs
    grad_h = np.stack([c1 + 2 * c3 * x1 + c4 * x2, c2 - 2 * c3 * x2 + c4 * x1], axis=1)
    dgrad = np.array(_read_csv(fmap)[1:], dtype=float)[:, 3]
    assert np.abs(np.linalg.norm(grad - grad_h, axis=1) - dgrad).max() < 1e-10


def test_asymptotic_refuses_n_quad(tmp_path, capsys):
    # solver.n_quad set the order of a quadrature the closed form no longer
    # has; it was read and ignored, and is refused now like any unknown key
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("  n_facade: 48\n", "  n_facade: 48\n  n_quad: 48\n"))
    assert "n_quad: 48" in path.read_text()
    code = main(["asymptotic", "--config", str(path),
                 "--out", str(tmp_path / "asym.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: unknown keys in 'solver'")


def test_compare_report(config_path, tmp_path):
    out = tmp_path / "compare.json"
    code = main(["compare", "--config", config_path, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["probe_center"] == [0.0, 1.0]
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert set(row) == {"delta", "max_error", "error_over_delta",
                            "mesh_nodes", "mesh", "solve_residual", "factored_blocks",
                            "wall_seconds"}
        assert row["mesh"] == "uniform"   # the config's solver block gives counts
        assert row["max_error"] > 0
        assert 0.0 <= row["solve_residual"] < 1e-10
        assert row["factored_blocks"] == 2


def test_compare_rows_are_the_perturbation_difference(config_path, tmp_path):
    # E is max |s_bem - s_asym| of the one forward-model route, bit for bit
    out = tmp_path / "compare.json"
    assert main(["compare", "--config", config_path, "--out", str(out)]) == EXIT_OK
    cfg = load_config(config_path)
    probe = sensor_circle(cfg.probe_center, cfg.sweep_probe_radius,
                          cfg.sweep_probe_count)
    rows = json.loads(out.read_text())["rows"]
    assert [r["delta"] for r in rows] == list(cfg.sweep_deltas)
    for row in rows:
        rod = dataclasses.replace(cfg.rod, delta=row["delta"])
        s_bem = perturbation(rod, cfg.background, probe, "bem", cfg.n_cap,
                             cfg.n_facade)[0]
        s_asym = perturbation(rod, cfg.background, probe, "asymptotic")[0]
        assert row["max_error"] == float(np.abs(s_bem - s_asym).max())
        assert row["error_over_delta"] == row["max_error"] / row["delta"]


DISC_CONFIG = """\
rod: {L: 0.0, delta: 0.5, center: [0.0, 0.0], angle: 0.0, sigma0: 3.0}
background: {a: [1.0, 0.5]}
grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 4, ny: 4}
sensors: {center: [0.0, 0.0], radius: 3.0, count: 32}
sweep: {deltas: [0.5, 0.25], probe_radius: 3.0, probe_count: 16}
"""


@pytest.mark.parametrize("argv", [
    ["asymptotic"],
    ["fieldmap", "--model", "asymptotic"],
    ["invert", "--synthesize", "--model", "asymptotic"],
    ["compare"],
], ids=["asymptotic", "fieldmap", "invert", "compare"])
def test_closed_form_refuses_a_disc(argv, tmp_path, capsys):
    # the rod closed form is exactly 0 on a disc, whose BEM perturbation on
    # this grid is 0.006 to 0.094: asymptotic and fieldmap wrote du = 0.0
    # with exit 0, and invert synthesized data equal to H
    path = tmp_path / "disc.yaml"
    path.write_text(DISC_CONFIG)
    out = tmp_path / "out"
    code = main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: L = 0 (disc) has no rod asymptotic model\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma0", ["1.0e+17", "1.0e+300", "1.0e-17", "1.0e-300"])
def test_closed_form_refuses_a_contrast_where_lam_rounds_to_one_half(sigma0, tmp_path, capsys):
    # lam rounds to +-1/2, so a closed-form strength delta / (lam -+ 1/2)
    # divided by zero: every closed-form command ended in a
    # ZeroDivisionError traceback.  The BEM handles both limits
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("sigma0: 2.0", f"sigma0: {sigma0}"))
    out = tmp_path / "out"
    for argv in (["asymptotic"], ["fieldmap", "--model", "asymptotic"], ["compare"],
                 ["invert", "--synthesize", "--model", "asymptotic"]):
        code = main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"error: sigma0={float(sigma0)!r}: ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]
    assert main(["forward", "--config", str(path), "--out", str(out)]) == EXIT_OK


def test_a_contrast_of_one_has_one_message(tmp_path, capsys):
    # RodSpec said "sigma0 = 1 gives no contrast with the background" and
    # lambda_of_sigma "sigma0 = 1: no contrast, no inclusion"; RodSpec now
    # takes the refusal from lambda_of_sigma
    with pytest.raises(ValidationError) as spec_err:
        RodSpec(L=2.0, delta=0.05, sigma0=1.0)
    with pytest.raises(ValidationError) as lam_err:
        rodfield.lambda_of_sigma(1.0)
    assert str(spec_err.value) == str(lam_err.value)
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("sigma0: 2.0", "sigma0: 1.0"))
    assert main(["forward", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: rod: {lam_err.value}\n"


def test_compare_requires_sweep(tmp_path):
    path = tmp_path / "nosweep.yaml"
    path.write_text("rod:\n  L: 2.0\n  delta: 0.05\nbackground:\n  a: [1, 0]\n")
    code = main(["compare", "--config", str(path), "--out",
                 str(tmp_path / "x.json")])
    assert code == EXIT_USAGE


def test_invert_synthesize_round_trip(config_path, tmp_path, capsys):
    out = tmp_path / "fit.json"
    data = tmp_path / "meas.csv"
    code = main(["invert", "--config", config_path, "--synthesize",
                 "--model", "asymptotic", "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_OK
    fit = json.loads(out.read_text())
    assert fit["converged"] is True
    assert abs(fit["length"] - 2.0) < 1e-6
    # the synthesized measurements were written and can be reused
    code = main(["invert", "--config", config_path, "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_OK


def test_invert_data_needs_no_sensors_block(config_path, tmp_path, capsys):
    # the block is read only to synthesize, but a fit of loaded data refused
    # a config without one
    data, fit = tmp_path / "meas.csv", tmp_path / "fit.json"
    assert main(["invert", "--config", config_path, "--synthesize", "--model", "asymptotic",
                 "--data", str(data), "--out", str(fit)]) == EXIT_OK
    sensors = "sensors:\n  center: [0.0, 0.0]\n  radius: 3.0\n  count: 32\n"
    assert CONFIG.count(sensors) == 1
    path = tmp_path / "no_sensors.yaml"
    path.write_text(CONFIG.replace(sensors, ""))
    refit = tmp_path / "refit.json"
    assert main(["invert", "--config", str(path), "--data", str(data),
                 "--out", str(refit)]) == EXIT_OK
    assert refit.read_bytes() == fit.read_bytes()
    capsys.readouterr()
    assert main(["invert", "--config", str(path), "--synthesize", "--model", "asymptotic",
                 "--data", str(tmp_path / "new.csv"), "--out", str(refit)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: invert needs a 'sensors' block\n"


def test_invert_two_rod_data_exits_1(tmp_path):
    # the data holds two rods' perturbations, which no single rod explains
    path = tmp_path / "two.yaml"
    path.write_text(CONFIG.replace("a: [1.0, 0.5]", "a: [1.0, 1.0]")
                    .replace("count: 32", "count: 64"))
    cfg = load_config(str(path))
    pts = sensor_circle((0.0, 0.0), 3.0, 64)
    u = cfg.background.value(pts)
    for center, angle in (((-0.8, 0.3), 0.2), ((0.7, -0.4), 1.9)):
        rod = RodSpec(L=1.0, delta=0.05, center=center, angle=angle, sigma0=2.0)
        u = u + asymptotic_perturbation(
            AsymptoticModel.from_spec(rod, cfg.background), to_local(rod, pts))[0]
    data = tmp_path / "two.csv"
    np.savetxt(data, np.column_stack([pts, u]), delimiter=",",
               header="x1,x2,u", comments="", fmt="%.17g")
    out = tmp_path / "fit.json"
    code = main(["invert", "--config", str(path), "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_FAILURE
    fit = json.loads(out.read_text())
    assert fit["converged"] is False
    assert fit["residual_rel"] > 1e-3


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_invert_data_without_perturbation_exits_1(tmp_path, capsys):
    # values equal to H: a zero residual there is no fit, and no relative
    # residual either; fit.json had "residual_rel": Infinity, which strict
    # JSON parsers refuse
    path = tmp_path / "flat.yaml"
    path.write_text(CONFIG.replace("a: [1.0, 0.5]", "a: [1.0, 1.0]"))
    pts = sensor_circle((0.0, 0.0), 3.0, 64)
    data = tmp_path / "flat.csv"
    np.savetxt(data, np.column_stack([pts, pts.sum(axis=1)]), delimiter=",",
               header="x1,x2,u", comments="", fmt="%.17g")
    out = tmp_path / "fit.json"
    code = main(["invert", "--config", str(path), "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_FAILURE
    fit = _strict_json(out.read_text())
    assert fit["converged"] is False
    assert fit["residual_rel"] is None
    assert fit["strength_stderr"] is None and fit["strength_transverse_stderr"] is None
    assert _strict_json(capsys.readouterr().out) == fit


@pytest.mark.parametrize("model", ["asymptotic", "bem"])
def test_invert_synthesize_on_quadratic_background_exits_1(model, tmp_path, capsys):
    path = tmp_path / "quad.yaml"
    path.write_text(CONFIG.replace("  a: [1.0, 0.5]",
                                   "  coefficients: [0.0, 1.0, 0.5, 0.3, 0.2]"))
    code = main(["invert", "--config", str(path), "--synthesize",
                 "--model", model, "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == "error: fit requires a nontrivial linear background\n"


def test_invert_noise_is_stated_for_loaded_data(config_path, tmp_path):
    data = tmp_path / "noisy.csv"
    out = str(tmp_path / "fit.json")
    assert main(["--seed", "3", "invert", "--config", config_path, "--synthesize",
                 "--model", "asymptotic", "--noise", "1e-3", "--data", str(data),
                 "--out", out]) == EXIT_OK
    # without the noise level, a residual at the noise is not a fit
    assert main(["invert", "--config", config_path, "--data", str(data),
                 "--out", out]) == EXIT_FAILURE
    assert main(["invert", "--config", config_path, "--data", str(data),
                 "--noise", "1e-3", "--out", out]) == EXIT_OK


@pytest.mark.parametrize("n, spacing", [(3, 2.0), (5, 1.0)])
def test_invert_grid_data_with_a_sensor_on_the_centroid(config_path, tmp_path, n, spacing):
    # the far-field series has no finite terms at the centroid, and the
    # moment start leaves that sensor out instead of failing in lstsq
    g = spacing * (np.arange(n) - (n - 1) / 2.0)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    rod = RodSpec(L=0.6, delta=0.02, center=(0.5, 0.4), angle=0.3, sigma0=10.0)
    data = simulate_measurements(rod, load_config(config_path).background, pts,
                                 source="asymptotic")
    path, out = tmp_path / "grid.csv", tmp_path / "fit.json"
    np.savetxt(path, np.column_stack([pts, data.values]), delimiter=",",
               header="x1,x2,u", comments="")
    assert main(["invert", "--config", config_path, "--data", str(path),
                 "--out", str(out)]) == EXIT_OK
    fit = _strict_json(out.read_text())
    axis = 0.3 * np.array([np.cos(0.3), np.sin(0.3)])
    assert fit["converged"] is True
    assert np.abs(np.array(fit["endpoints"]) - [(0.5, 0.4) - axis,
                                                (0.5, 0.4) + axis]).max() <= 1e-10


def test_invert_noise_that_swamps_the_signal_is_not_converged(config_path, tmp_path):
    # the no-rod model s = 0 leaves the signal RMS as its residual, within
    # twice the noise: the fit said converged at L = 3.31 for L = 2
    out = tmp_path / "fit.json"
    assert main(["invert", "--config", config_path, "--synthesize", "--model",
                 "asymptotic", "--noise", "1e150", "--out", str(out)]) == EXIT_FAILURE
    fit = _strict_json(out.read_text())
    assert fit["converged"] is False and fit["lm_stop"] != "max_nfev"


def test_invert_header_only_data_exits_2(config_path, tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("x1,x2,u\n")
    code = main(["invert", "--config", config_path, "--data", str(data),
                 "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("column, cell", [(2, "nan"), (0, "inf")],
                         ids=["u-nan", "x1-inf"])
def test_invert_non_finite_data_exits_2(column, cell, config_path, tmp_path, capsys):
    # a nan or inf cell was read as a number, and the fit died in a
    # LinAlgError traceback ("SVD did not converge") with exit 1
    data = tmp_path / "meas.csv"
    out = str(tmp_path / "fit.json")
    assert main(["invert", "--config", config_path, "--synthesize", "--model",
                 "asymptotic", "--data", str(data), "--out", out]) == EXIT_OK
    lines = data.read_text().splitlines()
    row = lines[5].split(",")
    row[column] = cell
    lines[5] = ",".join(row)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["invert", "--config", config_path, "--data", str(data), "--out", out])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {data}:6: ")


@pytest.mark.parametrize("edit", [lambda b: b + b"\r\n", lambda b: b"\xef\xbb\xbf" + b,
                                  lambda b: b.replace(b"\r\n", b"\r\n\r\n", 3)],
                         ids=["trailing-crlf", "byte-order-mark", "blank-lines"])
def test_invert_reads_data_with_a_bom_or_blank_lines(edit, config_path, tmp_path):
    # the file invert --synthesize wrote was refused as "bad row []" with one
    # more CRLF, and as "expected header x1,x2,u" behind a byte-order mark
    data, out = tmp_path / "meas.csv", tmp_path / "fit.json"
    assert main(["invert", "--config", config_path, "--synthesize", "--model",
                 "asymptotic", "--data", str(data), "--out", str(out)]) == EXIT_OK
    fit = out.read_text()
    data.write_bytes(edit(data.read_bytes()))
    assert main(["invert", "--config", config_path, "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == fit


@pytest.mark.parametrize("row", ["1.0", "1.0,2.0", " "])
def test_invert_a_row_of_fewer_than_three_cells_exits_2(row, config_path, tmp_path, capsys):
    data = tmp_path / "meas.csv"
    data.write_text(f"x1,x2,u\n3.0,0.0,3.0\n{row}\n")
    code = main(["invert", "--config", config_path, "--data", str(data),
                 "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {data}:3: bad row ")


@pytest.mark.parametrize("command", ["forward", "asymptotic"])
def test_a_field_csv_is_a_measurement_file(command, config_path, tmp_path):
    # its header starts with the measurement header, which has one definition
    out = tmp_path / "field.csv"
    assert main([command, "--config", config_path, "--out", str(out)]) == EXIT_OK
    cells = np.array(_read_csv(out)[1:], dtype=float)
    data = cli.load_measurements_csv(str(out), load_config(config_path).background)
    np.testing.assert_array_equal(data.points, cells[:, :2])
    np.testing.assert_array_equal(data.values, cells[:, 2])


def test_model_choices_are_the_solvers_models():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name in ("fieldmap", "invert"):
        model = next(a for a in commands[name]._actions if a.dest == "model")
        assert model.choices is solver.MODELS


def test_invert_three_sensors_exits_1(config_path, tmp_path, capsys):
    # three values cannot fix the fit's six parameters
    pts = sensor_circle((0.0, 0.0), 3.0, 3)
    data = tmp_path / "three.csv"
    np.savetxt(data, np.column_stack([pts, pts @ [1.0, 0.5] + 0.01]), delimiter=",",
               header="x1,x2,u", comments="", fmt="%.17g")
    code = main(["invert", "--config", config_path, "--data", str(data),
                 "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: ")


def test_invert_missing_data_hint(config_path, tmp_path, capsys):
    code = main(["invert", "--config", config_path,
                 "--data", str(tmp_path / "absent.csv")])
    assert code == EXIT_USAGE
    assert "--synthesize" in capsys.readouterr().err


def test_invert_without_data_exits_2(config_path, capsys):
    code = main(["invert", "--config", config_path])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: invert: provide a data CSV")


@pytest.mark.parametrize("line, bad", [
    ("  center: [0.0, 0.0]\n  angle", "  center: {0: 1.0, 1: 2.0}\n  angle"),
    ("  center: [0.0, 0.0]\n  angle", "  center: {a: 1, b: 2}\n  angle"),
    ("  a: [1.0, 0.5]", "  a: {0: 1.0, 1: 0.5}"),
    ("  a: [1.0, 0.5]", '  coefficients: "01000"'),
    ("  center: [0.0, 0.0]\n  radius", "  center: {0: 0.0, 1: 0.0}\n  radius"),
    ("  deltas: [0.1, 0.05]", '  deltas: "12"'),
    ("  probe_offset: [0.0, 1.0]", "  probe_offset: {0: 0.0, 1: 1.0}"),
], ids=["rod-center-indexed", "rod-center-named", "a-indexed", "coefficients-string",
        "sensors-center-indexed", "deltas-string", "probe_offset-indexed"])
def test_list_key_refuses_a_string_or_mapping(line, bad, tmp_path, capsys):
    # each was read entry by entry ("01000" as (0, 1, 0, 0, 0)), or failed
    # as "rod block missing 0"
    assert CONFIG.count(line) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(CONFIG.replace(line, bad))
    out = tmp_path / "out.csv"
    assert main(["asymptotic", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    key = bad.split(":")[0].strip()
    assert err.startswith("error: ") and f": {key} must have a YAML list of values" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fieldmap", "compare", "invert", "forward", "asymptotic"])
def test_missing_config_exits_2(command, tmp_path, capsys):
    # died in a FileNotFoundError traceback with exit 1
    missing = str(tmp_path / "absent.yaml")
    assert main([command, "--config", missing]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


@pytest.mark.parametrize("argv", [
    ["fieldmap"], ["fieldmap", "--model", "asymptotic"], ["compare"],
    ["invert", "--synthesize", "--model", "asymptotic"], ["forward"], ["asymptotic"]])
def test_unwritable_out_exits_2(argv, config_path, tmp_path, capsys):
    # died in a FileNotFoundError traceback with exit 1
    out = str(tmp_path / "absent_dir" / "out.csv")
    assert main([argv[0], "--config", config_path, "--out", out, *argv[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err


def test_unwritable_density_leaves_out_unwritten(config_path, tmp_path, capsys):
    # forward wrote the grid CSV before it opened the density file
    out = tmp_path / "out.csv"
    dens = str(tmp_path / "absent_dir" / "d.csv")
    code = main(["forward", "--config", config_path, "--out", str(out), "--density", dens])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unwritable_fit_leaves_data_unwritten(config_path, tmp_path, capsys):
    # invert --synthesize wrote the measurement CSV before it opened fit.json
    data = tmp_path / "m.csv"
    out = str(tmp_path / "absent_dir" / "fit.json")
    code = main(["invert", "--config", config_path, "--synthesize", "--model", "asymptotic",
                 "--data", str(data), "--out", out])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not data.exists()


@pytest.mark.parametrize("argv, options", [
    (["forward", "--out", "{x}", "--density", "{dir}/./x"], ("--density", "--out")),
    (["forward", "--out", "{config}"], ("--out", "--config")),
    (["invert", "--synthesize", "--model", "asymptotic", "--data", "{x}", "--out", "{x}"],
     ("--out", "--data")),
    (["invert", "--data", "{data}", "--out", "{data}"], ("--out", "--data")),
], ids=["forward-out-density", "forward-out-config", "invert-synthesize", "invert-data"])
def test_an_output_that_names_an_input_or_another_output_is_refused(argv, options, config_path,
                                                                    tmp_path, capsys):
    # each exited 0 and left one file where two were meant: the config or
    # the data overwritten, or the density or fit.json alone in x
    data = tmp_path / "data.csv"
    data.write_text("x1,x2,u\n3.0,0.0,3.0\n0.0,3.0,1.5\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    paths = dict(x=str(tmp_path / "x"), dir=str(tmp_path), config=config_path, data=str(data))
    argv = [argv[0], "--config", config_path, *(a.format(**paths) for a in argv[1:])]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert all(option in err for option in options)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("rod:\n  L: 2.0\n  delta: -1.0\nbackground:\n  a: [1, 0]\n")
    code = main(["fieldmap", "--config", str(path)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("old, new", [
    ("  ny: 5\n", ""),
    ("  radius: 3.0\n", ""),
    ("  n_cap: 16", "  n_cap: abc"),
    ("a: [1.0, 0.5]", "a: [1.0]"),
    ("a: [1.0, 0.5]", "a: [1.0, 0.5, 7.0]"),
    ("deltas: [0.1, 0.05]", "deltas: 0.1"),
    # sorted() could not order the unknown keys 1 and x
    ("  L: 2.0\n", "  L: 2.0\n  1: 2\n  x: 3\n"),
])
def test_malformed_config_exits_2(old, new, tmp_path, capsys):
    # each of these ended in a traceback, or (a 3-vector a) was read silently
    assert CONFIG.count(old) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(CONFIG.replace(old, new))
    code = main(["compare", "--config", str(path), "--out", str(tmp_path / "c.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("old, new, block", [
    # RodSpec did not check the angle, and the rotation failed in an SVD
    ("angle: 0.0", "angle: .nan", "rod"),
    # int() read 2.7 as 2 and the run went on
    ("nx: 5", "nx: 2.7", "grid"),
    ("ny: 5", "ny: 5.5", "grid"),
    ("count: 32", "count: 32.5", "sensors"),
    ("n_cap: 16", "n_cap: 16.5", "solver"),
    ("n_facade: 48", "n_facade: 47.9", "solver"),
    ("probe_count: 16", "probe_count: 16.5", "sweep"),
    # a numpy traceback
    ("probe_count: 16", "probe_count: 0", "sweep"),
    # YAML booleans, which float() read as 1: L = 1, one sensor, a = (1, 0.5)
    ("L: 2.0", "L: yes", "rod"),
    ("count: 32", "count: on", "sensors"),
    ("a: [1.0, 0.5]", "a: [true, 0.5]", "background"),
    # the probe circle was never checked against the rod.  Around (0, 1) it
    # must exceed sqrt(2) + 3 delta at the sweep's largest delta, 1.71: a
    # radius of 1.6 clears the rod of delta = 0.05 but not that of 0.1
    ("probe_radius: 3.0", "probe_radius: 0.5", "sweep"),
    ("probe_radius: 3.0", "probe_radius: 1.6", "sweep"),
    # non-finite values: NaN passed every range check and ran through to
    # NaN columns, invalid JSON or a LinAlgError
    pytest.param("  center: [0.0, 0.0]\n  angle", "  center: [.nan, 0]\n  angle",
                 "rod", id="rod-center-nan"),
    ("a: [1.0, 0.5]", "a: [.nan, 1]", "background"),
    ("a: [1.0, 0.5]", "coefficients: [0, 1, .inf, 0, 0]", "background"),
    ("xmin: -3.0", "xmin: .nan", "grid"),
    ("probe_radius: 3.0", "probe_radius: .nan", "sweep"),
    ("deltas: [0.1, 0.05]", "deltas: [.nan, 0.05]", "sweep"),
    pytest.param("  radius: 3.0\n", "  radius: .nan\n", "sensors",
                 id="sensors-radius-nan"),
    pytest.param("  center: [0.0, 0.0]\n  radius", "  center: [.nan, 0]\n  radius",
                 "sensors", id="sensors-center-nan"),
])
def test_bad_value_exits_2_naming_its_block(old, new, block, tmp_path, capsys):
    assert CONFIG.count(old) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(CONFIG.replace(old, new))
    code = main(["compare", "--config", str(path), "--out", str(tmp_path / "c.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {block}: ")


@pytest.mark.parametrize("seed, noise, message", [
    # a negative noise RMS was accepted as the fit's convergence floor
    pytest.param("0", "-0.1", "error: --noise: ", id="-0.1"),
    pytest.param("0", "nan", "error: --noise: ", id="nan"),
    pytest.param("0", "inf", "error: --noise: ", id="inf"),
    # default_rng refused the seed in a ValueError traceback
    pytest.param("-1", "1e-4", "error: --seed: ", id="seed-negative"),
    # the noise overflowed a synthesized value to inf, and the fit died in
    # a LinAlgError traceback ("SVD did not converge") with exit 1
    pytest.param("0", "1e308", "error: data: ", id="1e308"),
    # finite data whose squares overflowed: the RMS residual was inf, and
    # writing fit.json died in a ValueError traceback ("Out of range float
    # values are not JSON compliant: inf") with exit 1
    pytest.param("0", "1e200", "error: data: |u - H| reaches ", id="1e200"),
])
def test_bad_noise_exits_2(seed, noise, message, config_path, tmp_path, capsys):
    code = main(["--seed", seed, "invert", "--config", config_path, "--synthesize",
                 "--model", "asymptotic", "--noise", noise,
                 "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(message)


def test_missing_grid_exit_code(tmp_path):
    path = tmp_path / "nogrid.yaml"
    path.write_text("rod:\n  L: 2.0\n  delta: 0.05\nbackground:\n  a: [1, 0]\n")
    code = main(["fieldmap", "--config", str(path),
                 "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [["asymptotic"],
                                  ["fieldmap", "--model", "asymptotic"]])
def test_cap_centre_grid_point_exits_2(argv, tmp_path, capsys):
    # L = 2 at centre (0, 0): the 7x7 grid over [-3, 3]^2 holds the cap
    # centres (+-1, 0), where the closed form is singular
    path = tmp_path / "caps.yaml"
    path.write_text(CONFIG.replace("  nx: 5\n  ny: 5", "  nx: 7\n  ny: 7"))
    assert "nx: 7" in path.read_text()
    code = main([argv[0], "--config", str(path), *argv[1:],
                 "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


#: L = 2, delta = 0.1, a = (1, 0.5) on a 2 x 2 grid whose x1 passes 1e154,
#: where r^2 overflows
OVERFLOW_CONFIG = """\
rod: {L: 2.0, delta: 0.1, center: [0.0, 0.0], angle: 0.0, sigma0: 2.0}
background: {a: [1.0, 0.5]}
grid: {xmin: 1.0e+200, xmax: 1.0e+300, ymin: -3, ymax: 3, nx: 2, ny: 2}
"""

BEM_COMMANDS = [["forward"], ["fieldmap", "--model", "bem"]]
BEM_IDS = ["forward", "fieldmap-bem"]
CLOSED_FORM_COMMANDS = [["fieldmap", "--model", "asymptotic"], ["asymptotic"]]
CLOSED_FORM_IDS = ["fieldmap-asymptotic", "asymptotic"]

#: the rod centred at 1e300 under a 2 x 2 grid over [-3, 3]^2
ROD_AT_1E300_CONFIG = (OVERFLOW_CONFIG.replace("center: [0.0, 0.0]", "center: [1.0e+300, 0.0]")
                       .replace("1.0e+200, xmax: 1.0e+300", "-3, xmax: 3"))

#: OVERFLOW_CONFIG's grid taken out to x1 = 1e308 under a rod centred at
#: x1 = -1e308: the rod-frame x1 of its far column, 2e308, overflows
FAR_SIDE_CONFIG = (OVERFLOW_CONFIG.replace("center: [0.0, 0.0]", "center: [-1.0e+308, 0.0]")
                   .replace("xmax: 1.0e+300", "xmax: 1.0e+308"))

#: ROD_AT_1E300_CONFIG in the background x1 + 0.5 x2 + x1^2 - x2^2
QUADRATIC_ROD_AT_1E300_CONFIG = ROD_AT_1E300_CONFIG.replace(
    "a: [1.0, 0.5]", "coefficients: [0, 1, 0.5, 1.0, 0]")

#: ... and with x1^2 - x2^2 taken 1e308 times: the closed form's effective
#: field d1 H(Q) = 1 + 2e308 overflows
OVERFLOWING_FIELD_ROD_AT_1E300_CONFIG = QUADRATIC_ROD_AT_1E300_CONFIG.replace(
    "0.5, 1.0, 0]", "0.5, 1.0e+308, 0]")


def _run_grid_command(argv, config, tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(config)
    out = tmp_path / "out.csv"
    code = main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)])
    assert not out.exists()
    return code


@pytest.mark.parametrize("argv, config, where", [
    *((argv, OVERFLOW_CONFIG, "(1e+200, -3.0)") for argv in BEM_COMMANDS),
    # the closed form has no r^2 to overflow, but its rod-frame points do
    *((argv, FAR_SIDE_CONFIG, "(1e+308, -3.0)") for argv in CLOSED_FORM_COMMANDS)],
    ids=[*BEM_IDS, *CLOSED_FORM_IDS])
def test_overflowing_grid_exits_2(argv, config, where, tmp_path, capsys):
    # every grid command wrote nan cells and exited 0
    assert _run_grid_command(argv, config, tmp_path) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: u - H is not finite at {where}\n"


def test_overflowing_grid_above_the_expansion_threshold_exits_2(tmp_path, capsys):
    # on 64 x 64 points every point takes the far-field expansion, whose
    # Joukowski variable w stays finite where r^2 overflows: it wrote 4096
    # finite rows and exited 0
    config = OVERFLOW_CONFIG.replace("nx: 2, ny: 2", "nx: 64, ny: 64")
    spec = RodSpec(L=2.0, delta=0.1)
    assert 64 * 64 * len(build_mesh(spec, *default_counts(spec))) >= potentials.FAR_MIN_PAIRS
    assert _run_grid_command(["fieldmap", "--model", "bem"], config, tmp_path) == EXIT_USAGE
    assert capsys.readouterr().err == "error: u - H is not finite at (1e+200, -3.0)\n"


@pytest.mark.parametrize("argv, message", [
    # H = 1e300 (x1^2 - x2^2) overflows at x1 = 1e5, where s is still finite
    (["asymptotic"], "error: u is not finite at (100000.0, -3.0)\n"),
    # grad s is finite there, but its norm overflows
    (["fieldmap", "--model", "asymptotic"],
     "error: |grad(u - H)| is not finite at (10000.0, -3.0)\n"),
], ids=["asymptotic", "fieldmap"])
def test_overflowing_output_column_exits_2(argv, message, tmp_path, capsys):
    config = OVERFLOW_CONFIG.replace("a: [1.0, 0.5]", "coefficients: [0, 1, 0.5, 1.0e+300, 0]")
    config = config.replace("1.0e+200, xmax: 1.0e+300", "1.0e+4, xmax: 1.0e+5")
    assert _run_grid_command(argv, config, tmp_path) == EXIT_USAGE
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv, config, code, message", [
    # the BEM is solved in the rod frame, so its solve succeeds, and every
    # grid point is 1e300 from the rod, where r^2 overflows.  While the
    # mesh was placed, every rod-frame node collapsed onto 0 and the solve
    # died in a LinAlgError traceback ("SVD did not converge"), later
    # refused as non-finite entries, exit 1
    (["forward"], ROD_AT_1E300_CONFIG, EXIT_USAGE, "error: u - H is not finite at (-3.0, -3.0)"),
    (["fieldmap", "--model", "bem"], ROD_AT_1E300_CONFIG, EXIT_USAGE,
     "error: u - H is not finite at (-3.0, -3.0)"),
    # the closed form is finite at a rod 1e300 away (the test below) but
    # not where its effective field overflows
    (["asymptotic"], OVERFLOWING_FIELD_ROD_AT_1E300_CONFIG, EXIT_USAGE,
     "error: u - H is not finite at (-3.0, -3.0)"),
], ids=[*BEM_IDS, "asymptotic"])
def test_rod_centre_at_1e300_is_refused(argv, config, code, message, tmp_path, capsys):
    assert _run_grid_command(argv, config, tmp_path) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("config, bg", [
    (OVERFLOW_CONFIG, HarmonicBackground.linear((1.0, 0.5))),
    (ROD_AT_1E300_CONFIG, HarmonicBackground.linear((1.0, 0.5))),
    (QUADRATIC_ROD_AT_1E300_CONFIG, HarmonicBackground.polynomial((0.0, 1.0, 0.5, 1.0, 0.0)))],
    ids=["grid-at-1e200", "rod-at-1e300", "quadratic-rod-at-1e300"])
@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS[::-1], ids=CLOSED_FORM_IDS[::-1])
def test_closed_form_far_from_the_rod_is_the_background(argv, config, bg, tmp_path):
    # 1e200 to 1e300 from the rod s is at most about 0.13 L / r, far below
    # H's rounding, and grad s, about L / r^2, underflows to 0: u and grad u
    # are H's bit for bit.  1e200 from the rod du is 6.4e-202, right to 1e-14
    # of a 50-digit evaluation; 1e300 from it du is below 1e-300
    path, out = tmp_path / "run.yaml", tmp_path / "out.csv"
    path.write_text(config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)])
    assert code == EXIT_OK and not caught
    rows = np.array(_read_csv(out)[1:], dtype=float)
    assert len(rows) == 4
    if argv[0] == "fieldmap" and config is OVERFLOW_CONFIG:
        model = AsymptoticModel.from_spec(load_config(str(path)).rod, bg)
        with mp.workdps(50):   # the rod is at the origin, along x1
            b = mp.mpc(model.strength * bg.coeffs[1], model.strength_transverse * bg.coeffs[2])
            # log((z - 1)/(z + 1)), whose ratio is 1 to 200 digits there
            ref = [abs(float(mp.re(b / mp.pi * mp.log1p(-2 / (mp.mpc(x1, x2) + 1)))))
                   for x1, x2 in rows[:, :2]]
        assert (np.abs(rows[:, 2] - ref) <= 1e-14 * np.array(ref)).all()
        assert (rows[:, 3] == 0.0).all()
    elif argv[0] == "fieldmap":
        assert (rows[:, 2] <= 1e-300).all() and (rows[:, 3] == 0.0).all()
    else:
        xy = rows[:, :2]
        assert np.array_equal(rows[:, 2:5], np.column_stack([bg.value(xy), bg.grad(xy)]))


@pytest.mark.parametrize("argv", [["forward", "--density"], ["fieldmap", "--model", "bem"]],
                         ids=["forward", "fieldmap-bem"])
def test_a_background_that_overflows_at_the_rod_exits_2(argv, tmp_path, capsys):
    # H's gradient at the rod, 2e309 in x1, overflows, so the Neumann data
    # are infinite: the density solve's residual read nan, exit 1 with
    # "density solve residual nan exceeds 1.0e-10", on a well-conditioned
    # system.  The closed form already exited 2
    config = ROD_AT_1E300_CONFIG.replace("center: [1.0e+300, 0.0]", "center: [10.0, 0.0]")
    config = config.replace("a: [1.0, 0.5]", "coefficients: [0, 1, 0.5, 1.0e+308, 0]")
    if argv[0] == "forward":
        argv = [*argv, str(tmp_path / "density.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_grid_command(argv, config, tmp_path) == EXIT_USAGE
    assert not caught
    assert capsys.readouterr().err == ("error: background (0.0, 1.0, 0.5, 1e+308, 0.0): its "
                                       "normal derivative on the rod is not finite\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]
    assert _run_grid_command(["asymptotic"], config, tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("argv, config", [
    *((argv, OVERFLOW_CONFIG) for argv in BEM_COMMANDS),
    *((argv, FAR_SIDE_CONFIG) for argv in CLOSED_FORM_COMMANDS),
    (["asymptotic"], OVERFLOWING_FIELD_ROD_AT_1E300_CONFIG)],
    ids=[*BEM_IDS, *CLOSED_FORM_IDS, "asymptotic-rod-at-1e300"])
def test_refusal_prints_only_its_error_line(argv, config, tmp_path, capsys):
    # numpy's RuntimeWarnings, each with its source line, printed before
    # the error line: "potentials.py:380: RuntimeWarning: overflow
    # encountered in square".  Warnings are recorded here, not printed, so
    # they are added to stderr as a shell would show them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_grid_command(argv, config, tmp_path) == EXIT_USAGE
    err = capsys.readouterr().err + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("L, delta, nodes", [
    # the squared diameter overflows: an OverflowError traceback from
    # delta**2 in the assembly, exit 1
    (2.0, 1.4e154, "0.0199 to 2.8e+154"),
    # a disc's squared diameter overflows, and the closest nodes' squared
    # distance underflows: both exited 1 with "density system has
    # non-finite entries"
    (0.0, 1e155, "3.12e+153 to 2e+155"),
    (1e-160, 1e-162, "3.12e-164 to 1.02e-160"),
], ids=["L2-delta1.4e154", "disc-delta1e155", "L1e-160-delta1e-162"])
@pytest.mark.parametrize("argv", [["forward"], ["fieldmap", "--model", "bem"]],
                         ids=["forward", "fieldmap-bem"])
def test_a_rod_whose_squared_distances_leave_the_normal_floats_exits_2(
        argv, L, delta, nodes, tmp_path, capsys):
    extent = 3.0 * max(L, delta)
    config = (f"rod: {{L: {L!r}, delta: {delta!r}, center: [0.0, 0.0], angle: 0.0, sigma0: 2.0}}\n"
              "background: {a: [1.0, 0.5]}\n"
              f"grid: {{xmin: {-extent!r}, xmax: {extent!r}, ymin: {-extent!r}, "
              f"ymax: {extent!r}, nx: 3, ny: 3}}\n")
    assert _run_grid_command(argv, config, tmp_path) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: L={L!r}, delta={delta!r}: its nodes are {nodes} apart, outside the range "
        "1.49e-154 to 1.34e+154 where their squared distances are normal floats\n")


@pytest.mark.parametrize("model", ["bem", "asymptotic"])
def test_sensors_round_onto_a_1e300_rod_centre_exit_2(model, tmp_path, capsys):
    # the config's enclosure check passes, but in floats every sensor lands
    # on the rod centre: the refusal was a PlacementError traceback
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("center: [0.0, 0.0]", "center: [1.0e+300, 0.0]"))
    assert path.read_text().count("1.0e+300") == 2
    code = main(["invert", "--config", str(path), "--synthesize", "--model", model,
                 "--out", str(tmp_path / "fit.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: sensor within 2*delta of the rod")


NO_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from rodfield.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _src_env():
    """The environment of a fresh process that imports this rodfield."""
    src = os.path.dirname(os.path.dirname(rodfield.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_no_command_needs_scipy(config_path, tmp_path):
    # invert imported scipy.optimize for its least-squares fit: 0.6 s and
    # 50 MB of RSS in a fresh process; every command now runs where an
    # import of scipy fails
    def out(name):
        return ["--out", str(tmp_path / name)]

    invert = ["invert", "--config", config_path]
    data = ["--data", str(tmp_path / "meas.csv")]
    commands = [["fieldmap", "--config", config_path, *out("fm.csv")],
                ["forward", "--config", config_path, *out("fw.csv"),
                 "--density", str(tmp_path / "d.csv")],
                ["asymptotic", "--config", config_path, *out("asym.csv")],
                ["compare", "--config", config_path, *out("c.json")],
                ["validate"],
                [*invert, "--synthesize", "--model", "bem", *data, *out("fb.json")],
                [*invert, "--synthesize", "--model", "asymptotic", *out("fa.json")],
                [*invert, *data, *out("fd.json")]]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(commands)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * len(commands), "scipy": []}


def test_fit_stopped_at_the_evaluation_cap_exits_1(config_path, tmp_path, monkeypatch):
    # LM that runs out of evaluations has not converged, whatever its
    # residual; on BEM data it takes 6 evaluations
    from rodfield import inverse

    monkeypatch.setattr(inverse, "MAX_NFEV", 3)
    out = tmp_path / "fit.json"
    code = main(["invert", "--config", config_path, "--synthesize",
                 "--model", "bem", "--out", str(out)])
    assert code == EXIT_FAILURE
    fit = json.loads(out.read_text())
    assert fit["converged"] is False
    assert fit["iterations"] == 3


def test_invert_repeated_sensor_exits_1(tmp_path, capsys):
    # eight rows of one sensor passed the six-sensor check, and the fit
    # "converged" with residual_rel 2e-16 to a rod through that sensor
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("a: [1.0, 0.5]", "a: [1.0, 1.0]"))
    data = tmp_path / "same.csv"
    data.write_text("x1,x2,u\n" + "3.0,0.0,3.001\n" * 8)
    out = tmp_path / "fit.json"
    code = main(["invert", "--config", str(path), "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_FAILURE
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: fit needs at least 6 sensors")


def test_validate_assembles_each_mesh_once(monkeypatch):
    # the zero-total density checks assembled the second suite mesh again,
    # once per background: 9 assemblies where 7 meshes were built; the rod
    # flux check then built and assembled the trace-formula check's rod again
    from rodfield import potentials, solver, validate

    meshes = []

    def counting(mesh):
        meshes.append(mesh)
        return potentials.assemble_np(mesh)

    for module in (validate, solver):
        monkeypatch.setattr(module, "assemble_np", counting)
    assert all(c.passed for c in validate.run_validation())
    assert len(meshes) == 6
    assert len({id(m) for m in meshes}) == 6


def test_validate_runs_clean(capsys):
    code = main(["validate"])
    assert code == EXIT_OK
    assert "pass" in capsys.readouterr().out.lower()


def test_a_nan_margin_fails_its_check():
    # the verdict is the margin against its tolerance, and NaN <= tol is False
    from rodfield.validate import CheckResult

    check = CheckResult("nan margin", float("nan"), 1e-3)
    assert check.passed is False
    assert check.line().startswith("[FAIL] nan margin: nan")
    assert CheckResult("zero margin", 0.0, 1e-3).passed is True


def test_main_looks_up_the_handler_at_call_time(config_path, tmp_path, monkeypatch):
    # perfbench/tracing.py installs its spans by rebinding cli.cmd_*; a
    # parser built once with func= defaults would run the unwrapped handler
    assert main(["asymptotic", "--config", config_path,
                 "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args) or EXIT_OK)
    assert main(["validate"]) == EXIT_OK
    assert [a.command for a in seen] == ["validate"]


def test_repeated_main_calls_build_one_parser(config_path, tmp_path, monkeypatch):
    # every call built the whole tree again: 7 parsers, about 25 arguments
    # and their gettext lookups, about 1.6 ms a command in a benchmark pass
    def run(name):
        return main(["asymptotic", "--config", config_path, "--out", str(tmp_path / name)])

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    assert run("a.csv") == EXIT_OK   # may build the tree
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run("b.csv") == run("c.csv") == EXIT_OK
    assert built == []


def test_main_calls_share_no_state(config_path, tmp_path, monkeypatch):
    # one parser serves every call: no option may keep the value of an
    # earlier call, and a usage error must leave the parser as it was
    seen = []
    monkeypatch.setattr(cli, "cmd_invert", lambda args: seen.append(vars(args)) or EXIT_OK)
    main(["--seed", "3", "invert", "--config", config_path, "--synthesize",
          "--noise", "1e-3", "--model", "asymptotic", "--data", "d.csv"])
    main(["invert", "--config", config_path])
    defaults = {"seed": 0, "data": None, "synthesize": False, "noise": 0.0,
                "model": "bem", "out": "fit.json"}
    assert {k: seen[1][k] for k in defaults} == defaults

    assert main(["fieldmap"]) == EXIT_USAGE   # --config is required
    argv = ["fieldmap", "--config", config_path]
    in_process, fresh = tmp_path / "in_process.csv", tmp_path / "fresh.csv"
    assert main([*argv, "--out", str(in_process)]) == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", "rodfield.cli", *argv, "--out", str(fresh)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert in_process.read_bytes() == fresh.read_bytes()


def test_usage_error_returns_2_in_process(capsys):
    # argparse raised SystemExit(2) out of main, where every other usage
    # error returns 2
    assert main(["fieldmap"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: rodfield fieldmap")
    assert "required: --config" in err
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: rodfield")
    proc = subprocess.run([sys.executable, "-m", "rodfield.cli", "fieldmap"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == err


def _src_nodes():
    """(module file name, AST node) for every node of every rodfield module."""
    for path in pathlib.Path(rodfield.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_only_cli_touches_data_files():
    # geometry held the CSV writer and inverse the measurement CSV and the
    # fit JSON; every data-file format is now in cli, the config in config
    imports, opens = set(), set()
    for module, node in _src_nodes():
        names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                 [node.module] if isinstance(node, ast.ImportFrom) else [])
        if {"csv", "json"} & {str(n).split(".")[0] for n in names}:
            imports.add(module)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            opens.add(module)
    assert imports == {"cli.py"}
    assert opens == {"cli.py", "config.py"}


def test_no_module_imports_scipy():
    # test_no_command_needs_scipy runs each command on one config, so it
    # cannot see an import inside a function on a path that config misses
    found = []
    for module, node in _src_nodes():
        names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                 [node.module] if isinstance(node, ast.ImportFrom) else
                 [node.args[0].value] if (
                     isinstance(node, ast.Call) and node.args
                     and isinstance(node.args[0], ast.Constant)
                     and "import_module" in (getattr(node.func, "attr", None),
                                             getattr(node.func, "id", None))) else [])
        found += [(module, n) for n in names if str(n).split(".")[0] == "scipy"]
    assert found == []


def test_gauss_rules_are_built_in_geometry_and_potentials_only():
    # a_delta_apply built its own 16-point rule; it now takes the mesh's
    # Gauss panels and the NP assembly's Lorentzian weights
    calls = {module for module, node in _src_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "leggauss"}
    assert calls == {"geometry.py", "potentials.py"}


# 23 x 17 = 391 points, more than one CSV block; x2 ends on -0.0
LATTICE_CONFIG = CONFIG.replace("xmin: -3.0\n  xmax: 3.0\n  ymin: -3.0\n  ymax: 3.0\n  nx: 5\n  ny: 5",
                                "xmin: -0.0\n  xmax: 3.0\n  ymin: -3.0\n  ymax: -0.0\n  nx: 23\n  ny: 17")


@pytest.mark.parametrize("argv", [["fieldmap"], ["forward"], ["asymptotic"]],
                         ids=["fieldmap", "forward", "asymptotic"])
def test_grid_cells_are_the_repr_of_the_lattice(argv, tmp_path):
    # the x1 and x2 cells read back as the lattice points bit for bit,
    # the sign of -0.0 included
    path = tmp_path / "run.yaml"
    path.write_text(LATTICE_CONFIG)
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == EXIT_OK
    pts = load_config(str(path)).grid.points()
    cells = [row[:2] for row in _read_csv(out)[1:]]
    got = np.array(cells, dtype=float)
    assert got.shape == pts.shape == (391, 2)
    assert (got.view(np.int64) == pts.view(np.int64)).all()
    assert "-0.0" in {x2 for _, x2 in cells}


#: every command that solves the BEM; forward and invert also write the file named here
BEM_COMMANDS = pytest.mark.parametrize("argv", [
    ["forward", "--density", "density.csv"], ["fieldmap"], ["compare"],
    ["invert", "--synthesize", "--model", "bem", "--data", "data.csv"]],
    ids=["forward", "fieldmap", "compare", "invert"])


@BEM_COMMANDS
def test_mesh_too_large_for_memory_exits_2(argv, config_path, tmp_path, monkeypatch,
                                          capsys):
    # a mesh of n = 200,064 (L = 2, delta = 1e-5) died in a MemoryError
    # traceback from assembly, exit 1, and a mesh too large to build died
    # in the build; the allocation is only simulated here
    from rodfield import solver

    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.6 GiB")

    monkeypatch.chdir(tmp_path)
    for stage in ("assemble_np", "build_mesh"):
        with monkeypatch.context() as patch:
            patch.setattr(solver, stage, no_memory)
            assert main([*argv, "--config", config_path, "--out", "out"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: the dense system of n=128 nodes (delta=0."), stage
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize("delta", ["1.0e-320", "1.0e-300"])
@BEM_COMMANDS
def test_tiny_delta_is_refused_before_any_allocation(argv, delta, tmp_path, monkeypatch,
                                                     capsys):
    # L = 2 at default counts: L / (2 delta) overflowed int() at 1e-320, and
    # np.arange refused 1e300 nodes at 1e-300; both were tracebacks, exit 1
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("delta: 0.05", f"delta: {delta}")
                    .replace("deltas: [0.1, 0.05]", f"deltas: [{delta}]")
                    .replace("solver:\n  n_cap: 16\n  n_facade: 48\n", ""))
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = main([*argv, "--config", str(path), "--out", "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"delta={float(delta)!r}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]
    assert peak < 1 << 20


def _write_delta_config(tmp_path, delta):
    """CONFIG with the rod and the last compare delta at ``delta``."""
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.replace("delta: 0.05", f"delta: {delta}")
                    .replace("deltas: [0.1, 0.05]", f"deltas: [0.1, {delta}]"))
    return str(path)


@BEM_COMMANDS
def test_delta_below_the_bem_floor_is_refused(argv, tmp_path, monkeypatch, capsys):
    # the two facade sheets 2 delta apart cancel in S[phi]: below
    # delta = 1e-10 L the BEM's error passes 2.6e-7 of the field (5.2e-5 at
    # 1e-12, with L = 2 and counts 16/48), and it was returned with exit 0
    path = _write_delta_config(tmp_path, "1.0e-12")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", path, "--out", "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: delta=1e-12 is below") and "2e-10" in err
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@BEM_COMMANDS
def test_delta_above_the_bem_floor_is_solved(argv, tmp_path, monkeypatch):
    path = _write_delta_config(tmp_path, "1.0e-9")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", path, "--out", "out"]) == EXIT_OK


@pytest.mark.parametrize("sigma0", [2.0, 100.0])
@pytest.mark.parametrize("delta", ["1.0e-5", "1.0e-7"])
def test_forward_solves_a_rod_thinner_than_the_uniform_mesh_allows(delta, sigma0, tmp_path,
                                                                    refined_graded_mesh, capsys):
    # at delta = 1e-5 the uniform default had n = 200,064 and exited 2, its
    # dense system out of memory.  The graded mesh has n = 1,024 (1,232 at
    # 1e-7) and agrees with a twice refined one (n = 2,048 and 2,256) to
    # 7.9e-8 of the perturbation (measured over both sigma0 and 0.01)
    path = tmp_path / "run.yaml"
    path.write_text(f"rod: {{L: 2.0, delta: {delta}, center: [0.1, -0.2], angle: 0.3, "
                    f"sigma0: {sigma0}}}\nbackground: {{a: [1.0, 0.5]}}\n"
                    "grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 4, ny: 4}\n")
    out = tmp_path / "forward.csv"
    assert main(["forward", "--config", str(path), "--out", str(out)]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "mesh=graded" in summary
    assert int(summary.split("n=")[1].split()[0]) == {"1.0e-5": 1024, "1.0e-7": 1232}[delta]
    rows = np.array(_read_csv(out)[1:], dtype=float)
    assert len(rows) == 16 and np.isfinite(rows).all()
    cfg = load_config(str(path))
    s = rows[:, 2] - cfg.background.value(rows[:, :2])
    mesh = refined_graded_mesh(cfg.rod, 2)
    bg = cfg.background.in_frame(cfg.rod)
    phi = potentials.solve_density(potentials.assemble_np(mesh), rodfield.lambda_of_sigma(sigma0),
                                   potentials.neumann_data(mesh, bg))
    ref = single_layer_field(phi, to_local(cfg.rod, rows[:, :2]))[0]
    assert np.abs(s - ref).max() <= 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("command, block, count", [
    (["fieldmap"], "grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 200000, ny: 200000}",
     "40000000000"),
    (["forward"], "grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 200000, ny: 200000}",
     "40000000000"),
    (["asymptotic"], "grid: {xmin: -3.0, xmax: 3.0, ymin: -3.0, ymax: 3.0, nx: 1.0e19, ny: 2}",
     "20000000000000000000"),
    (["invert", "--synthesize", "--data", "data.csv"],
     "sensors: {center: [0.0, 0.0], radius: 3.0, count: 3.0e9}", "3000000000"),
    (["compare"], "sweep: {deltas: [0.1], probe_count: 3.0e9}", "3000000000"),
], ids=["fieldmap", "forward", "asymptotic", "invert", "compare"])
def test_oversized_point_set_is_refused_before_any_allocation(command, block, count, tmp_path,
                                                              monkeypatch, capsys):
    # the grids died in numpy's memory error (nx = ny = 200000) or its
    # "Maximum allowed size exceeded" (nx = 1e19), and 3e9 sensors or
    # probes in a memory error: tracebacks, exit 1
    path = tmp_path / "run.yaml"
    path.write_text("rod: {L: 2.0, delta: 0.05}\nbackground: {a: [1.0, 0.5]}\n" + block + "\n")
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = main([*command, "--config", str(path), "--out", "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"= {count} points" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]
    assert peak < 1 << 20
