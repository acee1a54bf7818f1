"""End-to-end checks of the command-line front end."""

import csv
import json
import sys

import numpy as np
import pytest

from rodfield import AsymptoticModel, single_layer_field, solve_forward
from rodfield.asymptotics import asymptotic_perturbation
from rodfield.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from rodfield.config import load_config


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
    assert _near_count(capsys.readouterr().out) == sum(int(r[4]) for r in rows[1:])


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
def test_fieldmap_du_is_the_perturbation(model, tmp_path):
    # |u - H| loses digits where the perturbation is small against H (up to
    # 7.6e-11 relative on the bem grid): du and dgrad come from S itself
    path = tmp_path / "fm.yaml"
    path.write_text(FIELDMAP_CONFIGS[model])
    out = tmp_path / "fm.csv"
    assert main(["fieldmap", "--config", str(path), "--model", model,
                 "--out", str(out)]) == EXIT_OK
    cfg = load_config(str(path))
    pts = cfg.grid.points()
    if model == "bem":
        sol = solve_forward(cfg.rod, cfg.background, n_cap=cfg.n_cap,
                            n_facade=cfg.n_facade)
        s, gs, _ = single_layer_field(sol.mesh, sol.phi, pts)
    else:
        s, gs = asymptotic_perturbation(
            AsymptoticModel.from_spec(cfg.rod, cfg.background), pts)
    rows = np.array([[float(v) for v in row] for row in _read_csv(out)[1:]])
    assert np.array_equal(rows[:, 2], np.abs(s))
    assert np.array_equal(rows[:, 3], np.linalg.norm(gs, axis=1))


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
    assert _near_count(summary) == sum(int(r[5]) for r in _read_csv(out)[1:])


def test_threads_without_threadpoolctl_warns(config_path, tmp_path, capsys,
                                             monkeypatch):
    # a None entry in sys.modules makes the import raise ImportError
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    code = main(["--threads", "1", "asymptotic", "--config", config_path,
                 "--out", str(tmp_path / "asym.csv")])
    assert code == EXIT_OK
    assert "warning: --threads" in capsys.readouterr().err
    main(["asymptotic", "--config", config_path, "--out", str(tmp_path / "asym.csv")])
    assert capsys.readouterr().err == ""


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


def test_asymptotic_ignores_n_quad(tmp_path):
    # solver.n_quad set the order of a quadrature the closed form no longer
    # uses: an old config still runs, to the same bytes
    quad = CONFIG.replace("  a: [1.0, 0.5]", "  coefficients: [0.0, 1.0, 0.5, 0.3, 0.2]")
    outs = []
    for i, text in enumerate((quad, quad.replace("  n_facade: 48\n",
                                                 "  n_facade: 48\n  n_quad: 48\n"))):
        path, out = tmp_path / f"run{i}.yaml", tmp_path / f"asym{i}.csv"
        path.write_text(text)
        assert main(["asymptotic", "--config", str(path), "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert "n_quad: 48" in (tmp_path / "run1.yaml").read_text()
    assert outs[0] == outs[1]


def test_compare_report(config_path, tmp_path):
    out = tmp_path / "compare.json"
    code = main(["compare", "--config", config_path, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["probe_center"] == [0.0, 1.0]
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert set(row) == {"delta", "max_error", "error_over_delta",
                            "mesh_nodes", "solve_residual", "wall_seconds"}
        assert row["max_error"] > 0
        assert 0.0 <= row["solve_residual"] < 1e-10


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


def test_invert_wrong_minimum_exits_1(tmp_path):
    # rod at 1.2 rad: LM stops in a wrong local minimum on noise-free data
    path = tmp_path / "tilted.yaml"
    path.write_text(CONFIG.replace("  center: [0.0, 0.0]\n  angle: 0.0",
                                   "  center: [0.3, -0.2]\n  angle: 1.2")
                    .replace("a: [1.0, 0.5]", "a: [1.0, 1.0]")
                    .replace("count: 32", "count: 64"))
    out = tmp_path / "fit.json"
    code = main(["invert", "--config", str(path), "--synthesize",
                 "--model", "asymptotic", "--out", str(out)])
    assert code == EXIT_FAILURE
    assert json.loads(out.read_text())["converged"] is False


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


def test_invert_missing_data_hint(config_path, tmp_path, capsys):
    code = main(["invert", "--config", config_path,
                 "--data", str(tmp_path / "absent.csv")])
    assert code == EXIT_USAGE
    assert "--synthesize" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("rod:\n  L: 2.0\n  delta: -1.0\nbackground:\n  a: [1, 0]\n")
    code = main(["fieldmap", "--config", str(path)])
    assert code == EXIT_USAGE


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


def test_validate_runs_clean(capsys):
    code = main(["validate"])
    assert code == EXIT_OK
    assert "pass" in capsys.readouterr().out.lower()
