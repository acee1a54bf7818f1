"""YAML run-configuration parsing and validation."""

import pytest

from rodfield.config import ConfigError, load_config, parse_config


BASE = {
    "rod": {"L": 2.0, "delta": 0.05, "center": [0.0, 0.0],
            "angle": 0.0, "sigma0": 2.0},
    "background": {"a": [1.0, 0.0]},
}


def _cfg(**extra):
    raw = {k: dict(v) for k, v in BASE.items()}
    raw.update(extra)
    return raw


def test_minimal_config():
    cfg = parse_config(_cfg())
    assert cfg.rod.L == 2.0
    assert cfg.background.is_linear
    assert cfg.grid is None
    assert cfg.sensors is None
    assert cfg.sweep_probe_offset == (0.0, 1.0)


def test_missing_blocks():
    with pytest.raises(ConfigError, match="rod"):
        parse_config({"background": {"a": [1.0, 0.0]}})
    with pytest.raises(ConfigError, match="background"):
        parse_config({"rod": dict(BASE["rod"])})


def test_unknown_keys_rejected():
    raw = _cfg()
    raw["rod"]["lenght"] = 3.0
    with pytest.raises(ConfigError, match="lenght"):
        parse_config(raw)
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(_cfg(frobnicate=1))
    raw = _cfg(sweep={"deltas": [0.1], "probe_off": [0, 1]})
    with pytest.raises(ConfigError, match="probe_off"):
        parse_config(raw)


def test_background_exclusive_keys():
    raw = _cfg()
    raw["background"] = {"a": [1.0, 0.0], "coefficients": [0, 1, 0, 0, 0]}
    with pytest.raises(ConfigError, match="not both"):
        parse_config(raw)
    raw["background"] = {}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_polynomial_background():
    raw = _cfg()
    raw["background"] = {"coefficients": [0.0, 1.0, 0.0, 0.5, 0.0]}
    cfg = parse_config(raw)
    assert not cfg.background.is_linear


def test_invalid_rod_values():
    raw = _cfg()
    raw["rod"]["delta"] = -0.1
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_grid_block():
    raw = _cfg(grid={"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1,
                     "nx": 3, "ny": 2})
    cfg = parse_config(raw)
    assert cfg.grid.points().shape == (6, 2)
    raw["grid"]["nx"] = 1
    with pytest.raises(ConfigError, match=">= 2"):
        parse_config(raw)


def test_sensor_circle_must_enclose_rod():
    raw = _cfg(sensors={"center": [0.0, 0.0], "radius": 3.0, "count": 32})
    cfg = parse_config(raw)
    assert cfg.sensors.radius == 3.0
    raw["sensors"]["radius"] = 1.0
    with pytest.raises(ConfigError, match="enclose"):
        parse_config(raw)


def test_sweep_block():
    raw = _cfg(sweep={"deltas": [0.1, 0.05], "probe_radius": 4.0,
                      "probe_count": 16, "probe_offset": [0.5, 0.5]})
    cfg = parse_config(raw)
    assert cfg.sweep_deltas == (0.1, 0.05)
    assert cfg.sweep_probe_radius == 4.0
    assert cfg.sweep_probe_offset == (0.5, 0.5)
    raw["sweep"]["deltas"] = [0.1, -0.05]
    with pytest.raises(ConfigError, match="positive"):
        parse_config(raw)
    raw["sweep"]["deltas"] = [0.1]
    raw["sweep"]["probe_offset"] = [1.0]
    with pytest.raises(ConfigError, match="two entries"):
        parse_config(raw)


def test_solver_block():
    # n_quad loads and is ignored: the closed form has no quadrature order
    raw = _cfg(solver={"n_cap": 64, "n_facade": 128, "n_quad": 48})
    cfg = parse_config(raw)
    assert (cfg.n_cap, cfg.n_facade) == (64, 128)
    assert cfg == parse_config(_cfg(solver={"n_cap": 64, "n_facade": 128}))


def test_load_config_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "rod:\n  L: 2.0\n  delta: 0.05\nbackground:\n  a: [1.0, 1.0]\n")
    cfg = load_config(str(path))
    assert cfg.rod.delta == 0.05
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(bad))
    broken = tmp_path / "broken.yaml"
    broken.write_text("rod: {L: 2.0, delta: 0.05\n")
    with pytest.raises(ConfigError):
        load_config(str(broken))
