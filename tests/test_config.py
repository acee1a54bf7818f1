"""YAML run-configuration parsing and validation."""

import re
from pathlib import Path

import pytest
import yaml

from rodfield import config
from rodfield.config import ConfigError, load_config, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
#: the README's example config
README_EXAMPLE = README.read_text().split("```yaml\n")[1].split("```")[0]


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


@pytest.mark.parametrize("where", ["rod", "config"])
def test_unknown_keys_of_mixed_types_are_listed(where):
    # sorted() of the keys 1 and x raised TypeError, a traceback from the CLI
    raw = _cfg()
    (raw["rod"] if where == "rod" else raw).update({1: 2, "x": 3})
    with pytest.raises(ConfigError, match=re.escape(f"unknown keys in '{where}': [1, 'x']")):
        parse_config(raw)


#: every real and count field of the README example
NUMBER_FIELDS = [(block, key) for block, keys in yaml.safe_load(README_EXAMPLE).items()
                 for key in keys]


@pytest.mark.parametrize("block, key", NUMBER_FIELDS + [("background", "coefficients")])
def test_a_yaml_boolean_is_not_a_number(block, key):
    # PyYAML reads yes, on and true as True, which float() took for 1.0: L: yes
    # ran as L = 1 and count: yes as one sensor.  A list stands for its entries
    raw = yaml.safe_load(README_EXAMPLE)
    if key == "coefficients":
        raw["background"] = {"coefficients": [0.0, 1.0, 0.5, 0.0, 0.0]}
    value = raw[block][key]
    raw[block][key] = [True, *value[1:]] if isinstance(value, list) else True
    with pytest.raises(ConfigError, match=f"^{block}: {key} must be a number, got True$"):
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


@pytest.mark.parametrize("block, value, match", [
    ("grid", {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 3},
     "grid block missing 'ny'"),
    ("sensors", {"center": [0.0, 0.0], "count": 32},
     "sensors block missing 'radius'"),
    ("solver", {"n_cap": "abc"}, "solver: "),
    ("background", {"a": [1.0]}, "background: "),
    ("background", {"a": [1.0, 0.5, 7.0]}, "background: "),
    ("sweep", {"deltas": 0.1}, "sweep: "),
    # a two-character string was read as two numbers
    ("rod", {"L": 2.0, "delta": 0.05, "center": "12"}, "rod: center must have"),
])
def test_malformed_block_names_it(block, value, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(_cfg(**{block: value}))


def test_solver_block():
    cfg = parse_config(_cfg(solver={"n_cap": 64, "n_facade": 128}))
    assert (cfg.n_cap, cfg.n_facade) == (64, 128)
    # n_quad set the order of a quadrature the closed form no longer has;
    # it was read and ignored, and is refused now like any unknown key
    with pytest.raises(ConfigError, match="unknown keys in 'solver'"):
        parse_config(_cfg(solver={"n_cap": 64, "n_facade": 128, "n_quad": 48}))


def test_load_config_yaml(tmp_path, monkeypatch):
    # libyaml's loader and the pure-Python one give the same config for the
    # README example, and the same refusals
    example = tmp_path / "run.yaml"
    example.write_text(README_EXAMPLE)
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    broken = tmp_path / "broken.yaml"
    broken.write_text("rod: {L: 2.0, delta: 0.05\n")
    loaded = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        loaded.append(load_config(str(example)))
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(bad))
        with pytest.raises(ConfigError):
            load_config(str(broken))
    assert loaded[0] == loaded[1]
    assert loaded[0].rod.delta == 0.05
    assert loaded[0].grid.nx == 101
    assert loaded[0].sweep_deltas == (0.1, 0.05, 0.025)
