"""YAML run-configuration parsing and validation."""

import re
from pathlib import Path

import pytest
import yaml

from rodfield import config
from rodfield.cli import EXIT_USAGE, main
from rodfield.config import RunConfig, load_config, parse_config
from rodfield.geometry import RodSpec, ValidationError

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
    with pytest.raises(ValidationError, match="rod"):
        parse_config({"background": {"a": [1.0, 0.0]}})
    with pytest.raises(ValidationError, match="background"):
        parse_config({"rod": dict(BASE["rod"])})


def test_unknown_keys_rejected():
    raw = _cfg()
    raw["rod"]["lenght"] = 3.0
    with pytest.raises(ValidationError, match="lenght"):
        parse_config(raw)
    with pytest.raises(ValidationError, match="frobnicate"):
        parse_config(_cfg(frobnicate=1))
    raw = _cfg(sweep={"deltas": [0.1], "probe_off": [0, 1]})
    with pytest.raises(ValidationError, match="probe_off"):
        parse_config(raw)


@pytest.mark.parametrize("where", ["rod", "config"])
def test_unknown_keys_of_mixed_types_are_listed(where):
    # sorted() of the keys 1 and x raised TypeError, a traceback from the CLI
    raw = _cfg()
    (raw["rod"] if where == "rod" else raw).update({1: 2, "x": 3})
    with pytest.raises(ValidationError, match=re.escape(f"unknown keys in '{where}': [1, 'x']")):
        parse_config(raw)


#: every real and count field of the README example
NUMBER_FIELDS = [(block, key) for block, keys in yaml.safe_load(README_EXAMPLE).items()
                 for key in keys]


@pytest.mark.parametrize("block, key", NUMBER_FIELDS + [("background", "coefficients")])
def test_a_yaml_boolean_is_not_a_number(block, key):
    # PyYAML reads yes, on and true as True, which float() took for 1.0: L: yes
    # ran as L = 1 and count: yes as one sensor.  A string or a list was
    # refused in float()'s words, which name no field.  A list field stands
    # for its entries
    for bad in (True, "abc", [1]):
        raw = yaml.safe_load(README_EXAMPLE)
        if key == "coefficients":
            raw["background"] = {"coefficients": [0.0, 1.0, 0.5, 0.0, 0.0]}
        value = raw[block][key]
        raw[block][key] = [bad, *value[1:]] if isinstance(value, list) else bad
        want = re.escape(f"{block}: {key} must be a number, got {bad!r}")
        with pytest.raises(ValidationError, match=f"^{want}$"):
            parse_config(raw)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("block, key", NUMBER_FIELDS)
def test_an_integer_past_the_float_range_exits_2(block, key, sign, tmp_path, capsys):
    # float() raised OverflowError on the integer: a traceback with exit 1
    raw = yaml.safe_load(README_EXAMPLE)
    value = raw[block][key]
    raw[block][key] = [sign * 10**400, *value[1:]] if isinstance(value, list) else sign * 10**400
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "c.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    # a count is refused by its range, a real field as not finite
    expected = "an integer >= " if isinstance(value, int) else "finite, got "
    assert err.startswith(f"error: {block}: {key} must be {expected}") and len(err.splitlines()) == 1
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("block, key", NUMBER_FIELDS + [("background", "coefficients")])
def test_every_key_takes_effect(block, key):
    # a key that a block allows but its parser leaves unread would be
    # accepted and ignored: a changed value must change the config
    raw = yaml.safe_load(README_EXAMPLE)
    if key == "coefficients":
        raw["background"] = {"coefficients": [0.0, 1.0, 0.5, 0.0, 0.0]}
    before = parse_config(raw)
    value = raw[block][key]
    last = value[-1] if isinstance(value, list) else value
    last += 1 if isinstance(last, int) else 0.01
    raw[block][key] = [*value[:-1], last] if isinstance(value, list) else last
    assert parse_config(raw) != before


def test_background_exclusive_keys():
    raw = _cfg()
    raw["background"] = {"a": [1.0, 0.0], "coefficients": [0, 1, 0, 0, 0]}
    with pytest.raises(ValidationError, match="not both"):
        parse_config(raw)
    raw["background"] = {}
    with pytest.raises(ValidationError, match="^background: need 'a' or 'coefficients'$"):
        parse_config(raw)


def test_polynomial_background():
    raw = _cfg()
    raw["background"] = {"coefficients": [0.0, 1.0, 0.0, 0.5, 0.0]}
    cfg = parse_config(raw)
    assert not cfg.background.is_linear


def test_invalid_rod_values():
    raw = _cfg()
    raw["rod"]["delta"] = -0.1
    with pytest.raises(ValidationError,
                       match=r"^rod: delta must be a finite real number > 0, got -0\.1$"):
        parse_config(raw)


def test_grid_block():
    raw = _cfg(grid={"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1,
                     "nx": 3, "ny": 2})
    cfg = parse_config(raw)
    assert cfg.grid.points().shape == (6, 2)
    raw["grid"]["nx"] = 1
    with pytest.raises(ValidationError, match=">= 2"):
        parse_config(raw)


def test_sensor_circle_must_enclose_rod():
    raw = _cfg(sensors={"center": [0.0, 0.0], "radius": 3.0, "count": 32})
    cfg = parse_config(raw)
    assert cfg.sensors.radius == 3.0
    raw["sensors"]["radius"] = 1.0
    with pytest.raises(ValidationError, match="enclose"):
        parse_config(raw)


def test_sweep_block():
    raw = _cfg(sweep={"deltas": [0.1, 0.05], "probe_radius": 4.0,
                      "probe_count": 16, "probe_offset": [0.5, 0.5]})
    cfg = parse_config(raw)
    assert cfg.sweep_deltas == (0.1, 0.05)
    assert cfg.sweep_probe_radius == 4.0
    assert cfg.sweep_probe_offset == (0.5, 0.5)
    raw["sweep"]["deltas"] = [0.1, -0.05]
    with pytest.raises(ValidationError, match="positive"):
        parse_config(raw)
    raw["sweep"]["deltas"] = [0.1]
    raw["sweep"]["probe_offset"] = [1.0]
    with pytest.raises(ValidationError, match="two entries"):
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
    with pytest.raises(ValidationError, match=match):
        parse_config(_cfg(**{block: value}))


def test_solver_block():
    cfg = parse_config(_cfg(solver={"n_cap": 64, "n_facade": 128}))
    assert (cfg.n_cap, cfg.n_facade) == (64, 128)
    # n_quad set the order of a quadrature the closed form no longer has;
    # it was read and ignored, and is refused now like any unknown key
    with pytest.raises(ValidationError, match="unknown keys in 'solver'"):
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
        monkeypatch.setattr(config, "_LOADER", config._unique_keys(loader))
        loaded.append(load_config(str(example)))
        with pytest.raises(ValidationError, match="mapping"):
            load_config(str(bad))
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(broken))}: while parsing a flow mapping"):
            load_config(str(broken))
    assert loaded[0] == loaded[1]
    assert loaded[0].rod.delta == 0.05
    assert loaded[0].grid.nx == 101
    assert loaded[0].sweep_deltas == (0.1, 0.05, 0.025)


def test_a_key_left_out_keeps_its_dataclass_default():
    # the parsers pass on only the keys a file gives: RodSpec and RunConfig
    # state every default but L = 0, which RodSpec lacks
    cfg = parse_config({"rod": {"delta": 0.05}, "background": {"a": [1.0, 0.0]}, "sweep": {}})
    assert cfg.rod == RodSpec(L=0.0, delta=0.05)
    assert cfg == RunConfig(rod=cfg.rod, background=cfg.background)


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def loader(request, monkeypatch):
    """config's loader on libyaml's parser, its default, or on the pure-Python one."""
    if request.param == "SafeLoader":
        monkeypatch.setattr(config, "_LOADER", config._unique_keys(yaml.SafeLoader))
    assert issubclass(config._LOADER, getattr(yaml, request.param))


@pytest.mark.parametrize("text, key, line", [
    ("rod: {L: 2.0, delta: 0.05, delta: 0.5}\nbackground: {a: [1.0, 0.0]}\n", "delta", 1),
    ("rod: {L: 2.0, delta: 0.05}\nbackground: {a: [1.0, 0.0]}\nrod: {L: 1.0, delta: 0.5}\n",
     "rod", 3),
    ("rod:\n  L: 2.0\n  delta: 0.05\nbackground:\n  a: [1.0, 0.0]\n  a: [0.0, 1.0]\n", "a", 6),
], ids=["in-a-block", "top-level", "block-style"])
def test_a_repeated_key_is_refused(loader, text, key, line, tmp_path):
    # the second value silently replaced the first: delta = 0.5, the second rod
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"(?s)duplicate key '{key}'.*line {line}, "):
        load_config(str(path))


@pytest.mark.parametrize("rod", [
    "{<<: &thick {L: 2.0, delta: 0.5}, delta: 0.05}",
    # the merged mapping is spliced twice, the second time holding the keys
    # of its own merge and its explicit delta
    "{<<: [&thin {delta: 0.05, <<: &long {L: 2.0, delta: 0.5}}, *thin]}",
], ids=["override", "merged-twice"])
def test_an_explicit_key_overrides_a_merged_one(loader, rod, tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(f"rod: {rod}\nbackground: {{a: [1.0, 0.0]}}\n")
    assert load_config(str(path)).rod == RodSpec(L=2.0, delta=0.05)
