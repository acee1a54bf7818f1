"""Run configuration: a small YAML file with fixed, typo-checked keys."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .background import HarmonicBackground
from .geometry import RodSpec


class ConfigError(ValueError):
    """Raised for unknown keys, missing blocks or inconsistent values."""


def _unique_keys(base: type) -> type:
    """The PyYAML loader ``base``, refusing a key given twice in one mapping,
    where the second would silently replace the first.  A key merged in by
    ``<<`` may still be given again: YAML's explicit key overrides it."""

    class Loader(base):
        def __init__(self, stream):
            super().__init__(stream)
            self._checked = set()

        def flatten_mapping(self, node):
            # runs on each mapping before its merged keys are spliced in, and
            # again on a merged or aliased one that already holds them
            if node not in self._checked:
                self._checked.add(node)
                seen = set()
                for key_node, _ in node.value:
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        continue
                    key = self.construct_object(key_node)
                    try:
                        if key in seen:
                            raise yaml.constructor.ConstructorError(
                                "while constructing a mapping", node.start_mark,
                                f"found duplicate key {key!r}", key_node.start_mark)
                        seen.add(key)
                    except TypeError:   # an unhashable key, which PyYAML refuses
                        pass
            super().flatten_mapping(node)

    return Loader


# libyaml's parser where PyYAML was built with it, the pure-Python one
# otherwise: both build the same plain data from a config
_LOADER = _unique_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _require_keys(block: dict, allowed: dict, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be a mapping")
    unknown = block.keys() - allowed
    if unknown:
        # by str: YAML keys may mix types (1 and x), which do not compare
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown, key=str)}")


@dataclass(frozen=True)
class GridSpec:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def points(self) -> np.ndarray:
        """The lattice points (nx ny, 2), x1 varying slowest."""
        X, Y = np.meshgrid(np.linspace(self.xmin, self.xmax, self.nx),
                           np.linspace(self.ymin, self.ymax, self.ny), indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=1)


@dataclass(frozen=True)
class SensorSpec:
    center: tuple[float, float]
    radius: float
    count: int


@dataclass(frozen=True)
class RunConfig:
    rod: RodSpec
    background: HarmonicBackground
    grid: GridSpec | None = None
    sensors: SensorSpec | None = None
    n_cap: int | None = None
    n_facade: int | None = None
    sweep_deltas: tuple[float, ...] = ()
    sweep_probe_radius: float = 3.0
    sweep_probe_count: int = 64
    sweep_probe_offset: tuple[float, float] = (0.0, 1.0)

    @property
    def probe_center(self) -> tuple[float, float]:
        """Centre of compare's probe circle: the rod centre plus the offset."""
        return (self.rod.center[0] + self.sweep_probe_offset[0],
                self.rod.center[1] + self.sweep_probe_offset[1])


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = yaml.load(f, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw)


def _number(v, name: str) -> float:
    """float(v); a YAML boolean (yes, on, true) is refused, not read as 1,
    and a string or a list is refused naming the field.  An integer past
    the float range is read as an infinity, which the fields refuse."""
    if not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {v!r}")


def _real(v, name: str) -> float:
    """A real field.  NaN and infinities are refused: no result can use
    them, and NaN passes every comparison check."""
    f = _number(v, name)
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return f


def _count(v, name: str, least: int = 1) -> int:
    """An integer field.  A fractional value is refused, not truncated."""
    f = _number(v, name)
    if not f.is_integer() or f < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(f)


#: The most points a grid, a sensor circle or a probe circle may hold.
#: A command keeps about 100 bytes a point (coordinates, values, gradients
#: and the cells of its CSV), so this is some 10 GB; a larger set is
#: refused before anything is allocated, where numpy would raise a memory
#: error or refuse the array's size.
MAX_POINTS = 10**8


def _points(m: int, name: str) -> int:
    if m > MAX_POINTS:
        raise ValueError(f"{name} = {m} points, more than the {MAX_POINTS} allowed")
    return m


def _list(v, name: str) -> list | tuple:
    """A list field: a YAML string or mapping is refused, not read entry by
    entry ("12" as (1, 2), {0: 1, 1: 2} as (1, 2))."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{name} must have a YAML list of values, got {v!r}")
    return v


def _reals(v, name: str) -> tuple[float, ...]:
    return tuple(_real(x, name) for x in _list(v, name))


def _pair(v, name: str) -> tuple[float, float]:
    if len(_list(v, name)) != 2:
        raise ValueError(f"{name} must have two entries, got {v!r}")
    return _real(v[0], name), _real(v[1], name)


def _circle_count(v, name: str) -> int:
    return _points(_count(v, name), name)


def _background(a=None, coefficients=None) -> dict:
    if a is not None and coefficients is not None:
        raise ValueError("give either 'a' or 'coefficients', not both")
    if a is not None:
        return {"background": HarmonicBackground.linear(a)}
    if coefficients is not None:
        return {"background": HarmonicBackground.polynomial(coefficients)}
    raise ValueError("need 'a' or 'coefficients'")


def _grid(nx: int, ny: int, **limits) -> dict:
    _points(nx * ny, "nx * ny")
    return {"grid": GridSpec(nx=nx, ny=ny, **limits)}


def _sweep(**given) -> dict:
    if any(d <= 0 for d in given.get("deltas", ())):
        raise ValueError("deltas must be positive")
    return {f"sweep_{k}": v for k, v in given.items()}


_GRID = {"nx": lambda v, k: _count(v, k, 2), "ny": lambda v, k: _count(v, k, 2),
         **dict.fromkeys(("xmin", "xmax", "ymin", "ymax"), _real)}

# block -> ({key: parser}, the keys it must give, its parsed keys -> RunConfig
# fields), in parse order.  A key left out keeps its dataclass default.
_BLOCKS = {
    "rod": ({"L": _real, "delta": _real, "center": _pair, "angle": _real, "sigma0": _real},
            {"delta"}, lambda L=0.0, **given: {"rod": RodSpec(L=L, **given)}),
    "background": ({"a": _pair, "coefficients": _reals}, set(), _background),
    "grid": (_GRID, set(_GRID), _grid),
    "sensors": ({"center": _pair, "radius": _real, "count": _circle_count}, {"radius", "count"},
                lambda center=(0.0, 0.0), **given: {"sensors": SensorSpec(center, **given)}),
    "solver": ({"n_cap": _count, "n_facade": _count}, set(), dict),
    "sweep": ({"deltas": _reals, "probe_radius": _real, "probe_count": _circle_count,
               "probe_offset": _pair}, set(), _sweep),
}


def _parse_block(name: str, block) -> dict:
    """Parse one block with its typo-checked keys.  A missing key or a
    malformed value is refused as a ConfigError that names the block."""
    parsers, required, fields = _BLOCKS[name]
    _require_keys(block, parsers, name)
    try:
        given = {}
        for key, parse in parsers.items():
            if key in block:
                given[key] = parse(block[key], key)
            elif key in required:
                raise KeyError(key)
        return fields(**given)
    except KeyError as exc:
        raise ConfigError(f"{name} block missing {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _check_encloses(rod: RodSpec, center, radius: float, name: str) -> None:
    """Refuse a circle that does not enclose the rod with a 2*delta margin."""
    c = np.asarray(center)
    P, Q = rod.cap_centers_world()
    reach = max(np.linalg.norm(P - c), np.linalg.norm(Q - c)) + rod.delta
    if reach + 2.0 * rod.delta >= radius:
        raise ConfigError(f"{name}: circle does not enclose the rod with "
                          f"a 2*delta margin (delta={rod.delta!r})")


def parse_config(raw: dict) -> RunConfig:
    _require_keys(raw, _BLOCKS, "config")
    for name in ("rod", "background"):
        if name not in raw:
            raise ConfigError(f"missing required '{name}' block")
    kwargs = {}
    for name in _BLOCKS:
        if name in raw:
            kwargs.update(_parse_block(name, raw[name]))
    cfg = RunConfig(**kwargs)
    if cfg.sensors is not None:
        _check_encloses(cfg.rod, cfg.sensors.center, cfg.sensors.radius, "sensors")
    if cfg.sweep_deltas:
        # the probe circle of compare, at the sweep's thickest rod
        _check_encloses(replace(cfg.rod, delta=max(cfg.sweep_deltas)),
                        cfg.probe_center, cfg.sweep_probe_radius, "sweep")
    return cfg
