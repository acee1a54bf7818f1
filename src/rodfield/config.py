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


# libyaml's parser where PyYAML was built with it, the pure-Python one
# otherwise: both build the same plain data from a config
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _require_keys(block: dict, allowed: set, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be a mapping")
    unknown = set(block) - allowed
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

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The nx lattice values of x1 and the ny of x2."""
        return (np.linspace(self.xmin, self.xmax, self.nx),
                np.linspace(self.ymin, self.ymax, self.ny))

    def points(self) -> np.ndarray:
        """The lattice points (nx ny, 2), x1 varying slowest."""
        X, Y = np.meshgrid(*self.axes(), indexing="ij")
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


def _rod(r: dict) -> dict:
    return {"rod": RodSpec(L=_real(r.get("L", 0.0), "L"),
                           delta=_real(r["delta"], "delta"),
                           center=_pair(r.get("center", (0.0, 0.0)), "center"),
                           angle=_real(r.get("angle", 0.0), "angle"),
                           sigma0=_real(r.get("sigma0", 2.0), "sigma0"))}


def _background(b: dict) -> dict:
    if "a" in b and "coefficients" in b:
        raise ValueError("give either 'a' or 'coefficients', not both")
    if "a" in b:
        return {"background": HarmonicBackground.linear(_pair(b["a"], "a"))}
    if "coefficients" in b:
        return {"background": HarmonicBackground.polynomial(
            [_real(c, "coefficients") for c in _list(b["coefficients"], "coefficients")])}
    raise ValueError("need 'a' or 'coefficients'")


def _number(v, name: str) -> float:
    """float(v); a YAML boolean (yes, on, true) is refused, not read as 1."""
    if isinstance(v, bool):
        raise ValueError(f"{name} must be a number, got {v!r}")
    return float(v)


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


def _grid(g: dict) -> dict:
    lims = (_real(g[k], k) for k in ("xmin", "xmax", "ymin", "ymax"))
    nx, ny = _count(g["nx"], "nx", 2), _count(g["ny"], "ny", 2)
    _points(nx * ny, "nx * ny")
    return {"grid": GridSpec(*lims, nx, ny)}


def _sensors(s: dict) -> dict:
    return {"sensors": SensorSpec(_pair(s.get("center", (0.0, 0.0)), "center"),
                                  _real(s["radius"], "radius"),
                                  _points(_count(s["count"], "count"), "count"))}


def _solver(s: dict) -> dict:
    return {k: _count(s[k], k) for k in ("n_cap", "n_facade") if k in s}


def _sweep(s: dict) -> dict:
    deltas = tuple(_real(d, "deltas") for d in _list(s.get("deltas", ()), "deltas"))
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    return {"sweep_deltas": deltas,
            "sweep_probe_radius": _real(s.get("probe_radius", 3.0), "probe_radius"),
            "sweep_probe_count": _points(_count(s.get("probe_count", 64), "probe_count"),
                                         "probe_count"),
            "sweep_probe_offset": _pair(s.get("probe_offset", (0.0, 1.0)),
                                        "probe_offset")}


def _list(v, name: str) -> list | tuple:
    """A list field: a YAML string or mapping is refused, not read entry by
    entry ("12" as (1, 2), {0: 1, 1: 2} as (1, 2))."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{name} must have a YAML list of values, got {v!r}")
    return v


def _pair(v, name: str) -> tuple[float, float]:
    if len(_list(v, name)) != 2:
        raise ValueError(f"{name} must have two entries, got {v!r}")
    return _real(v[0], name), _real(v[1], name)


# block -> (allowed keys, parser returning RunConfig fields), in parse order
_BLOCKS = {
    "rod": ({"L", "delta", "center", "angle", "sigma0"}, _rod),
    "background": ({"a", "coefficients"}, _background),
    "grid": ({"xmin", "xmax", "ymin", "ymax", "nx", "ny"}, _grid),
    "sensors": ({"center", "radius", "count"}, _sensors),
    "solver": ({"n_cap", "n_facade"}, _solver),
    "sweep": ({"deltas", "probe_radius", "probe_count", "probe_offset"}, _sweep),
}


def _parse_block(name: str, block) -> dict:
    """Parse one block with its typo-checked keys.  A missing key or a
    malformed value is refused as a ConfigError that names the block."""
    keys, parse = _BLOCKS[name]
    _require_keys(block, keys, name)
    try:
        return parse(block)
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
    _require_keys(raw, set(_BLOCKS), "config")
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
