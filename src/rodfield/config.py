"""Run configuration: a small YAML file with fixed, typo-checked keys."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .background import HarmonicBackground
from .geometry import RodSpec, ValidationError, signed_distance


class ConfigError(ValueError):
    """Raised for unknown keys, missing blocks or inconsistent values."""


_ROD_KEYS = {"L", "delta", "center", "angle", "sigma0"}
_BACKGROUND_KEYS = {"a", "coefficients"}
_GRID_KEYS = {"xmin", "xmax", "ymin", "ymax", "nx", "ny"}
_SENSOR_KEYS = {"center", "radius", "count"}
# n_quad set the order of a quadrature the closed form no longer uses; it
# still loads, and is ignored, so older configs keep working
_SOLVER_KEYS = {"n_cap", "n_facade", "n_quad"}
_SWEEP_KEYS = {"deltas", "probe_radius", "probe_count", "probe_offset"}
_TOP_KEYS = {"rod", "background", "grid", "sensors", "solver", "sweep"}


def _require_keys(block: dict, allowed: set, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be a mapping")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")


@dataclass(frozen=True)
class GridSpec:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def points(self) -> np.ndarray:
        xs = np.linspace(self.xmin, self.xmax, self.nx)
        ys = np.linspace(self.ymin, self.ymax, self.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
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


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _require_keys(raw, _TOP_KEYS, "config")
    if "rod" not in raw:
        raise ConfigError("missing required 'rod' block")
    if "background" not in raw:
        raise ConfigError("missing required 'background' block")

    rod_raw = raw["rod"]
    _require_keys(rod_raw, _ROD_KEYS, "rod")
    try:
        rod = RodSpec(L=float(rod_raw.get("L", 0.0)),
                      delta=float(rod_raw["delta"]),
                      center=tuple(rod_raw.get("center", (0.0, 0.0))),
                      angle=float(rod_raw.get("angle", 0.0)),
                      sigma0=float(rod_raw.get("sigma0", 2.0)))
    except KeyError as exc:
        raise ConfigError(f"rod block missing {exc}") from exc
    except ValidationError as exc:
        raise ConfigError(f"rod: {exc}") from exc

    bg_raw = raw["background"]
    _require_keys(bg_raw, _BACKGROUND_KEYS, "background")
    if "a" in bg_raw and "coefficients" in bg_raw:
        raise ConfigError("background: give either 'a' or 'coefficients', not both")
    if "a" in bg_raw:
        background = HarmonicBackground.linear(bg_raw["a"])
    elif "coefficients" in bg_raw:
        background = HarmonicBackground.polynomial(bg_raw["coefficients"])
    else:
        raise ConfigError("background: need 'a' or 'coefficients'")

    grid = None
    if "grid" in raw:
        _require_keys(raw["grid"], _GRID_KEYS, "grid")
        g = raw["grid"]
        grid = GridSpec(float(g["xmin"]), float(g["xmax"]),
                        float(g["ymin"]), float(g["ymax"]),
                        int(g["nx"]), int(g["ny"]))
        if grid.nx < 2 or grid.ny < 2:
            raise ConfigError("grid: nx and ny must be >= 2")

    sensors = None
    if "sensors" in raw:
        _require_keys(raw["sensors"], _SENSOR_KEYS, "sensors")
        s = raw["sensors"]
        sensors = SensorSpec(tuple(s.get("center", (0.0, 0.0))),
                             float(s["radius"]), int(s["count"]))
        # the sensor circle must enclose the rod with a safety margin
        P, Q = rod.cap_centers_world()
        c = np.asarray(sensors.center)
        reach = max(np.linalg.norm(P - c), np.linalg.norm(Q - c)) + rod.delta
        if reach + 2.0 * rod.delta >= sensors.radius:
            raise ConfigError("sensors: circle does not enclose the rod with "
                              "a 2*delta margin")

    n_cap = n_facade = None
    if "solver" in raw:
        _require_keys(raw["solver"], _SOLVER_KEYS, "solver")
        s = raw["solver"]
        n_cap = int(s["n_cap"]) if "n_cap" in s else None
        n_facade = int(s["n_facade"]) if "n_facade" in s else None

    deltas: tuple[float, ...] = ()
    probe_radius, probe_count = 3.0, 64
    probe_offset = (0.0, 1.0)
    if "sweep" in raw:
        _require_keys(raw["sweep"], _SWEEP_KEYS, "sweep")
        s = raw["sweep"]
        deltas = tuple(float(d) for d in s.get("deltas", ()))
        if any(d <= 0 for d in deltas):
            raise ConfigError("sweep: deltas must be positive")
        probe_radius = float(s.get("probe_radius", 3.0))
        probe_count = int(s.get("probe_count", 64))
        off = s.get("probe_offset", probe_offset)
        if len(off) != 2:
            raise ConfigError("sweep: probe_offset must have two entries")
        probe_offset = (float(off[0]), float(off[1]))

    return RunConfig(rod=rod, background=background, grid=grid,
                     sensors=sensors, n_cap=n_cap, n_facade=n_facade,
                     sweep_deltas=deltas,
                     sweep_probe_radius=probe_radius,
                     sweep_probe_count=probe_count,
                     sweep_probe_offset=probe_offset)
