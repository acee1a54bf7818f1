"""Run configuration: a small YAML file with fixed, typo-checked keys."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .background import HarmonicBackground
from .geometry import RodSpec


class ConfigError(ValueError):
    """Raised for unknown keys, missing blocks or inconsistent values."""


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


def _rod(r: dict) -> dict:
    return {"rod": RodSpec(L=float(r.get("L", 0.0)), delta=float(r["delta"]),
                           center=_pair(r.get("center", (0.0, 0.0)), "center"),
                           angle=float(r.get("angle", 0.0)),
                           sigma0=float(r.get("sigma0", 2.0)))}


def _background(b: dict) -> dict:
    if "a" in b and "coefficients" in b:
        raise ValueError("give either 'a' or 'coefficients', not both")
    if "a" in b:
        return {"background": HarmonicBackground.linear(b["a"])}
    if "coefficients" in b:
        return {"background": HarmonicBackground.polynomial(b["coefficients"])}
    raise ValueError("need 'a' or 'coefficients'")


def _grid(g: dict) -> dict:
    grid = GridSpec(float(g["xmin"]), float(g["xmax"]),
                    float(g["ymin"]), float(g["ymax"]), int(g["nx"]), int(g["ny"]))
    if grid.nx < 2 or grid.ny < 2:
        raise ValueError("nx and ny must be >= 2")
    return {"grid": grid}


def _sensors(s: dict) -> dict:
    return {"sensors": SensorSpec(_pair(s.get("center", (0.0, 0.0)), "center"),
                                  float(s["radius"]), int(s["count"]))}


def _solver(s: dict) -> dict:
    return {k: int(s[k]) for k in ("n_cap", "n_facade") if k in s}


def _sweep(s: dict) -> dict:
    deltas = tuple(float(d) for d in s.get("deltas", ()))
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    return {"sweep_deltas": deltas,
            "sweep_probe_radius": float(s.get("probe_radius", 3.0)),
            "sweep_probe_count": int(s.get("probe_count", 64)),
            "sweep_probe_offset": _pair(s.get("probe_offset", (0.0, 1.0)),
                                        "probe_offset")}


def _pair(v, name: str) -> tuple[float, float]:
    if len(v) != 2:
        raise ValueError(f"{name} must have two entries, got {len(v)}")
    return float(v[0]), float(v[1])


# block -> (allowed keys, parser returning RunConfig fields), in parse order
_BLOCKS = {
    "rod": ({"L", "delta", "center", "angle", "sigma0"}, _rod),
    "background": ({"a", "coefficients"}, _background),
    "grid": ({"xmin", "xmax", "ymin", "ymax", "nx", "ny"}, _grid),
    "sensors": ({"center", "radius", "count"}, _sensors),
    # n_quad set the order of a quadrature the closed form no longer uses;
    # it still loads, and is ignored, so older configs keep working
    "solver": ({"n_cap", "n_facade", "n_quad"}, _solver),
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
        # the sensor circle must enclose the rod with a safety margin
        rod, c = cfg.rod, np.asarray(cfg.sensors.center)
        P, Q = rod.cap_centers_world()
        reach = max(np.linalg.norm(P - c), np.linalg.norm(Q - c)) + rod.delta
        if reach + 2.0 * rod.delta >= cfg.sensors.radius:
            raise ConfigError("sensors: circle does not enclose the rod with "
                              "a 2*delta margin")
    return cfg
