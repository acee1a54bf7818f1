"""Single-measurement inversion: fit rod geometry to circle-boundary data.

The fit targets the identifiable leading-order channel strengths
c_ax = delta / (lam - 1/2) and c_tr = delta / (lam + 1/2) together with
(center, angle, length); the data constrains the rod only through these
combinations at leading order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import least_squares

from .asymptotics import AsymptoticModel, asym_u_linear, perturbation_linear
from .background import HarmonicBackground
from .geometry import RodSpec, ValidationError, rotation_matrix, signed_distance, write_csv
from .solver import eval_u, solve_forward


class IdentifiabilityError(ValueError):
    """Raised when the data cannot constrain the rod (e.g. a = 0)."""


class PlacementError(ValueError):
    """Raised when a sensor sits too close to the rod for the models."""


# A fit converges only to an RMS residual within this share of the signal
# RMS |u - H| (or within twice the stated noise).  Correct fits reach
# <= 1e-14 on closed-form data and <= 3.7e-5 on BEM data; fits that stop in
# a wrong local minimum (rod angle 1.2 or 3 pi/8, 64 sensors at radius 3)
# leave 2.7e-2 to 4.0e-2.
RESIDUAL_TOL = 1e-3


@dataclass(frozen=True)
class SensorSet:
    """Measurement points on a circle with recorded potential values and
    the stated RMS of their noise."""

    points: NDArray
    values: NDArray
    background: HarmonicBackground
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    noise_rms: float = 0.0

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FitResult:
    endpoints: tuple[NDArray, NDArray]
    strength: float
    strength_transverse: float
    center: NDArray
    angle: float
    length: float
    residual: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        P, Q = self.endpoints
        return {
            "endpoints": [list(map(float, P)), list(map(float, Q))],
            "strength": float(self.strength),
            "strength_transverse": float(self.strength_transverse),
            "center": list(map(float, self.center)),
            "angle": float(self.angle),
            "length": float(self.length),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }


def sensor_circle(center, radius: float, count: int) -> NDArray:
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.asarray(center, dtype=float) + radius * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1)


def simulate_measurements(spec: RodSpec, bg: HarmonicBackground,
                          points: NDArray, noise_rms: float = 0.0,
                          source: str = "bem", seed: int = 0,
                          n_cap: int | None = None,
                          n_facade: int | None = None) -> SensorSet:
    """Synthesize boundary voltage data at the sensor points.

    ``source`` selects the forward model ('bem' or 'asymptotic'); noise is
    additive, zero-mean, seed-controlled.
    """
    points = np.asarray(points, dtype=float)
    dist = signed_distance(spec, points)
    if np.any(dist < 2.0 * spec.delta):
        raise PlacementError(
            f"sensor within 2*delta of the rod (min distance {dist.min():.3g})")

    if source == "bem":
        sol = solve_forward(spec, bg, n_cap=n_cap, n_facade=n_facade)
        values, _ = eval_u(sol, points)
    elif source == "asymptotic":
        values = asym_u_linear(AsymptoticModel.from_spec(spec, bg), points)
    else:
        raise ValueError(f"unknown source {source!r}")

    if noise_rms > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_rms, size=len(points))

    center = points.mean(axis=0)
    radius = float(np.linalg.norm(points - center, axis=1).mean())
    return SensorSet(points=points, values=np.asarray(values),
                     background=bg, center=tuple(center), radius=radius,
                     noise_rms=noise_rms)


def _model_values(params: NDArray, a: NDArray, points: NDArray,
                  bg: HarmonicBackground) -> NDArray:
    z0 = params[:2]
    theta, L, c_ax, c_tr = params[2], params[3], params[4], params[5]
    R = rotation_matrix(theta)
    x_loc = (points - z0) @ R
    a_loc = R.T @ a
    return bg.value(points) + perturbation_linear(a_loc, abs(L), c_ax, c_tr,
                                                  x_loc)


def initial_center_guess(data: SensorSet) -> NDArray:
    """Warm start: centroid of |u - H| over the sensor circle."""
    w = np.abs(data.values - data.background.value(data.points))
    if w.sum() == 0.0:
        return np.asarray(data.center, dtype=float)
    return (w[:, None] * data.points).sum(axis=0) / w.sum()


def _canonicalize(z0: NDArray, theta: float, L: float):
    """Fold the theta <-> theta+pi symmetry: theta in [0, pi), L >= 0."""
    L = abs(L)
    theta = theta % np.pi
    return z0, theta, L


def fit_rod(data: SensorSet) -> FitResult:
    """Least-squares fit of (center, angle, length, strengths) to the data.

    Uses the leading-order closed form as forward model with
    finite-difference Jacobians.  LM starts from
    :func:`initial_center_guess`, angle 0, half the sensor radius as length
    and strengths (0.05, 0.025); the start should place the center within
    half the sensor radius and the angle within pi/4.
    ``converged`` means that LM stopped and the RMS residual is within
    RESIDUAL_TOL of the signal RMS |u - H| or within twice the stated
    noise: a stop at a wrong local minimum does not count.
    """
    a = data.background.linear_part
    if not data.background.is_linear or np.linalg.norm(a) == 0.0:
        raise IdentifiabilityError("fit requires a nontrivial linear background")

    z0 = initial_center_guess(data)
    L0 = data.radius / 2.0 if data.radius else 1.0
    p0 = np.array([z0[0], z0[1], 0.0, L0, 0.05, 0.025])

    def residuals(p: NDArray) -> NDArray:
        return _model_values(p, a, data.points, data.background) - data.values

    res = least_squares(residuals, p0, method="lm", xtol=1e-10, ftol=1e-10,
                        gtol=1e-10, max_nfev=400 * len(p0))

    z0, theta, L = _canonicalize(res.x[:2], res.x[2], res.x[3])
    c, c_tr = res.x[4], res.x[5]
    axis = np.array([np.cos(theta), np.sin(theta)])
    P_hat = z0 - (L / 2.0) * axis
    Q_hat = z0 + (L / 2.0) * axis
    rms = float(np.sqrt(np.mean(res.fun**2)))
    signal = float(np.sqrt(np.mean(
        (data.values - data.background.value(data.points)) ** 2)))
    converged = res.status > 0 and rms <= max(RESIDUAL_TOL * signal,
                                              2.0 * data.noise_rms)
    return FitResult(endpoints=(P_hat, Q_hat), strength=float(c),
                     strength_transverse=float(c_tr),
                     center=z0, angle=float(theta), length=float(L),
                     residual=rms, iterations=int(res.nfev),
                     converged=bool(converged))


def distinguishability_gap(spec1: RodSpec, spec2: RodSpec,
                           bg: HarmonicBackground, points: NDArray,
                           n_cap: int | None = None,
                           n_facade: int | None = None) -> float:
    """Max over sensors of |u1 - u2| between the two rods (full solves)."""
    points = np.asarray(points, dtype=float)
    u1, _ = eval_u(solve_forward(spec1, bg, n_cap=n_cap, n_facade=n_facade), points)
    u2, _ = eval_u(solve_forward(spec2, bg, n_cap=n_cap, n_facade=n_facade), points)
    return float(np.abs(u1 - u2).max())


def endpoint_error(result: FitResult, spec: RodSpec) -> float:
    """Worst endpoint displacement against the true rod, symmetry folded."""
    P, Q = spec.cap_centers_world()
    P_hat, Q_hat = result.endpoints
    direct = max(np.linalg.norm(P_hat - P), np.linalg.norm(Q_hat - Q))
    swapped = max(np.linalg.norm(P_hat - Q), np.linalg.norm(Q_hat - P))
    return float(min(direct, swapped))


def dump_measurements_csv(data: SensorSet, path: str) -> None:
    write_csv(path, ["x1", "x2", "u"], data.points[:, 0], data.points[:, 1],
              data.values)


def load_measurements_csv(path: str, bg: HarmonicBackground,
                          noise_rms: float = 0.0) -> SensorSet:
    pts, vals = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["x1", "x2", "u"]:
            raise ValidationError(f"{path}: expected header x1,x2,u")
        for ln, row in enumerate(reader, start=2):
            try:
                pts.append([float(row[0]), float(row[1])])
                vals.append(float(row[2]))
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"{path}:{ln}: bad row {row!r}") from exc
    points = np.asarray(pts)
    center = points.mean(axis=0)
    radius = float(np.linalg.norm(points - center, axis=1).mean())
    return SensorSet(points=points, values=np.asarray(vals), background=bg,
                     center=tuple(center), radius=radius, noise_rms=noise_rms)


def dump_fit_json(result: FitResult, path: str) -> None:
    with open(path, "w") as f:
        json.dump(result.to_dict(), f, indent=2)
        f.write("\n")
