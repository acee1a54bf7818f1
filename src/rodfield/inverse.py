"""Single-measurement inversion: fit rod geometry to circle-boundary data.

The fit targets the identifiable leading-order channel strengths
c_ax = delta / (lam - 1/2) and c_tr = delta / (lam + 1/2) together with
(center, angle, length); the data constrains the rod only through these
combinations at leading order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import least_squares

from .asymptotics import _cap_terms, _linear_form
from .background import HarmonicBackground
from .geometry import RodSpec, ValidationError, rotation_matrix, signed_distance, write_csv
from .solver import perturbation


class IdentifiabilityError(ValueError):
    """Raised when the data cannot constrain the rod (a = 0, or fewer
    sensors than fit parameters)."""


class PlacementError(ValidationError):
    """Raised when a sensor sits too close to the rod for the models."""


# A fit converges only to an RMS residual within this share of the signal
# RMS |u - H| (or within twice the stated noise).  Over 24 rod angles
# (L = 2, delta = 0.05, 64 sensors at radius 3) correct fits reach <= 3e-14
# on closed-form data and <= 3.9e-5 on BEM data; the sum of two rods'
# fields, which no single rod explains, leaves 2.2e-2.
RESIDUAL_TOL = 1e-3

# Rod angles at which the LM start solves for the channel amplitudes.
START_ANGLES = np.arange(8) * (np.pi / 8.0)
# The fit's parameters: centre (2), angle, length and two channel
# amplitudes.  Fewer sensors than this leave LM underdetermined.
N_PARAMS = 6


@dataclass(frozen=True)
class SensorSet:
    """Measurement points on a circle with recorded potential values and
    the stated RMS of their noise."""

    points: NDArray
    values: NDArray
    background: HarmonicBackground
    noise_rms: float = 0.0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def center(self) -> NDArray:
        """Centroid of the sensor points."""
        return self.points.mean(axis=0)

    @property
    def radius(self) -> float:
        """Mean distance of the sensors from their centroid."""
        return float(np.linalg.norm(self.points - self.center, axis=1).mean())


@dataclass(frozen=True)
class FitResult:
    endpoints: tuple[NDArray, NDArray]
    strength: float
    strength_transverse: float
    center: NDArray
    angle: float
    length: float
    residual: float
    residual_rel: float | None
    iterations: int
    converged: bool
    strength_stderr: float | None
    strength_transverse_stderr: float | None

    def to_dict(self) -> dict:
        """Fields in order, arrays as (nested) lists of plain floats; a
        value that is not there stays None."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist()
                for f in fields(self)}


def _require_identifiable(bg: HarmonicBackground) -> None:
    if not bg.is_linear or np.linalg.norm(bg.linear_part) == 0.0:
        raise IdentifiabilityError("fit requires a nontrivial linear background")


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

    ``source`` is the model of :func:`solver.perturbation` ('bem' or
    'asymptotic'); noise is additive, zero-mean, seed-controlled.  Data on a
    background that :func:`fit_rod` refuses are refused before the solve.
    """
    _require_identifiable(bg)
    points = np.asarray(points, dtype=float)
    dist = signed_distance(spec, points)
    if np.any(dist < 2.0 * spec.delta):
        raise PlacementError(
            f"sensor within 2*delta of the rod (min distance {dist.min():.3g})")
    values = bg.value(points) + perturbation(spec, bg, points, source,
                                             n_cap, n_facade)[0]
    if noise_rms > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_rms, size=len(points))

    return SensorSet(points=points, values=np.asarray(values),
                     background=bg, noise_rms=noise_rms)


def _closed_form(params: NDArray, points: NDArray, jac: bool = False):
    """u - H of a rod with parameters (z0, theta, L, b_ax, b_tr), where
    b_ax = c_ax*a_loc1 and b_tr = c_tr*a_loc2 are the channel amplitudes,
    and with ``jac`` also its (m, 6) Jacobian in those parameters.

    At rod-frame points x = (p - z0) R(theta) the rod-frame gradient g
    comes from f1, f2; d/dz0 is -R g and, since dx/dtheta = (x2, -x1),
    d/dtheta is g1 x2 - g2 x1.  d/dL comes from the cap terms, times
    sign(L) as the model uses |L|.  The amplitude columns are exact.
    """
    rot = rotation_matrix(params[2])
    x = (points - params[:2]) @ rot
    x1, x2 = x[:, 0], x[:, 1]
    L, b_ax, b_tr = abs(params[3]), params[4], params[5]
    tq, tp, rq2, rp2, f1, f2, pair, log_qp = _cap_terms(x1, x2, L)
    u = _linear_form((1.0, 1.0), b_ax, b_tr, pair, log_qp)
    if not jac:
        return u
    g1 = (b_ax * f2 + b_tr * f1) / np.pi
    g2 = (b_ax * f1 - b_tr * f2) / np.pi
    J = np.empty((len(x), N_PARAMS))
    J[:, :2] = np.stack([g1, g2], axis=1) @ -rot.T
    J[:, 2] = g1 * x2 - g2 * x1
    J[:, 3] = np.sign(params[3]) / (-2.0 * np.pi) * (
        b_ax * (tq / rq2 + tp / rp2) + b_tr * x2 * (1.0 / rq2 + 1.0 / rp2))
    J[:, 4:] = _amplitude_columns(pair, log_qp)
    return u, J


def _amplitude_columns(pair: NDArray, log_qp: NDArray) -> NDArray:
    """du/d(b_ax, b_tr), (m, 2): u is linear in the two amplitudes."""
    return np.stack([log_qp / (2.0 * np.pi), -pair / np.pi], axis=1)


def _start(data: SensorSet, signal: NDArray) -> NDArray:
    """LM start: the centre guess, half the sensor radius as length, and of
    START_ANGLES the angle whose least-squares amplitudes fit best."""
    z0 = initial_center_guess(data)
    L0 = data.radius / 2.0 if data.radius else 1.0
    starts = []
    for theta in START_ANGLES:
        x = (data.points - z0) @ rotation_matrix(theta)
        cols = _amplitude_columns(*_cap_terms(x[:, 0], x[:, 1], L0)[6:])
        b = np.linalg.lstsq(cols, signal, rcond=None)[0]
        starts.append((np.linalg.norm(cols @ b - signal),
                       np.array([*z0, theta, L0, *b])))
    return min(starts, key=lambda s: s[0])[1]


def initial_center_guess(data: SensorSet) -> NDArray:
    """Warm start: centroid of |u - H| over the sensor circle."""
    w = np.abs(data.values - data.background.value(data.points))
    if w.sum() == 0.0:
        return data.center
    return (w[:, None] * data.points).sum(axis=0) / w.sum()


def fit_rod(data: SensorSet) -> FitResult:
    """Least-squares fit of (center, angle, length, strengths) to the data.

    Uses the leading-order closed form as forward model, with its analytic
    Jacobian (:func:`_closed_form`).  LM fits the channel amplitudes
    b_ax = c_ax*a_loc1 and b_tr = c_tr*a_loc2 rather than the strengths,
    which keeps the parameters finite where a rod-frame component of a
    vanishes; c_ax and c_tr are recovered at the fitted angle (a strength
    whose component vanishes there is undetermined).  The start
    takes :func:`initial_center_guess` and half the sensor radius as length;
    at each angle k*pi/8 the two amplitudes enter linearly and are solved
    by linear least squares, and LM starts from the angle that leaves the
    smallest residual.
    ``converged`` means that LM stopped and the RMS residual is within
    RESIDUAL_TOL of the signal RMS |u - H| or within twice the stated
    noise: a stop at a wrong local minimum does not count, and neither
    does any fit to data with no signal, whose ``residual_rel`` is None.
    Data holding a non-finite value are refused with ValidationError, and
    so are data whose sum of squares of |u - H| would overflow.
    The strengths' standard errors come from s^2 (J^T J)^-1 at the
    solution (:func:`_amplitude_stderr`), divided by |a_loc| as the
    strengths are; an undetermined strength shows as an error of its own
    size or more, and both errors are None where J^T J is singular.
    """
    _require_identifiable(data.background)
    if len(data) < N_PARAMS:
        raise IdentifiabilityError(f"fit needs at least {N_PARAMS} sensors for "
                                   f"its {N_PARAMS} parameters, got {len(data)}")
    if not (np.isfinite(data.points).all() and np.isfinite(data.values).all()):
        raise ValidationError("data: a value is not finite (noise past the float range?)")
    signal = data.values - data.background.value(data.points)
    # LM and the RMS values below sum squares of the signal's size
    top = float(np.abs(signal).max())
    if top > np.sqrt(np.finfo(float).max / len(signal)):
        raise ValidationError(f"data: |u - H| reaches {top:.3g}, where the fit's "
                              "sum of squares overflows")
    p0 = _start(data, signal)

    def residuals(p: NDArray) -> NDArray:
        return _closed_form(p, data.points) - signal

    def jacobian(p: NDArray) -> NDArray:
        return _closed_form(p, data.points, jac=True)[1]

    res = least_squares(residuals, p0, jac=jacobian, method="lm", xtol=1e-10,
                        ftol=1e-10, gtol=1e-10, max_nfev=400 * len(p0))

    a_loc = rotation_matrix(res.x[2]).T @ data.background.linear_part
    c, c_tr = res.x[4] / a_loc[0], res.x[5] / a_loc[1]
    se_b = _amplitude_stderr(res.jac, res.fun)
    se, se_tr = (None, None) if se_b is None else (se_b / np.abs(a_loc)).tolist()
    # fold the theta <-> theta + pi symmetry: theta in [0, pi), L >= 0
    z0, theta, L = res.x[:2], res.x[2] % np.pi, abs(res.x[3])
    axis = np.array([np.cos(theta), np.sin(theta)])
    P_hat = z0 - (L / 2.0) * axis
    Q_hat = z0 + (L / 2.0) * axis
    rms = float(np.sqrt(np.mean(res.fun**2)))
    signal_rms = float(np.sqrt(np.mean(signal**2)))
    # data equal to H has no rod in it: a zero residual there is no fit
    converged = res.status > 0 and signal_rms > 0 and rms <= max(
        RESIDUAL_TOL * signal_rms, 2.0 * data.noise_rms)
    return FitResult(endpoints=(P_hat, Q_hat), strength=float(c),
                     strength_transverse=float(c_tr),
                     center=z0, angle=float(theta), length=float(L),
                     residual=rms,
                     residual_rel=rms / signal_rms if signal_rms else None,
                     iterations=int(res.nfev), converged=bool(converged),
                     strength_stderr=se, strength_transverse_stderr=se_tr)


def _amplitude_stderr(jac: NDArray, r: NDArray) -> NDArray | None:
    """Standard errors of (b_ax, b_tr): the diagonal of s^2 (J^T J)^-1 with
    s^2 = |r|^2 / (m - 6), through the SVD of J.  None where J^T J is
    singular (rank below 6 at np.linalg.matrix_rank's tolerance) or m = 6
    leaves s^2 undefined."""
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    dof = len(r) - N_PARAMS
    if dof == 0 or sv[-1] <= sv[0] * max(jac.shape) * np.finfo(float).eps:
        return None
    return np.sqrt((r @ r) / dof * ((vt[:, 4:] / sv[:, None]) ** 2).sum(axis=0))


def distinguishability_gap(spec1: RodSpec, spec2: RodSpec,
                           bg: HarmonicBackground, points: NDArray,
                           n_cap: int | None = None,
                           n_facade: int | None = None) -> float:
    """Max over sensors of |u1 - u2| = |s1 - s2| between the two rods'
    BEM perturbations (full solves)."""
    points = np.asarray(points, dtype=float)
    s1, s2 = (perturbation(spec, bg, points, "bem", n_cap, n_facade)[0]
              for spec in (spec1, spec2))
    return float(np.abs(s1 - s2).max())


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
                x1, x2, u = map(float, row[:3])
            except ValueError as exc:
                raise ValidationError(f"{path}:{ln}: bad row {row!r}") from exc
            # NaN passes every later check and ends in an SVD failure in the fit
            if not np.isfinite((x1, x2, u)).all():
                raise ValidationError(f"{path}:{ln}: non-finite value in row {row!r}")
            pts.append([x1, x2])
            vals.append(u)
    if not pts:
        raise ValidationError(f"{path}: no data rows")
    return SensorSet(points=np.asarray(pts), values=np.asarray(vals), background=bg,
                     noise_rms=noise_rms)


def dump_fit_json(result: FitResult, path: str) -> str:
    """Write ``result`` as strict JSON (no NaN or Infinity) and return the
    text; a non-finite value raises ValueError before the file is opened."""
    text = json.dumps(result.to_dict(), indent=2, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")
    return text
