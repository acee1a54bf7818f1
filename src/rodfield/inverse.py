"""Single-measurement inversion: fit rod geometry to circle-boundary data.

The fit targets the identifiable leading-order channel strengths
c_ax = delta / (lam - 1/2) and c_tr = delta / (lam + 1/2) together with
(center, angle, length); the data constrains the rod only through these
combinations at leading order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .asymptotics import _log_ratio
from .background import HarmonicBackground
from .geometry import RodSpec, ValidationError, as_points, rotation_matrix, signed_distance
from .potentials import SolverError
from .solver import perturbation


# A fit converges only to an RMS residual within this share of the signal
# RMS |u - H| (or within twice the stated noise).  Over 24 rod angles
# (L = 2, delta = 0.05, 64 sensors at radius 3) correct fits reach <= 3e-14
# on closed-form data and <= 3.9e-5 on BEM data; the sum of two rods'
# fields, which no single rod explains, leaves 2.2e-2.
RESIDUAL_TOL = 1e-3

# The fit's parameters: centre (2), angle, length and two channel
# amplitudes.  Fewer distinct sensors than this leave LM underdetermined.
N_PARAMS = 6
# The moment start is kept where its RMS residual is within this share of the
# signal RMS plus twice the stated noise; on sensors that do not enclose the rod
# its series diverges.  Without noise it leaves <= 2e-2 on circles around the
# rod, mostly < 0.2 on grids around it, 0.24 to 9 on a line or arc to one side.
START_TOL = 0.3
# LM stops where a step moves the scaled parameters by at most this share
# of their norm (MINPACK's xtol), where a step's actual and predicted
# reductions of the cost are both at most this share of it (ftol), or where
# r makes at most this cosine with every column of J (gtol).
LM_TOL = 1e-10
# LM gives up after this many evaluations of (r, J), unconverged.
MAX_NFEV = 400 * N_PARAMS


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
    lm_stop: str
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
        raise SolverError("fit requires a nontrivial linear background")


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
    points = as_points(points)
    dist = signed_distance(spec, points)
    if np.any(dist < 2.0 * spec.delta):
        raise ValidationError(
            f"sensor within 2*delta of the rod (min distance {dist.min():.3g})")
    values = bg.value(points) + perturbation(spec, bg, points, source,
                                             n_cap, n_facade)[0]
    if noise_rms > 0.0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_rms, len(points))
    return SensorSet(points=points, values=np.asarray(values),
                     background=bg, noise_rms=noise_rms)


def _closed_form(params: NDArray, points: NDArray) -> tuple[NDArray, NDArray]:
    """s = Re[A lg] at points z = x1 + i x2 for parameters (z0, theta, L, b_ax, b_tr):
    A = (b_ax + i b_tr)/pi with b_ax = c_ax a_loc1 and b_tr = c_tr a_loc2, cap centres
    p, q = z0 -+ (|L|/2) e^(i theta), and lg = log((z - q)/(z - p)) and lg' from the
    forward model's :func:`asymptotics._log_ratio`; and its (m, 6) Jacobian.
    The placement enters only through p and q, a shift dp' of p moving s
    by Re[A dp'/(z - p)], so a shift dz0 of both moves it by -Re[A lg' dz0]."""
    z0, turn = params[0] + 1j * params[1], np.exp(1j * params[2])
    a, half = complex(params[4], params[5]) / np.pi, abs(params[3]) / 2.0 * turn
    z = points @ np.array([1.0, 1.0j]) - z0
    zp, zq = z + half, z - half
    lg, dlg, _ = _log_ratio(zp, zq, 2.0 * half)
    s = (a * lg).real
    shift, spread = -a * dlg, -a * (1.0 / zp + 1.0 / zq) * turn
    return s, np.column_stack([
        shift.real, -shift.imag, -abs(params[3]) / 2.0 * spread.imag,
        np.sign(params[3]) / 2.0 * spread.real, lg.real / np.pi, -lg.imag / np.pi])


def _far_moments(data: SensorSet, signal: NDArray) -> NDArray:
    """M_1..M_K of the far field Re sum_k M_k / (k w^k) about the sensors'
    centroid, w over their mean radius, by least squares; K = min(8, (m - 1)
    // 2), at least 3.  The series holds only beyond both caps, so sensors
    within half the mean radius, as in the middle of a grid, are left out."""
    w = (data.points - data.center) @ np.array([1.0, 1.0j]) / data.radius
    far = np.abs(w) >= 0.5
    w, signal = w[far], signal[far]
    K = max(3, min(8, (len(signal) - 1) // 2))
    k = np.arange(1, K + 1)
    terms = w[:, None] ** -k / k
    b = np.linalg.lstsq(np.hstack([terms.real, -terms.imag]), signal, rcond=None)[0]
    return b[:K] + 1j * b[K:]


def _start(data: SensorSet, signal: NDArray) -> NDArray:
    """LM start: :func:`_closed_form` inverted from the data's far-field
    moments (:func:`_far_moments`).  With A = b/pi its M_k = A (p'^k - q'^k)
    for p' = p - c and q' = q - c, c the centroid: p' + q' = M_2/M_1,
    (q' - p')^2 = 4 M_3/M_1 - 3 (M_2/M_1)^2 and A = M_1/(p' - q').  Where that
    is not finite (no signal, p' = q') or leaves more than START_TOL of the
    signal RMS, LM starts at the centroid, angle 0, half the sensor radius as
    length and no amplitudes."""
    c, rho = data.center, data.radius
    M = _far_moments(data, signal)
    with np.errstate(all="ignore"):
        mid = M[1] / M[0]
        d = np.sqrt(4.0 * M[2] / M[0] - 3.0 * mid * mid)
        A = -np.pi * M[0] / d
        start = np.array([*(c + rho / 2.0 * np.array([mid.real, mid.imag])),
                          np.angle(d), rho * abs(d), A.real, A.imag])
        rms = np.sqrt(np.mean((_closed_form(start, data.points)[0] - signal) ** 2))
    if rms <= START_TOL * np.sqrt(np.mean(signal**2)) + 2.0 * data.noise_rms:
        return start
    return np.array([*c, 0.0, rho / 2.0, 0.0, 0.0])


def _lm(fun, x0: NDArray):
    """Levenberg-Marquardt on the residual of ``fun(x) -> (r, J)`` from x0.

    A trial step h solves min |J h + r|^2 + mu |D h|^2 by least squares,
    where D holds the largest column norms of J met so far (Moré 1978).
    mu starts at 1e-3 and follows Nielsen's rule (1999): a step that lowers
    the cost |r|^2 is taken and mu shrinks by max(1/3, 1 - (2 rho - 1)^3),
    rho being the ratio of actual to predicted reduction; any other step
    is refused and mu grows by a factor that doubles on each refusal.  The
    xtol and ftol stops of LM_TOL are tested after every trial, taken or
    not: at a minimum every trial is refused, and only they end the run.
    Returns x, r, J, the stop ("gtol", "ftol", "xtol" or "max_nfev") and
    the number of evaluations.
    """
    x = np.asarray(x0, dtype=float)
    r, J = fun(x)
    nfev, mu, grow = 1, 1e-3, 2.0
    m, n = J.shape
    d = np.zeros(n)
    # the damped system [J; sqrt(mu) D] h = [-r; 0], built once and refilled;
    # damping is a view of the diagonal of its lower block
    A, rhs = np.zeros((m + n, n)), np.zeros(m + n)
    damping = A[m:].reshape(-1)[::n + 1]
    while True:
        cost = r @ r
        cols = np.linalg.norm(J, axis=0)
        d = np.maximum(d, cols)
        if np.all(np.abs(J.T @ r) <= LM_TOL * cols * np.sqrt(cost)):
            return x, r, J, "gtol", nfev
        A[:m] = J
        np.negative(r, out=rhs[:m])
        while True:
            if nfev >= MAX_NFEV:
                return x, r, J, "max_nfev", nfev
            np.multiply(np.sqrt(mu), d, out=damping)
            h = np.linalg.lstsq(A, rhs, rcond=None)[0]
            r_new, J_new = fun(x + h)
            nfev += 1
            # |r|^2 - |r + J h|^2, exact as h solves the damped problem
            predicted = np.sum((J @ h) ** 2) + 2.0 * mu * np.sum((d * h) ** 2)
            actual = cost - r_new @ r_new
            small_step = np.linalg.norm(d * h) <= LM_TOL * np.linalg.norm(d * x)
            small_gain = max(abs(actual), predicted) <= LM_TOL * cost
            taken = actual > 0.0
            if taken:
                x, r, J = x + h, r_new, J_new
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
                grow = 2.0
            else:
                mu *= grow
                grow *= 2.0
            if small_gain or small_step:
                return x, r, J, "ftol" if small_gain else "xtol", nfev
            if taken:
                break


def fit_rod(data: SensorSet) -> FitResult:
    """Least-squares fit of (center, angle, length, strengths) to the data.

    Uses the leading-order closed form as forward model, with its analytic
    Jacobian (:func:`_closed_form`), in the Levenberg-Marquardt of :func:`_lm`.
    LM fits the channel amplitudes b_ax = c_ax*a_loc1 and b_tr = c_tr*a_loc2
    rather than the strengths, which keeps the parameters finite where a
    rod-frame component of a vanishes; c_ax and c_tr are recovered at the
    fitted angle (a strength whose component vanishes there is undetermined).
    LM starts from the closed form inverted from the data's first three
    far-field moments (:func:`_start`), exact on closed-form data, so it only
    polishes.  ``lm_stop`` is the test that ended LM ("gtol", "ftol", "xtol",
    or "max_nfev" at MAX_NFEV evaluations).
    ``converged`` means that LM stopped on one of its LM_TOL tests, not at
    MAX_NFEV evaluations, and that the RMS residual is within RESIDUAL_TOL of
    the signal RMS |u - H| or within twice the stated noise: a stop at a
    wrong local minimum does not count.  Nor does a fit to N_PARAMS sensors,
    whose residual is zero wherever LM stops, or one whose signal RMS is at
    most twice the noise RMS, as the no-rod model s = 0 explains such data
    as well; data with no signal are one case, and their ``residual_rel`` is
    None.  Data holding a non-finite value are refused with ValidationError,
    and so are data whose sum of squares of |u - H| would overflow.
    The strengths' standard errors are those of :func:`_amplitude_stderr`
    over |a_loc|; an undetermined strength shows an error of its size or more.
    """
    _require_identifiable(data.background)
    # a repeated sensor adds a row but no constraint; -0.0 and 0.0 are one point
    distinct = len(set(map(tuple, data.points.tolist())))
    if distinct < N_PARAMS:
        raise SolverError(f"fit needs at least {N_PARAMS} sensors for its "
                          f"{N_PARAMS} parameters, got {distinct} distinct")
    if not (np.isfinite(data.points).all() and np.isfinite(data.values).all()):
        raise ValidationError("data: a value is not finite (noise past the float range?)")
    signal = data.values - data.background.value(data.points)
    # LM and the RMS values below sum squares of the signal's size
    top = float(np.abs(signal).max())
    if top > np.sqrt(np.finfo(float).max / len(signal)):
        raise ValidationError(f"data: |u - H| reaches {top:.3g}, where the fit's "
                              "sum of squares overflows")

    def fun(p: NDArray) -> tuple[NDArray, NDArray]:
        u, J = _closed_form(p, data.points)
        return u - signal, J

    p, r, J, stop, nfev = _lm(fun, _start(data, signal))

    a_loc = rotation_matrix(p[2]).T @ data.background.linear_part
    c, c_tr = p[4] / a_loc[0], p[5] / a_loc[1]
    se_b = _amplitude_stderr(J, r)
    se, se_tr = (None, None) if se_b is None else (se_b / np.abs(a_loc)).tolist()
    # fold the theta <-> theta + pi symmetry: theta in [0, pi), L >= 0; mod
    # pi twice, as a theta just below 0 folds to pi - |theta|, rounding to pi
    z0, theta, L = p[:2], p[2] % np.pi % np.pi, abs(p[3])
    axis = np.array([np.cos(theta), np.sin(theta)])
    P_hat, Q_hat = z0 - (L / 2.0) * axis, z0 + (L / 2.0) * axis
    rms = float(np.sqrt(np.mean(r**2)))
    signal_rms = float(np.sqrt(np.mean(signal**2)))
    # where the no-rod model s = 0 fits within the noise, so does any rod;
    # data equal to H has no rod in it, and a zero residual there is no fit
    converged = (distinct > N_PARAMS and stop != "max_nfev" and signal_rms > 2.0 * data.noise_rms
                 and rms <= max(RESIDUAL_TOL * signal_rms, 2.0 * data.noise_rms))
    return FitResult(endpoints=(P_hat, Q_hat), strength=float(c),
                     strength_transverse=float(c_tr), center=z0, angle=float(theta),
                     length=float(L), residual=rms,
                     residual_rel=rms / signal_rms if signal_rms else None,
                     iterations=nfev, lm_stop=stop, converged=bool(converged),
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
                           bg: HarmonicBackground, points: NDArray) -> float:
    """Max over sensors of |u1 - u2| = |s1 - s2| between the two rods'
    BEM perturbations (full solves)."""
    s1, s2 = (perturbation(spec, bg, points, "bem")[0] for spec in (spec1, spec2))
    return float(np.abs(s1 - s2).max())


def endpoint_error(result: FitResult, spec: RodSpec) -> float:
    """Worst endpoint displacement against the true rod, symmetry folded."""
    P, Q = spec.cap_centers_world()
    P_hat, Q_hat = result.endpoints
    direct = max(np.linalg.norm(P_hat - P), np.linalg.norm(Q_hat - Q))
    swapped = max(np.linalg.norm(P_hat - Q), np.linalg.norm(Q_hat - P))
    return float(min(direct, swapped))
