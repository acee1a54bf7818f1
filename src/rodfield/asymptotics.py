"""Leading-order closed forms for the perturbed field of a thin rod.

For a linear background a.x the perturbation has an exact leading term
built from two arctan terms (transverse component) and a log ratio of the
cap distances (axial component); its gradient is expressed through the
localisation functions f1, f2, which blow up like 1/delta at the caps.
For a general degree-2 harmonic background the leading term is a pair of
axis integrals evaluated by graded Gauss-Legendre quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import quad

from .background import HarmonicBackground
from .geometry import RodSpec, rotation_matrix, to_local
from . import potentials
from .solver import lambda_of_sigma

__all__ = [
    "AsymptoticModel", "cap_points", "f1_f2", "f_sq_sum", "f_sq_sum_cap_form",
    "asym_u_linear", "asym_grad_linear", "asym_u_general", "asymptotic_field",
    "asymptotic_perturbation", "a_delta_apply",
    "perturbation_linear", "perturbation_grad_linear",
]


class SingularPointError(ValueError):
    """Evaluation requested at a cap centre, where f1/f2 are singular."""


def cap_points(L: float) -> tuple[NDArray, NDArray]:
    """Local-frame cap centres P = (-L/2, 0), Q = (L/2, 0)."""
    return np.array([-L / 2.0, 0.0]), np.array([L / 2.0, 0.0])


def _check_not_singular(x1: NDArray, x2: NDArray, L: float) -> None:
    rq = (x1 - L / 2.0) ** 2 + x2**2
    rp = (x1 + L / 2.0) ** 2 + x2**2
    if np.any(rq == 0.0) or np.any(rp == 0.0):
        raise SingularPointError("evaluation point coincides with a cap centre")


def f1_f2(x, L: float) -> tuple[NDArray, NDArray]:
    """Localisation functions of the perturbed gradient (local frame)."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    _check_not_singular(x1, x2, L)
    rq2 = (x1 - L / 2.0) ** 2 + x2**2
    rp2 = (x1 + L / 2.0) ** 2 + x2**2
    f1 = x2 / rq2 - x2 / rp2
    f2 = (x1 - L / 2.0) / rq2 - (x1 + L / 2.0) / rp2
    return f1, f2


def f_sq_sum(x, L: float) -> NDArray:
    """f1^2 + f2^2 evaluated directly."""
    f1, f2 = f1_f2(x, L)
    return f1**2 + f2**2


def f_sq_sum_cap_form(x, L: float) -> NDArray:
    """f1^2 + f2^2 via the cap-distance identity.

    (1/|x-Q| - 1/|x-P|)^2 + (2/(|x-P||x-Q|)) (1 - cos of the P,Q aperture);
    an algebraically independent route used to cross-check f1_f2.
    """
    x = np.asarray(x, dtype=float)
    P, Q = cap_points(L)
    dp = x - P
    dq = x - Q
    rp = np.linalg.norm(dp, axis=-1)
    rq = np.linalg.norm(dq, axis=-1)
    if np.any(rp == 0.0) or np.any(rq == 0.0):
        raise SingularPointError("evaluation point coincides with a cap centre")
    cosang = np.einsum("...i,...i->...", dp, dq) / (rp * rq)
    return (1.0 / rq - 1.0 / rp) ** 2 + (2.0 / (rp * rq)) * (1.0 - cosang)


def _arctan_pair(x1: NDArray, x2: NDArray, L: float) -> NDArray:
    """arctan((L/2 - x1)/x2) + arctan((L/2 + x1)/x2), x2 = 0 meaning +0.

    On the axis itself the pair jumps across the segment |x1| < L/2; the
    +0 convention selects the upper-side limit (pi inside, 0 outside).
    """
    tq = L / 2.0 - x1
    tp = L / 2.0 + x1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.arctan(tq / x2) + np.arctan(tp / x2)
    on_axis = x2 == 0.0
    if np.any(on_axis):
        limit = np.sign(tq) * (np.pi / 2.0) + np.sign(tp) * (np.pi / 2.0)
        out = np.where(on_axis, limit, out)
    return out


def perturbation_linear(a, L: float, c_ax: float, c_tr: float, x) -> NDArray:
    """Leading-order perturbation u - a.x in the rod frame.

    The axial component a1 couples through the log ratio of cap distances
    with strength c_ax = delta/(lam - 1/2); the transverse component a2
    couples through the arctan pair with strength c_tr = delta/(lam + 1/2)
    and opposite sign.  The two channels see opposite ends of the operator
    spectrum: the axial (cap-charge) response is even across the rod axis
    while the transverse response is a thin dipole sheet, odd across the
    axis, whence the distinct resolvent constants.  The model depends on
    (delta, lam) only through the pair (c_ax, c_tr).
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    _check_not_singular(x1, x2, L)
    rq2 = (x1 - L / 2.0) ** 2 + x2**2
    rp2 = (x1 + L / 2.0) ** 2 + x2**2
    term_a2 = -(c_tr / np.pi) * a[1] * _arctan_pair(x1, x2, L)
    term_a1 = (c_ax / (2.0 * np.pi)) * a[0] * np.log(rq2 / rp2)
    return term_a2 + term_a1


def perturbation_grad_linear(a, L: float, c_ax: float, c_tr: float, x) -> NDArray:
    """Gradient of the leading-order perturbation, via f1 and f2."""
    a = np.asarray(a, dtype=float)
    f1, f2 = f1_f2(x, L)
    gx = c_ax * f2 * a[0] + c_tr * f1 * a[1]
    gy = c_ax * f1 * a[0] - c_tr * f2 * a[1]
    return (1.0 / np.pi) * np.stack([gx, gy], axis=-1)


@dataclass(frozen=True)
class AsymptoticModel:
    """Closed-form field model for one rod placement and background.

    Evaluation is frame-covariant: world points are pulled into the local
    frame, the closed forms are evaluated there, and gradients are rotated
    back.
    """

    L: float
    delta: float
    lam: float
    center: tuple[float, float] = (0.0, 0.0)
    angle: float = 0.0
    background: HarmonicBackground = None

    @classmethod
    def from_spec(cls, spec: RodSpec, bg: HarmonicBackground) -> "AsymptoticModel":
        """The model of a placed rod; lam comes from its contrast sigma0."""
        return cls(L=spec.L, delta=spec.delta, lam=lambda_of_sigma(spec.sigma0),
                   center=spec.center, angle=spec.angle, background=bg)

    @property
    def strength(self) -> float:
        """Axial channel strength c_ax = delta / (lam - 1/2)."""
        return self.delta / (self.lam - 0.5)

    @property
    def strength_transverse(self) -> float:
        """Transverse channel strength c_tr = delta / (lam + 1/2)."""
        return self.delta / (self.lam + 0.5)

    def _local_background(self) -> HarmonicBackground:
        return self.background.rotated(self.angle)


def _linear_args(model: AsymptoticModel, x) -> tuple:
    """Arguments (a, L, c_ax, c_tr, x) of the linear closed forms, rod frame."""
    return (model._local_background().linear_part, model.L, model.strength,
            model.strength_transverse, to_local(model, x))


def asym_u_linear(model: AsymptoticModel, x) -> NDArray:
    """Leading-order potential for a linear background (world frame)."""
    if not model.background.is_linear:
        raise ValueError("asym_u_linear requires a linear background")
    pert = perturbation_linear(*_linear_args(model, x))
    return model.background.value(np.asarray(x, dtype=float)) + pert


def asym_grad_linear(model: AsymptoticModel, x) -> NDArray:
    """Leading-order gradient for a linear background (world frame)."""
    if not model.background.is_linear:
        raise ValueError("asym_grad_linear requires a linear background")
    g_loc = perturbation_grad_linear(*_linear_args(model, x))
    R = rotation_matrix(model.angle)
    return model.background.grad(np.asarray(x, dtype=float)) + g_loc @ R.T


# targets over the segment closer than this many rod lengths to the axis
# (but off it) get a warning: cancellation in the Poisson kernel costs the
# gradient about 6e-17 L / |x2| of relative accuracy, 6e-9 at this distance
AXIS_WARN = 1e-8
# Chebyshev grading of the base panels toward the segment's ends
_BASE_BREAKS = np.cos(np.linspace(np.pi, 0.0, 13))
# on the axis inside the segment: offsets 0 and +-2^-k (k = 1 ... 19) of x1,
# in units of the distance to the nearer end
_AXIS_STEPS = np.concatenate([[0.0], np.outer(2.0 ** -np.arange(1, 20), [-1.0, 1.0]).ravel()])


def _refinement(L: float, x1: NDArray, x2: NDArray) -> tuple[NDArray, NDArray]:
    """Per target: the number of k >= 0 with |x2| 2^k < L when it lies off
    the axis over the segment (else 0), and whether it lies on the axis
    inside the segment."""
    inside = np.abs(x1) < L / 2.0
    with np.errstate(divide="ignore"):
        depth = np.floor(np.log2(L / np.abs(x2))) + 1.0
    depth = np.where(inside & (x2 != 0.0), np.maximum(depth, 0.0), 0.0)
    return depth.astype(int), inside & (x2 == 0.0)


def _graded_panels(L: float, x1: NDArray, x2: NDArray) -> NDArray:
    """Panel breakpoints on [-L/2, L/2] as offsets y1 - x1 from the target,
    one sorted row per target (x1, x2).

    The base breakpoints are graded toward the ends.  Off the axis the
    Poisson kernel peaks at y1 = x1 on the scale |x2|; breakpoints x1 +-
    |x2| 2^k for every k with |x2| 2^k < L resolve it, down to any |x2|.
    On the axis the log kernel is singular at y1 = x1; breakpoints at x1
    and x1 +- s 2^-k (k = 1 ... 19, s the distance to the nearer end)
    resolve that.  Offsets keep the distances to the target exact near it,
    where the kernels are largest.  Each row holds its distinct breakpoints
    in order and is padded with repeats of the right end, which make
    zero-width panels at the end.
    """
    h = L / 2.0
    lo, hi = (-h - x1)[:, None], (h - x1)[:, None]
    depth, on_axis = _refinement(L, x1, x2)
    k = np.arange(depth.max(initial=0))
    with np.errstate(over="ignore"):
        off = np.where(k < depth[:, None], np.abs(x2)[:, None] * 2.0**k, np.inf)
    cands = [h * _BASE_BREAKS[1:-1] - x1[:, None], lo, hi, -off, off]
    if on_axis.any():
        cands.append(np.where(on_axis[:, None],
                              (h - np.abs(x1))[:, None] * _AXIS_STEPS, hi))
    b = np.sort(np.clip(np.concatenate(cands, axis=1), lo, hi), axis=1)
    dup = np.zeros(b.shape, dtype=bool)
    dup[:, 1:] = b[:, 1:] == b[:, :-1]
    b[dup] = np.broadcast_to(hi, b.shape)[dup]
    b.sort(axis=1)
    return b[:, :b.shape[1] - dup.sum(axis=1).min()]


def _axis_perturbation(model: AsymptoticModel, x, n_quad: int) -> tuple[NDArray, NDArray]:
    """Leading-order perturbation u - H and its gradient (world frame) for
    any degree-2 background.

    Composite Gauss-Legendre quadrature of the two axis integrals (the
    log kernel against the second transverse derivative of H on the axis,
    and the Poisson kernel against the first), plus the endpoint log term
    carrying the axial derivative at the right cap.  The gradient
    differentiates each kernel under the integral sign on the same nodes:
    grad log r^2 = 2 (x - y) / r^2, grad (x2 / r^2) =
    (-2 x2 (x1 - y1), (x1 - y1)^2 - x2^2) / r^4, and the normalisation by
    |x - P|^2 contributes -grad log |x - P|^2 times the integral of the
    second derivative.

    On the axis inside the segment (x2 = 0 in the rod frame) the values
    are the upper-side limits x2 -> +0, the convention of
    :func:`_arctan_pair`.  There the gradient uses the closed forms of the
    limits, which hold because a degree-2 H has a constant second and a
    linear first transverse derivative along the axis.

    Points go in chunks whose quadrature scratch fits
    ``potentials.FIELD_CHUNK_BYTES``.
    """
    if n_quad < 16:
        raise ValueError(f"n_quad must be >= 16, got {n_quad}")
    xl = np.atleast_2d(to_local(model, x))
    L = model.L
    _check_not_singular(xl[:, 0], xl[:, 1], L)
    close = np.count_nonzero((np.abs(xl[:, 0]) < L / 2.0) & (xl[:, 1] != 0.0)
                             & (np.abs(xl[:, 1]) < AXIS_WARN * L))
    if close:
        warnings.warn(f"{close} target(s) within {AXIS_WARN:g} L of the rod axis: "
                      "cancellation in the Poisson kernel costs the gradient "
                      "about 6e-17 L/|x2| of relative accuracy there", RuntimeWarning)
    depth, on_axis = _refinement(L, xl[:, 0], xl[:, 1])
    width = 13 + 2 * depth.max(initial=0) + _AXIS_STEPS.size * on_axis.any()
    # the scratch is five (rows, nodes) float arrays
    rows = max(1, potentials.FIELD_CHUNK_BYTES // (40 * (width - 1) * n_quad))
    bg = model._local_background()
    rule = np.polynomial.legendre.leggauss(n_quad)
    s = np.empty(len(xl))
    g = np.empty_like(xl)
    for i in range(0, len(xl), rows):
        s[i:i + rows], g[i:i + rows] = _axis_chunk(model, bg, xl[i:i + rows], *rule)
    return s, g @ rotation_matrix(model.angle).T


def _axis_chunk(model: AsymptoticModel, bg: HarmonicBackground, xl: NDArray,
                nodes: NDArray, wts: NDArray) -> tuple[NDArray, NDArray]:
    """u - H and its rod-frame gradient on one chunk of rod-frame points."""
    L, c, c_tr = model.L, model.strength, model.strength_transverse
    (_, d12h), (_, d2h) = bg.hessian(np.zeros(2))
    (_, d1h_p), (gq, d1h_q) = bg.grad(np.array([[-L / 2.0, 0.0], [L / 2.0, 0.0]]))
    _, _, c2, _, c4 = bg.coeffs

    b = _graded_panels(L, xl[:, 0], xl[:, 1])
    half = (b[:, 1:, None] - b[:, :-1, None]) / 2.0
    dx = ((b[:, 1:, None] + b[:, :-1, None]) / -2.0 - half * nodes).reshape(len(b), -1)
    wy = (half * wts).reshape(len(b), -1)   # 0 on the padding panels, at y1 = L/2
    x1, x2 = xl[:, :1], xl[:, 1:]
    r2 = dx**2 + x2**2
    d1h = np.subtract(x1, dx)
    d1h *= c4
    d1h += c2                               # d1h = c2 + c4 y1 on the axis

    def wsum(f):
        return np.einsum("ij,ij->i", wy, f)

    rp2 = (x1 + L / 2.0) ** 2 + x2**2
    t = r2 / rp2
    i_log = wsum(np.log(t, out=t))
    np.divide(x2, r2, out=t)                # the Poisson kernel
    i_poisson = wsum(t)
    t *= d1h
    i_poisson_h = wsum(t)
    i_cauchy = wsum(np.divide(dx, r2, out=t))
    k = d1h
    k /= np.square(r2, out=r2)              # d1h / r^4
    np.multiply(-2.0 * x2, dx, out=t)
    i_g1 = wsum(np.multiply(t, k, out=t))
    np.square(dx, out=dx)
    dx -= x2**2
    i_g2 = wsum(np.multiply(dx, k, out=dx))

    x1, x2, rp2 = x1[:, 0], x2[:, 0], rp2[:, 0]
    rq2 = (x1 - L / 2.0) ** 2 + x2**2
    grad_log_p = np.stack([x1 + L / 2.0, x2], axis=1) / rp2[:, None]
    grad_log_q = np.stack([x1 - L / 2.0, x2], axis=1) / rq2[:, None]
    t1 = (c / (2.0 * np.pi)) * i_log * d2h
    t2 = -(c_tr / np.pi) * i_poisson_h
    g_log = (c / np.pi) * d2h * (np.stack([i_cauchy, i_poisson], axis=1)
                                 - wy.sum(axis=1)[:, None] * grad_log_p)
    g_poi = -(c_tr / np.pi) * np.stack([i_g1, i_g2], axis=1)
    on = (x2 == 0.0) & (np.abs(x1) < L / 2.0)
    if on.any():
        # upper-side limits: the Poisson integral tends to pi * d1h(x1);
        # the log kernel's gradient tends to its principal value plus the
        # pi * d2h jump of its normal part
        tq, tp = L / 2.0 - x1[on], L / 2.0 + x1[on]
        t2[on] = -c_tr * (c2 + c4 * x1[on])
        g_log[on] = (c / np.pi) * d2h * np.stack(
            [np.log(tp / tq) - L / tp, np.full(len(tp), np.pi)], axis=1)
        g_poi[on] = -c_tr * np.stack(
            [np.full(len(tp), d12h),
             (d12h * np.log(tq / tp) - d1h_q / tq - d1h_p / tp) / np.pi], axis=1)

    t3 = (c / (2.0 * np.pi)) * np.log(rq2 / rp2) * gq
    g_end = (c / np.pi) * gq * (grad_log_q - grad_log_p)
    return t1 + t2 + t3, g_log + g_poi + g_end


def _general_field(model: AsymptoticModel, x, n_quad: int) -> tuple[NDArray, NDArray]:
    """Leading-order u and grad u (world frame) from the axis quadrature,
    on any degree-2 background (see :func:`_axis_perturbation`)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    s, gs = _axis_perturbation(model, x, n_quad)
    return model.background.value(x) + s, model.background.grad(x) + gs


def asym_u_general(model: AsymptoticModel, x, n_quad: int = 32) -> NDArray:
    """Leading-order potential for any degree-2 harmonic background.

    The u part of the quadrature behind :func:`asymptotic_field`.
    """
    u, _ = _general_field(model, x, n_quad)
    return u if np.asarray(x).ndim > 1 else u[0]


def asymptotic_field(model: AsymptoticModel, x, n_quad: int = 32) -> tuple[NDArray, NDArray]:
    """Leading-order potential u (m,) and gradient (m, 2) on world points (m, 2).

    A linear background takes the exact closed forms; any other degree-2
    background takes the axis quadrature with ``n_quad`` Gauss points per
    panel, which differentiates the integrals exactly.
    """
    if model.background.is_linear:
        return asym_u_linear(model, x), asym_grad_linear(model, x)
    return _general_field(model, x, n_quad)


def asymptotic_perturbation(model: AsymptoticModel, x,
                            n_quad: int = 32) -> tuple[NDArray, NDArray]:
    """The perturbation u - H (m,) and its gradient (m, 2) of
    :func:`asymptotic_field`, formed without H, so no digits cancel where
    |u - H| is small against |H|."""
    if not model.background.is_linear:
        return _axis_perturbation(model, x, n_quad)
    args = _linear_args(model, np.atleast_2d(np.asarray(x, dtype=float)))
    return (perturbation_linear(*args),
            perturbation_grad_linear(*args) @ rotation_matrix(model.angle).T)


def a_delta_apply(psi, delta: float, L: float, x1: float) -> float:
    """Averaging operator with the width-2*delta Poisson-type kernel:

    (1/pi) * integral of delta/((x1 - y1)^2 + 4 delta^2) * psi(y1) over
    (-L/2, L/2).  Acts as multiplication by 1/2 on polynomials as
    delta -> 0.  Adaptive quadrature resolves the delta-scale peak.
    """
    if not (-L / 2.0 < x1 < L / 2.0):
        raise ValueError(f"x1 must lie strictly inside (-L/2, L/2), got {x1}")

    def integrand(y1: float) -> float:
        return delta / ((x1 - y1) ** 2 + 4.0 * delta**2) * psi(y1)

    val, _ = quad(integrand, -L / 2.0, L / 2.0, points=[x1], limit=200,
                  epsabs=1e-12, epsrel=1e-12)
    return val / np.pi
