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
from .solver import lambda_of_sigma

__all__ = [
    "AsymptoticModel", "cap_points", "f1_f2", "f_sq_sum", "f_sq_sum_cap_form",
    "asym_u_linear", "asym_grad_linear", "asym_u_general", "asymptotic_field",
    "a_delta_apply",
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


def asym_u_linear(model: AsymptoticModel, x) -> NDArray:
    """Leading-order potential for a linear background (world frame)."""
    if not model.background.is_linear:
        raise ValueError("asym_u_linear requires a linear background")
    xl = to_local(model, x)
    a_loc = model._local_background().linear_part
    pert = perturbation_linear(a_loc, model.L, model.strength,
                               model.strength_transverse, xl)
    return model.background.value(np.asarray(x, dtype=float)) + pert


def asym_grad_linear(model: AsymptoticModel, x) -> NDArray:
    """Leading-order gradient for a linear background (world frame)."""
    if not model.background.is_linear:
        raise ValueError("asym_grad_linear requires a linear background")
    xl = to_local(model, x)
    a_loc = model._local_background().linear_part
    g_loc = perturbation_grad_linear(a_loc, model.L, model.strength,
                                     model.strength_transverse, xl)
    R = rotation_matrix(model.angle)
    return model.background.grad(np.asarray(x, dtype=float)) + g_loc @ R.T


def _graded_panels(L: float, x1: float, x2: float, n_refine: int = 6) -> NDArray:
    """Panel breakpoints on (-L/2, L/2), graded toward the endpoints.

    When the target sits close to the axis the Poisson kernel peaks at
    y1 = x1 on the scale |x2|; extra breakpoints resolve it.
    """
    t = np.cos(np.linspace(np.pi, 0.0, 13))  # Chebyshev grading
    pts = list((L / 2.0) * t)
    if abs(x1) < L / 2.0 and x2 != 0.0:
        s = abs(x2)
        for k in range(n_refine):
            for sgn in (-1.0, 1.0):
                b = x1 + sgn * s * 2.0**k
                if -L / 2.0 < b < L / 2.0:
                    pts.append(b)
    return np.unique(np.asarray(pts))


def _general_field(model: AsymptoticModel, x, n_quad: int) -> tuple[NDArray, NDArray]:
    """Leading-order u and grad u (world frame) for any degree-2 background.

    Composite Gauss-Legendre quadrature of the two axis integrals (the
    log kernel against the second transverse derivative of H on the axis,
    and the Poisson kernel against the first), plus the endpoint log term
    carrying the axial derivative at the right cap.  The gradient
    differentiates each kernel under the integral sign on the same nodes:
    grad log r^2 = 2 (x - y) / r^2, grad (x2 / r^2) =
    (-2 x2 (x1 - y1), (x1 - y1)^2 - x2^2) / r^4, and the normalisation by
    |x - P|^2 contributes -grad log |x - P|^2 times the integral of the
    second derivative.

    On the axis inside the segment (x2 = 0 in the rod frame) u and grad u
    are the upper-side limits x2 -> +0, the convention of
    :func:`_arctan_pair`.  There the gradient uses the closed forms of the
    limits, which hold because a degree-2 H has a constant second and a
    linear first transverse derivative along the axis.
    """
    if n_quad < 16:
        raise ValueError(f"n_quad must be >= 16, got {n_quad}")
    L, c = model.L, model.strength
    c_tr = model.strength_transverse
    bg = model._local_background()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xl = to_local(model, x)

    nodes, wts = np.polynomial.legendre.leggauss(n_quad)
    (_, d12h), (_, d2h) = bg.hessian(np.zeros(2))
    (_, d1h_p), (gq, d1h_q) = bg.grad(np.array([[-L / 2.0, 0.0], [L / 2.0, 0.0]]))
    u = model.background.value(x)
    g_loc = np.empty_like(xl)
    for i, (x1, x2) in enumerate(xl):
        _check_not_singular(np.asarray(x1), np.asarray(x2), L)
        if x2 != 0.0 and abs(x2) < L / n_quad:
            warnings.warn("target close to the rod axis: Poisson kernel may be "
                          "under-resolved at this n_quad", RuntimeWarning)
        breaks = _graded_panels(L, x1, x2)
        a, b = breaks[:-1, None], breaks[1:, None]
        y1 = ((b + a) / 2.0 + (b - a) / 2.0 * nodes).ravel()
        wy = ((b - a) / 2.0 * wts).ravel()
        d1h = bg.grad(np.stack([y1, np.zeros_like(y1)], axis=1))[:, 1]

        dx = x1 - y1
        r2 = dx**2 + x2**2
        rp2 = (x1 + L / 2.0) ** 2 + x2**2
        rq2 = (x1 - L / 2.0) ** 2 + x2**2
        grad_log_p = np.array([x1 + L / 2.0, x2]) / rp2
        grad_log_q = np.array([x1 - L / 2.0, x2]) / rq2
        t1 = (c / (2.0 * np.pi)) * np.dot(wy, np.log(r2 / rp2) * d2h)
        if x2 == 0.0 and abs(x1) < L / 2.0:
            # upper-side limits: the Poisson integral tends to pi * d1h(x1);
            # the log kernel's gradient tends to its principal value plus
            # the pi * d2h jump of its normal part
            tq, tp = L / 2.0 - x1, L / 2.0 + x1
            t2 = -c_tr * bg.grad(np.array([x1, 0.0]))[1]
            g_log = (c / np.pi) * d2h * np.array([np.log(tp / tq) - L / tp, np.pi])
            g_poi = -c_tr * np.array([d12h, (d12h * np.log(tq / tp)
                                             - d1h_q / tq - d1h_p / tp) / np.pi])
        else:
            poisson = x2 / r2
            t2 = -(c_tr / np.pi) * np.dot(wy, poisson * d1h)
            g_log = (c / np.pi) * d2h * (np.array([np.dot(wy, dx / r2), np.dot(wy, poisson)])
                                         - wy.sum() * grad_log_p)
            k = d1h / r2**2
            g_poi = -(c_tr / np.pi) * np.array([np.dot(wy, -2.0 * x2 * dx * k),
                                                np.dot(wy, (dx**2 - x2**2) * k)])

        t3 = (c / (2.0 * np.pi)) * np.log(rq2 / rp2) * gq
        g_end = (c / np.pi) * gq * (grad_log_q - grad_log_p)

        u[i] = u[i] + t1 + t2 + t3
        g_loc[i] = g_log + g_poi + g_end
    return u, model.background.grad(x) + g_loc @ rotation_matrix(model.angle).T


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
