"""Leading-order closed forms for the perturbed field of a thin rod.

For a linear background a.x the perturbation has an exact leading term
built from two arctan terms (transverse component) and a log ratio of the
cap distances (axial component); its gradient is expressed through the
localisation functions f1, f2, which blow up like 1/delta at the caps.
For a general degree-2 harmonic background the leading term is a pair of
axis integrals whose integrands, and their gradients, have elementary
antiderivatives along the axis, so it is a closed form too.
"""

from __future__ import annotations

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


def _axis_perturbation(model: AsymptoticModel, x) -> tuple[NDArray, NDArray]:
    """Leading-order perturbation u - H and its gradient (world frame) for
    any degree-2 background.

    The leading term is a pair of integrals along the axis: the log kernel
    against the second transverse derivative of H (a constant), and the
    Poisson kernel against the first (linear in y1), plus the endpoint log
    term carrying the axial derivative at the right cap.  Both integrands,
    and their gradients, have elementary antiderivatives in t = x1 - y1,
    evaluated at t = x1 -+ L/2 (see :func:`_axis_chunk`).  So u and grad u
    are exact up to rounding at every point but the cap centres, close to
    the axis and inside the cap discs included.

    On the axis inside the segment (x2 = 0 in the rod frame) the values
    are the upper-side limits x2 -> +0, the convention of
    :func:`_arctan_pair`.

    Points go in chunks, so the few dozen float temporaries per point fit
    ``potentials.FIELD_CHUNK_BYTES``.
    """
    xl = np.atleast_2d(to_local(model, x))
    _check_not_singular(xl[:, 0], xl[:, 1], model.L)
    bg = model._local_background()
    rows = max(1, potentials.FIELD_CHUNK_BYTES // 512)
    s = np.empty(len(xl))
    g = np.empty_like(xl)
    for i in range(0, len(xl), rows):
        s[i:i + rows], g[i:i + rows] = _axis_chunk(model, bg, xl[i:i + rows])
    return s, g @ rotation_matrix(model.angle).T


def _axis_chunk(model: AsymptoticModel, bg: HarmonicBackground,
                xl: NDArray) -> tuple[NDArray, NDArray]:
    """u - H and its rod-frame gradient on one chunk of rod-frame points.

    With r^2 = t^2 + x2^2 and a = c2 + c4 x1, the transverse derivative of
    H at the target's foot on the axis (so c2 + c4 y1 = a - c4 t), the
    antiderivatives in t of the six axis integrands are:

    - log r^2: t log r^2 - 2 t + 2 x2 arctan(t/x2);
    - Poisson x2/r^2: arctan(t/x2), whose difference is the arctan pair;
    - Poisson times (a - c4 t): a arctan(t/x2) - (c4 x2/2) log r^2;
    - Cauchy t/r^2: (1/2) log r^2;
    - -2 x2 t (a - c4 t)/r^4: a x2/r^2 + c4 arctan(t/x2) - c4 x2 t/r^2;
    - (t^2 - x2^2)(a - c4 t)/r^4: -a t/r^2 - c4 ((1/2) log r^2 + x2^2/r^2).

    Their differences between t = x1 + L/2 and x1 - L/2 are written through
    log(rp^2/rq^2) and the localisation functions f1, f2 of :func:`f1_f2`.
    """
    L, c, c_tr = model.L, model.strength, model.strength_transverse
    _, _, c2, _, c4 = bg.coeffs
    d2h = bg.hessian(np.zeros(2))[1, 1]
    gq = bg.grad(np.array([L / 2.0, 0.0]))[0]
    x1, x2 = xl[:, 0], xl[:, 1]
    tp, tq = x1 + L / 2.0, x1 - L / 2.0
    rp2, rq2 = tp**2 + x2**2, tq**2 + x2**2
    poisson = _arctan_pair(x1, x2, L)
    log_pq = np.log(rp2 / rq2)
    f1 = x2 / rq2 - x2 / rp2
    f2 = tq / rq2 - tp / rp2
    a = c2 + c4 * x1

    i_log = tq * log_pq - 2.0 * L + 2.0 * x2 * poisson      # of log(r^2 / rp^2)
    i_poisson_h = a * poisson - 0.5 * c4 * x2 * log_pq
    i_g1 = c4 * (poisson + x2 * f2) - a * f1
    i_g2 = a * f2 - c4 * (0.5 * log_pq - x2 * f1)
    k_log, k_tr = c / np.pi, c_tr / np.pi
    u = 0.5 * k_log * (d2h * i_log - gq * log_pq) - k_tr * i_poisson_h
    g1 = k_log * (d2h * (0.5 * log_pq - L * tp / rp2) + gq * f2) - k_tr * i_g1
    g2 = k_log * (d2h * (poisson - L * x2 / rp2) + gq * f1) - k_tr * i_g2
    return u, np.stack([g1, g2], axis=1)


def _general_field(model: AsymptoticModel, x) -> tuple[NDArray, NDArray]:
    """Leading-order u and grad u (world frame) from the axis closed form,
    on any degree-2 background (see :func:`_axis_perturbation`)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    s, gs = _axis_perturbation(model, x)
    return model.background.value(x) + s, model.background.grad(x) + gs


def asym_u_general(model: AsymptoticModel, x, n_quad: int | None = None) -> NDArray:
    """Leading-order potential for any degree-2 harmonic background.

    The u part of the closed form behind :func:`asymptotic_field`.
    ``n_quad`` is accepted and ignored: it set the quadrature order of an
    earlier version, and callers that still pass it keep working.
    """
    u, _ = _general_field(model, x)
    return u if np.asarray(x).ndim > 1 else u[0]


def asymptotic_field(model: AsymptoticModel, x) -> tuple[NDArray, NDArray]:
    """Leading-order potential u (m,) and gradient (m, 2) on world points (m, 2).

    A linear background takes the linear closed forms, through f1 and f2;
    any other degree-2 background takes the elementary antiderivatives of
    the axis integrals.  Both are exact up to rounding, at every point but
    the cap centres, which are refused.
    """
    if model.background.is_linear:
        return asym_u_linear(model, x), asym_grad_linear(model, x)
    return _general_field(model, x)


def asymptotic_perturbation(model: AsymptoticModel, x) -> tuple[NDArray, NDArray]:
    """The perturbation u - H (m,) and its gradient (m, 2) of
    :func:`asymptotic_field`, formed without H, so no digits cancel where
    |u - H| is small against |H|."""
    if not model.background.is_linear:
        return _axis_perturbation(model, x)
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
