"""Leading-order closed forms for the perturbed field of a thin rod.

For a linear background a.x the perturbation has an exact leading term
built from two arctan terms (transverse component) and a log ratio of the
cap distances (axial component); its gradient is expressed through the
localisation functions f1, f2, which blow up like 1/delta at the caps.
Any degree-2 harmonic background H takes the same closed form, at the
effective field (d1 H at the right cap, d2 H at the rod centre), plus two
curvature terms that vanish on a linear background: a log term carrying
d2^2 H and a Poisson term carrying d1 d2 H.  Both are elementary, so u and
grad u are exact up to rounding everywhere but at the cap centres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .background import HarmonicBackground
from .geometry import (RodSpec, ValidationError, _panel_rule, lambda_of_sigma, rotation_matrix,
                       to_local)
from . import potentials

__all__ = [
    "AsymptoticModel", "cap_points", "f1_f2", "f_sq_sum", "f_sq_sum_cap_form",
    "asym_u_linear", "asym_grad_linear", "asym_u_general", "asymptotic_field",
    "asymptotic_perturbation", "a_delta_apply", "perturbation_linear",
]


class SingularPointError(ValidationError):
    """Evaluation requested at a cap centre, where f1/f2 are singular."""


def cap_points(L: float) -> tuple[NDArray, NDArray]:
    """Local-frame cap centres P = (-L/2, 0), Q = (L/2, 0)."""
    return np.array([-L / 2.0, 0.0]), np.array([L / 2.0, 0.0])


def f1_f2(x, L: float) -> tuple[NDArray, NDArray]:
    """Localisation functions of the perturbed gradient (local frame)."""
    x = np.asarray(x, dtype=float)
    return _cap_terms(x[..., 0], x[..., 1], L)[4:6]


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


def _cap_terms(x1: NDArray, x2: NDArray, L: float) -> tuple[NDArray, ...]:
    """The terms every closed form here is built from, at rod-frame points:
    (tq, tp, rq2, rp2, f1, f2, pair, log_qp), with tq = x1 - L/2 and
    tp = x1 + L/2, rq2 = |x - Q|^2 and rp2 = |x - P|^2, the f1, f2 of
    :func:`f1_f2`, :func:`_arctan_pair` and log(rq2 / rp2).
    grad(pair) = (-f1, f2) and grad(log_qp) = 2 (f2, f1).  A point on a cap
    centre (rq2 or rp2 zero) is refused with :class:`SingularPointError`.
    """
    tq, tp = x1 - L / 2.0, x1 + L / 2.0
    rq2, rp2 = tq**2 + x2**2, tp**2 + x2**2
    if np.any(rq2 == 0.0) or np.any(rp2 == 0.0):
        raise SingularPointError("evaluation point coincides with a cap centre")
    return (tq, tp, rq2, rp2, x2 / rq2 - x2 / rp2, tq / rq2 - tp / rp2,
            _arctan_pair(x1, x2, L), np.log(rq2 / rp2))


def _linear_form(a, c_ax: float, c_tr: float, pair: NDArray,
                 log_qp: NDArray) -> NDArray:
    """The linear closed form from the arctan pair and log(rq^2 / rp^2)."""
    return -(c_tr / np.pi) * a[1] * pair + (c_ax / (2.0 * np.pi)) * a[0] * log_qp


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
    return _linear_form(a, c_ax, c_tr, *_cap_terms(x[..., 0], x[..., 1], L)[6:])


@dataclass(frozen=True)
class AsymptoticModel:
    """Closed-form field model for one rod placement and background.

    :func:`asymptotic_perturbation` takes and returns rod-frame points and
    gradients; :func:`asymptotic_field` and the ``asym_*`` wrappers map
    world points into the frame and rotate the gradient back.
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
        # rotated only, not translated to the rod centre (ROADMAP D9)
        return self.background.rotated(self.angle)


def _axis_chunk(model: AsymptoticModel, bg: HarmonicBackground,
                xl: NDArray) -> tuple[NDArray, NDArray]:
    """u - H and its rod-frame gradient on one chunk of rod-frame points.

    With rod-frame coefficients (c0, c1, c2, c3, c4) of ``bg``, the leading
    term is the linear closed form at the effective field
    a_eff = (d1 H(Q), d2 H(0)) = (c1 + c3 L, c2), plus two curvature terms,
    both zero on a linear background.  Each is an integral along the axis
    whose integrand has an elementary antiderivative in t = x1 - y1, with
    r^2 = t^2 + x2^2, taken between t = x1 - L/2 and x1 + L/2:

    - the log term, (c_ax/2pi) d2^2 H times the integral of log(r^2/rp^2),
      with d2^2 H = -2 c3 and antiderivative t log r^2 - 2 t + 2 x2 arctan(t/x2);
    - the Poisson term, -(c_tr/pi) d1 d2 H times the integral of
      x2 y1 / r^2, with d1 d2 H = c4 and y1 = x1 - t: x1 arctan(t/x2)
      - (x2/2) log r^2.

    Their gradients follow through the localisation functions f1, f2 of
    :func:`f1_f2`, since grad(arctan pair) = (-f1, f2) and
    grad log(rq^2/rp^2) = 2 (f2, f1).
    """
    L, c_ax, c_tr = model.L, model.strength, model.strength_transverse
    _, c1, c2, c3, c4 = bg.coeffs
    d1h_q, d22h = c1 + c3 * L, -2.0 * c3
    x1, x2 = xl[:, 0], xl[:, 1]
    tq, tp, rq2, rp2, f1, f2, pair, log_qp = _cap_terms(x1, x2, L)
    u = _linear_form((d1h_q, c2), c_ax, c_tr, pair, log_qp)
    g1 = (1.0 / np.pi) * (c_ax * f2 * d1h_q + c_tr * f1 * c2)
    g2 = (1.0 / np.pi) * (c_ax * f1 * d1h_q - c_tr * f2 * c2)
    k_log, k_poisson = c_ax * d22h / np.pi, c_tr * c4 / np.pi
    u += (0.5 * k_log * (2.0 * x2 * pair - tq * log_qp - 2.0 * L)
          - k_poisson * (x1 * pair + 0.5 * x2 * log_qp))
    g1 += (k_log * (-0.5 * log_qp - L * tp / rp2)
           - k_poisson * (pair + x2 * f2 - x1 * f1))
    g2 += (k_log * (pair - L * x2 / rp2)
           - k_poisson * (x1 * f2 + x2 * f1 + 0.5 * log_qp))
    return u, np.stack([g1, g2], axis=1)


def asymptotic_perturbation(model: AsymptoticModel, xl) -> tuple[NDArray, NDArray]:
    """The leading-order perturbation u - H (m,) and its rod-frame gradient
    (m, 2) at rod-frame points (m, 2), for any degree-2 background (:func:`_axis_chunk`).

    Formed without H, so no digits cancel where |u - H| is small against
    |H|.  Exact up to rounding at every point but the cap centres, which
    are refused, close to the axis and inside the cap discs included.  On
    the axis inside the segment (x2 = 0) the values are the upper-side
    limits x2 -> +0, the convention of :func:`_arctan_pair`.

    Points go in chunks, so the few dozen float temporaries per point fit
    ``potentials.FIELD_CHUNK_BYTES``.
    """
    xl = np.atleast_2d(np.asarray(xl, dtype=float))
    bg = model._local_background()
    rows = max(1, potentials.FIELD_CHUNK_BYTES // 512)
    s = np.empty(len(xl))
    g = np.empty_like(xl)
    for i in range(0, len(xl), rows):
        s[i:i + rows], g[i:i + rows] = _axis_chunk(model, bg, xl[i:i + rows])
    return s, g


def asymptotic_field(model: AsymptoticModel, x) -> tuple[NDArray, NDArray]:
    """Leading-order potential u (m,) and gradient (m, 2) on world points
    (m, 2): the background plus :func:`asymptotic_perturbation`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    s, gs = asymptotic_perturbation(model, to_local(model, x))
    gs = gs @ rotation_matrix(model.angle).T
    return model.background.value(x) + s, model.background.grad(x) + gs


def _single(x, values: NDArray) -> NDArray:
    """``values`` for points ``x``, or its one row if ``x`` is one point."""
    return values if np.asarray(x).ndim > 1 else values[0]


def asym_u_linear(model: AsymptoticModel, x) -> NDArray:
    """Leading-order potential for a linear background (world frame); any
    other background is refused."""
    if not model.background.is_linear:
        raise ValueError("asym_u_linear requires a linear background")
    return _single(x, asymptotic_field(model, x)[0])


def asym_grad_linear(model: AsymptoticModel, x) -> NDArray:
    """Leading-order gradient (world frame), the grad u of
    :func:`asymptotic_field`, right on any degree-2 background."""
    return _single(x, asymptotic_field(model, x)[1])


def asym_u_general(model: AsymptoticModel, x, n_quad: int | None = None) -> NDArray:
    """Leading-order potential for any degree-2 harmonic background.

    ``n_quad`` is accepted and ignored: it set the quadrature order of an
    earlier version, and callers that still pass it keep working.
    """
    return _single(x, asymptotic_field(model, x)[0])


#: Equal panels of :func:`a_delta_apply` over the rod.
_AXIS_PANELS = 32


def a_delta_apply(psi, delta: float, L: float, x1: float) -> float:
    """Averaging operator with the width-2*delta Poisson-type kernel:

    (1/pi) * integral of delta/((x1 - y1)^2 + 4 delta^2) * psi(y1) over
    (-L/2, L/2).  Acts as multiplication by 1/2 on polynomials as
    delta -> 0.  ``psi`` is called once, on an array of points.

    psi is interpolated on _AXIS_PANELS equal Gauss panels of length h, and
    the kernel integrated exactly against that: ``potentials.lorentzian_weights``,
    the NP assembly's facade weights, at s + 4i delta/h in panel k's coordinates,
    s = (x1 + L/2) 2/h - (2k + 1).  Off 30-digit mpmath by 7.1e-15 for y1^n,
    n <= 5, and 6.0e-15 for cos 3y1 and e^y1 (L = 2, delta 1e-1 to 1e-9).
    """
    if not (delta > 0.0 and -L / 2.0 < x1 < L / 2.0):
        raise ValueError(f"need delta > 0 and -L/2 < x1 < L/2, got delta={delta}, x1={x1}")
    h = L / _AXIS_PANELS
    y = _panel_rule(np.full(_AXIS_PANELS, h))[0].reshape(_AXIS_PANELS, -1) - L / 2.0
    s = (x1 + L / 2.0) * 2.0 / h - (2.0 * np.arange(_AXIS_PANELS) + 1.0)
    return float((potentials.lorentzian_weights(s + 4j * delta / h) * psi(y)).sum())
