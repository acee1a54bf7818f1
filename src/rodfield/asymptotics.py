"""Leading-order closed forms for the perturbed field of a thin rod.

For a linear background a.x the perturbation has an exact leading term,
Re[(b/pi) log((z - q)/(z - p))] at z = x1 + i x2 in the rod frame, with p
and q the cap centres: the log ratio of the cap distances carries the axial
component, the angle the rod subtends the transverse one.  A degree-2
harmonic background H adds two curvature terms, zero on a linear one; all
are real parts of one analytic function, exact but at the cap centres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from numpy.typing import NDArray

from .background import HarmonicBackground
from .geometry import (RodSpec, ValidationError, _finite, _panel_rule, as_points,
                       lambda_of_sigma, rotation_matrix, to_local)
from . import potentials


def cap_points(L: float) -> tuple[NDArray, NDArray]:
    """Local-frame cap centres P = (-L/2, 0), Q = (L/2, 0)."""
    return np.array([-L / 2.0, 0.0]), np.array([L / 2.0, 0.0])


def f1_f2(x, L: float) -> tuple[NDArray, NDArray]:
    """Localisation functions f1 = -Im lg', f2 = Re lg' of :func:`_cap_logs`."""
    dlg = _cap_logs(x, L)[2]
    return -dlg.imag, dlg.real


def f_sq_sum(x, L: float) -> NDArray:
    """f1^2 + f2^2 evaluated directly."""
    f1, f2 = f1_f2(x, L)
    return f1**2 + f2**2


def f_sq_sum_cap_form(x, L: float) -> NDArray:
    """f1^2 + f2^2 via the cap-distance identity.

    (1/|x-Q| - 1/|x-P|)^2 + (2/(|x-P||x-Q|)) (1 - cos of the P,Q aperture);
    an algebraically independent route used to cross-check f1_f2.
    """
    x = as_points(x)
    P, Q = cap_points(L)
    dp = x - P
    dq = x - Q
    rp = np.linalg.norm(dp, axis=-1)
    rq = np.linalg.norm(dq, axis=-1)
    if np.any(rp == 0.0) or np.any(rq == 0.0):
        raise ValidationError("evaluation point coincides with a cap centre")
    cosang = np.einsum("...i,...i->...", dp, dq) / (rp * rq)
    return (1.0 / rq - 1.0 / rp) ** 2 + (2.0 / (rp * rq)) * (1.0 - cosang)


#: Far out, where |t| < _T_FAR, lg = -sum t^n / n, h / L = sum t^n / (n (n + 1)) and
#: h' = lg + t are summed from _T_SERIES, to 7e-17
_T_FAR = 0.25
_T_SERIES = np.array([[0.0] * 3] + [[-1 / n, 1 / (n * n + n), -(n > 1) / n] for n in range(1, 27)])


def _log_ratio(zp, zq, d) -> tuple[NDArray, NDArray, NDArray]:
    """lg = log(zq/zp), lg' = d/zp/zq and t = d/zp for the offsets zp = z - p and
    zq = z - q of points z from cap centres p and q = p + d; where |t| < :data:`_T_FAR`
    lg is summed from :data:`_T_SERIES`, so far out neither lg nor lg' cancels digits.
    Nothing is refused: at a cap centre lg and lg' are not finite."""
    lg, t = np.log(zq / zp), d / zp
    far = np.abs(t) < _T_FAR
    if far.any():
        lg[far] = polyval(t[far], _T_SERIES[:, 0])
    return lg, d / zp / zq, t


def _cap_logs(x, L: float) -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """z = x1 + i x2 at rod-frame points x, and lg, lg' and t of :func:`_log_ratio`
    for the cap centres p, q = -L/2, L/2.

    Im lg is the angle the segment subtends at x, signed like x2; x2 = -0
    counts as +0, so on the axis inside the segment it is pi, the limit
    from above.  A cap centre is refused with :class:`ValidationError`.
    """
    x = as_points(x)
    z = x[..., 0] + 1j * (x[..., 1] + 0.0)
    zq, zp = z - L / 2.0, z + L / 2.0
    if not (zq.all() and zp.all()):
        raise ValidationError("evaluation point coincides with a cap centre")
    return (z, *_log_ratio(zp, zq, L))


@dataclass(frozen=True)
class AsymptoticModel:
    """Closed-form field model for one rod placement and background.

    :func:`asymptotic_perturbation` takes and returns rod-frame points and
    gradients; :func:`asymptotic_field` maps world points into the frame and
    rotates the gradient back.  A disc (L = 0) has no rod model.
    """

    L: float
    delta: float
    lam: float
    background: HarmonicBackground
    center: tuple[float, float] = (0.0, 0.0)
    angle: float = 0.0

    def __post_init__(self) -> None:
        # the placement is a rod's, checked by RodSpec, which also gives the
        # centre as a tuple of two floats; at |lam| = 1/2 a
        # strength divides by zero, and below it or on a disc, where the
        # closed form is exactly 0, the field is one that no rod has
        placement = RodSpec(self.L, self.delta, self.center, self.angle)
        object.__setattr__(self, "center", placement.center)
        if self.L == 0.0:
            raise ValidationError("L = 0 (disc) has no rod asymptotic model")
        if not (_finite(self.lam) and abs(self.lam) > 0.5):
            raise ValidationError(f"need a finite |lam| > 1/2, got lam={self.lam!r}")
        if not isinstance(self.background, HarmonicBackground):
            raise ValidationError(f"background must be a HarmonicBackground, "
                                  f"got {self.background!r}")

    @classmethod
    def from_spec(cls, spec: RodSpec, bg: HarmonicBackground) -> "AsymptoticModel":
        """The model of a placed rod; lam comes from its contrast sigma0, and a
        sigma0 whose lam rounds to +-1/2 (above about 9.0e15, below 5.6e-17) is refused."""
        lam = lambda_of_sigma(spec.sigma0)
        if abs(lam) == 0.5:
            raise ValidationError(f"sigma0={spec.sigma0!r}: lam rounds to {lam}, so a closed-form "
                                  "strength delta/(lam -+ 1/2) divides by zero")
        return cls(L=spec.L, delta=spec.delta, lam=lam,
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
    """u - H and its rod-frame gradient on rod-frame points ``xl``: Re F and
    (Re F', -Im F') for F = A lg + C h, with z, lg, lg', t of :func:`_cap_logs`,
    h = (z - q) lg + L and h' = lg + t.

    With ``bg``'s rod-frame (c0, ..., c4), A = (c_ax d1 H + i c_tr d2 H)/pi at
    the right cap Q, the linear form's at H's gradient there, and C = (2 c3 c_ax
    + i c_tr c4)/pi carries the curvature: d2^2 H in the log kernel, d1 d2 H in
    the Poisson kernel times the axial coordinate; on a linear background C = 0,
    and s and grad s are the linear form's bit for bit.  Far out h, about L t / 2,
    cancels two terms near L, so where |t| < :data:`_T_FAR` they come from :data:`_T_SERIES`.
    """
    L, c_ax, c_tr = model.L, model.strength, model.strength_transverse
    _, c1, c2, c3, c4 = bg.coeffs
    a = complex(c_ax * (c1 + c3 * L), c_tr * (c2 + c4 * L / 2.0)) / np.pi
    c = complex(2.0 * c3 * c_ax, c_tr * c4) / np.pi
    z, lg, dlg, t = _cap_logs(xl, L)
    h, dh = (z - L / 2.0) * lg + L, lg + t
    far = np.abs(t) < _T_FAR
    if far.any():
        h[far], dh[far] = polyval(t[far], _T_SERIES[:, 1:]) * [[L], [1.0]]
    df = a * dlg + c * dh
    return (a * lg + c * h).real, np.stack([df.real, -df.imag], axis=1)


def asymptotic_perturbation(model: AsymptoticModel, xl) -> tuple[NDArray, NDArray]:
    """The leading-order perturbation u - H (m,) and its rod-frame gradient
    (m, 2) at rod-frame points (m, 2), for any degree-2 background, by
    :func:`_axis_chunk` without H, so no digits cancel against |H|.  Cap
    centres are refused; on the axis inside the segment (x2 = 0 or -0) the
    values are the upper-side limits x2 -> +0 of :func:`_cap_logs`.

    Points go in chunks of ``potentials.FIELD_CHUNK_BYTES`` / 512 rows; a
    chunk's temporaries peak at about 240 bytes a point, fifteen complex values.
    """
    xl = as_points(xl)
    bg = model._local_background()
    rows = max(1, potentials.FIELD_CHUNK_BYTES // 512)
    s, g = np.empty(len(xl)), np.empty_like(xl)
    for i in range(0, len(xl), rows):
        s[i:i + rows], g[i:i + rows] = _axis_chunk(model, bg, xl[i:i + rows])
    return s, g


def asymptotic_field(model: AsymptoticModel, x) -> tuple[NDArray, NDArray]:
    """Leading-order potential u (m,) and gradient (m, 2) on world points
    (m, 2): the background plus :func:`asymptotic_perturbation`."""
    x = as_points(x)
    s, gs = asymptotic_perturbation(model, to_local(model, x))
    gs = gs @ rotation_matrix(model.angle).T
    return model.background.value(x) + s, model.background.grad(x) + gs


def asym_u_linear(model: AsymptoticModel, x) -> NDArray:
    """The u of :func:`asymptotic_field`; perfbench's tracing.py and gen_refs.py name it."""
    return asymptotic_field(model, x)[0]


def asym_grad_linear(model: AsymptoticModel, x) -> NDArray:
    """The grad u of :func:`asymptotic_field`; perfbench's tracing.py names it."""
    return asymptotic_field(model, x)[1]


def asym_u_general(model: AsymptoticModel, x, n_quad: int | None = None) -> NDArray:
    """The u of :func:`asymptotic_field`; perfbench's tracing.py and gen_refs.py
    name it, and gen_refs.py passes ``n_quad``, which is ignored."""
    return asymptotic_field(model, x)[0]


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
        raise ValidationError(f"need delta > 0 and -L/2 < x1 < L/2, got delta={delta}, x1={x1}")
    h = L / _AXIS_PANELS
    y = _panel_rule(np.full(_AXIS_PANELS, h))[0].reshape(_AXIS_PANELS, -1) - L / 2.0
    s = (x1 + L / 2.0) * 2.0 / h - (2.0 * np.arange(_AXIS_PANELS) + 1.0)
    return float((potentials.lorentzian_weights(s + 4j * delta / h) * psi(y)).sum())
