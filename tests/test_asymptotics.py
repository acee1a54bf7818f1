"""Closed-form field approximations: frozen values, identities, covariance."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rodfield import (AsymptoticModel, HarmonicBackground, RodSpec, ValidationError,
                      a_delta_apply, asymptotic_field, f1_f2, potentials, sensor_circle,
                      single_layer_field, solve_forward)
from rodfield import asymptotics, inverse
from rodfield.asymptotics import (asymptotic_perturbation, cap_points, f_sq_sum,
                                  f_sq_sum_cap_form)
from rodfield.geometry import rotation_matrix, signed_distance, to_local, to_world


def linear_model(a, L=2.0, delta=0.05, lam=1.5, **kw):
    return AsymptoticModel(L=L, delta=delta, lam=lam,
                           background=HarmonicBackground.linear(a), **kw)


def loop_graded_panels(L, x1, x2, n_refine=6):
    """Reference: the per-point breakpoints of the loop below."""
    t = np.cos(np.linspace(np.pi, 0.0, 13))
    pts = list((L / 2.0) * t)
    if abs(x1) < L / 2.0 and x2 != 0.0:
        s = abs(x2)
        for k in range(n_refine):
            for sgn in (-1.0, 1.0):
                b = x1 + sgn * s * 2.0**k
                if -L / 2.0 < b < L / 2.0:
                    pts.append(b)
    elif abs(x1) < L / 2.0:
        s = L / 2.0 - abs(x1)
        pts += [x1] + [x1 + sgn * s * 2.0**-k for k in range(1, 20) for sgn in (-1, 1)]
    return np.unique(np.asarray(pts))


def loop_general_field(model, x, n_quad):
    """Reference: the axis quadrature as one Python loop over the points.

    It refines near the axis only for k < 6, so it is under-resolved for
    0 < |x2| < L/64 over the segment; compare it only outside that band.
    """
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
        f1_f2(np.array([x1, x2]), L)   # refuses a cap centre
        breaks = loop_graded_panels(L, x1, x2)
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


def perturbation_grad_linear(a, L, c_ax, c_tr, x):
    """Reference: the rod-frame gradient of the linear closed form
    Re[(b/pi) lg], b = c_ax a1 + i c_tr a2, through the localisation
    functions f1 and f2."""
    a = np.asarray(a, dtype=float)
    f1, f2 = f1_f2(x, L)
    gx = c_ax * f2 * a[0] + c_tr * f1 * a[1]
    gy = c_ax * f1 * a[0] - c_tr * f2 * a[1]
    return (1.0 / np.pi) * np.stack([gx, gy], axis=-1)


QUAD_BG = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))


def mp_perturbation(model, x):
    """Reference: u - H and its gradient (world frame) at one world point,
    by 40-digit mpmath quadrature of the axis integrals in the rod frame.

    Cuts at the target's foot on the segment and at geometric distances
    from it resolve the kernels' peaks.  On the axis inside the segment
    the Poisson term is its upper-side limit, -c_tr times the transverse
    derivative of H at (x1, 0), and the gradient, whose kernels are
    singular there, is None.
    """
    with mp.workdps(40):
        L, c, c_tr = (mp.mpf(v) for v in (model.L, model.strength,
                                          model.strength_transverse))
        _, c1, c2, c3, c4 = (mp.mpf(v) for v in model._local_background().coeffs)
        x1, x2 = (mp.mpf(v) for v in to_local(model, np.asarray(x, dtype=float)))
        h = L / 2
        foot = min(max(x1, -h), h)
        dist = mp.sqrt((x1 - foot) ** 2 + x2**2)
        cuts = {foot + sgn * dist * mp.mpf(100) ** k for k in range(12) for sgn in (-1, 1)}
        cuts = [-h] + sorted(b for b in cuts | {foot} if -h < b < h) + [h]
        d2h, gq = -2 * c3, c1 + 2 * c3 * h
        tp, tq = x1 + h, x1 - h
        rp2, rq2 = tp**2 + x2**2, tq**2 + x2**2

        def kernels(y):
            t = x1 - y
            r2 = t**2 + x2**2
            return t, r2, (c2 + c4 * y) / r2

        def fu(y):
            t, r2, k = kernels(y)
            return c / 2 * d2h * mp.log(r2 / rp2) - c_tr * x2 * k

        def fg1(y):
            t, r2, k = kernels(y)
            return c * d2h * t / r2 + c_tr * 2 * x2 * t * k / r2

        def fg2(y):
            t, r2, k = kernels(y)
            return c * d2h * x2 / r2 - c_tr * (t**2 - x2**2) * k / r2

        s = (mp.quad(fu, cuts) + c / 2 * gq * mp.log(rq2 / rp2)) / mp.pi
        if x2 == 0 and abs(x1) < h:
            return float(s - c_tr * (c2 + c4 * x1)), None
        g1 = (mp.quad(fg1, cuts) + c * (gq * (tq / rq2 - tp / rp2)
                                        - d2h * L * tp / rp2)) / mp.pi
        g2 = (mp.quad(fg2, cuts) + c * (gq * (x2 / rq2 - x2 / rp2)
                                        - d2h * L * x2 / rp2)) / mp.pi
        return float(s), np.array([float(g1), float(g2)]) @ rotation_matrix(model.angle).T


def _assert_matches_mpmath(model, pts, tol=1e-14):
    """u and grad u, and the perturbation u - H itself, right to tol
    relative against :func:`mp_perturbation`, point by point."""
    u, g = asymptotic_field(model, pts)
    s, gs = asymptotic_perturbation(model, to_local(model, pts))
    gs = gs @ rotation_matrix(model.angle).T
    for i, p in enumerate(pts):
        ref_s, ref_gs = mp_perturbation(model, p)
        ref_u = model.background.value(p) + ref_s
        ref_g = model.background.grad(p) + ref_gs
        assert abs(u[i] - ref_u) <= tol * abs(ref_u)
        assert np.linalg.norm(g[i] - ref_g) <= tol * np.linalg.norm(ref_g)
        assert abs(s[i] - ref_s) <= tol * abs(ref_s)
        assert np.linalg.norm(gs[i] - ref_gs) <= tol * np.linalg.norm(ref_gs)


def _assert_matches_loop(model, pts, tol=1e-13):
    u, g = asymptotic_field(model, pts)
    ref_u, ref_g = loop_general_field(model, pts, 32)
    assert np.abs(u - ref_u).max() <= tol * np.abs(ref_u).max()
    assert np.abs(g - ref_g).max() <= tol * np.abs(ref_g).max()


def _outside_axis_band(model, pts):
    """Points off the band 0 < |x2| < L/64 over the segment, where the
    loop's near-axis refinement stops short."""
    x1, x2 = to_local(model, pts).T
    return pts[~((np.abs(x1) < model.L / 2.0) & (x2 != 0.0)
                 & (np.abs(x2) < model.L / 64.0))]


def test_cap_points():
    P, Q = cap_points(2.0)
    assert np.allclose(P, [-1.0, 0.0]) and np.allclose(Q, [1.0, 0.0])


def test_f1_f2_bisector_values():
    # [TRIVIAL] on the perpendicular bisector f1 = 0 and f2 = -L/((L/2)^2+h^2)
    L, h = 2.0, 0.7
    f1, f2 = f1_f2(np.array([0.0, h]), L)
    assert f1 == pytest.approx(0.0, abs=1e-15)
    assert f2 == pytest.approx(-L / ((L / 2) ** 2 + h**2), rel=1e-14)


def test_f1_f2_near_cap_values():
    # [DERIVED] just beyond the right cap: f1 = 0, f2 = 1/d - 1/(L+d)
    L, d = 2.0, 0.05
    f1, f2 = f1_f2(np.array([L / 2 + d, 0.0]), L)
    assert f1 == pytest.approx(0.0, abs=1e-15)
    assert f2 == pytest.approx(1.0 / d - 1.0 / (L + d), rel=1e-14)


def test_f_singular_at_caps():
    with pytest.raises(ValidationError, match="coincides with a cap centre"):
        f1_f2(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ValidationError, match="coincides with a cap centre"):
        f_sq_sum_cap_form(np.array([-1.0, 0.0]), 2.0)


def test_f_sq_identity_random_points():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-3, 3, size=(200, 2))
    caps = np.array([[-1.0, 0.0], [1.0, 0.0]])
    keep = np.min(np.linalg.norm(pts[:, None] - caps[None], axis=2), axis=1) > 0.05
    pts = pts[keep][:100]
    lhs = f_sq_sum(pts, 2.0)
    rhs = f_sq_sum_cap_form(pts, 2.0)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12


def test_cap_blowup_scaling():
    # delta^2 * (f1^2 + f2^2) -> 1 monotonically approaching the cap
    L = 2.0
    vals = [d**2 * f_sq_sum(np.array([L / 2 + d, 0.0]), L)
            for d in (0.04, 0.02, 0.01, 0.005)]
    assert all(v1 < v2 <= 1.0 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > 0.99


def test_midsection_bound():
    # f1^2 + f2^2 stays O(1) on the perpendicular bisector
    L = 2.0
    for h in (0.02, 0.1, 0.5, 1.0):
        assert f_sq_sum(np.array([0.0, h]), L) <= 64.0 / L**2


def test_frozen_axial_example():
    # sigma0 = 2, a = (1,0), L = 2, delta = 0.05 at x = (2, 0):
    # u = 2 + 0.05/(2 pi) * ln(1/9)
    model = linear_model((1.0, 0.0))
    val = asymptotic_field(model, np.array([2.0, 0.0]))[0]
    assert val == pytest.approx(2.0 + 0.05 / (2 * np.pi) * np.log(1.0 / 9.0),
                                rel=1e-12)
    assert val == pytest.approx(1.982514, abs=5e-6)


def test_transverse_far_perpendicular_limit():
    model = linear_model((0.0, 1.0))
    far = np.array([0.0, 500.0])
    pert = asymptotic_field(model, far)[0] - 500.0
    assert abs(pert) < 1e-2


def test_transverse_sign_matches_conductive_response():
    # above the rod, a conductive inclusion pulls the transverse
    # potential down toward the rod plane
    model = linear_model((0.0, 1.0))
    pert = asymptotic_field(model, np.array([0.0, 1.5]))[0] - 1.5
    assert pert < 0.0


def test_on_axis_branch_convention():
    # x2 = +0 selects the upper-side limit inside the segment
    model = linear_model((0.0, 1.0))
    inside, outside = asymptotic_field(model, np.array([[0.0, 0.0], [1.6, 0.0]]))[0]
    c_tr = model.strength_transverse
    assert inside == pytest.approx(-c_tr, rel=1e-12)
    assert outside == pytest.approx(0.0, abs=1e-15)
    # x2 = -0 takes the same limit, bit for bit, on a degree-2 background too
    # (a z that kept -0 would take the lower-side limit inside the segment)
    model = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, background=QUAD_BG)
    x1 = np.array([0.0, 0.3, -0.9, 1.6, -3.0])
    upper, lower = (asymptotic_perturbation(model, np.column_stack([x1, np.full(5, x2)]))
                    for x2 in (0.0, -0.0))
    for a, b in zip(upper, lower):
        assert a.tobytes() == b.tobytes()


def test_grad_matches_finite_difference():
    model = linear_model((0.7, -1.2), delta=0.04, lam=2.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(80, 2))
    caps = np.array([[-1.0, 0.0], [1.0, 0.0]])
    keep = np.min(np.linalg.norm(pts[:, None] - caps[None], axis=2), axis=1) > 0.3
    keep &= np.abs(pts[:, 1]) > 0.05
    pts = pts[keep][:50]
    g = asymptotic_field(model, pts)[1]
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        up, dn = (asymptotic_field(model, x)[0] for x in (pts + e, pts - e))
        fd = (up - dn) / (2 * eps)
        assert np.max(np.abs(g[:, j] - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


def test_scattered_intensity_independent_of_field_direction():
    # |grad u - a|^2 factors through f1^2 + f2^2 for a fixed channel mix
    model1 = linear_model((1.0, 0.0), delta=0.03)
    x = np.array([[0.8, 0.4], [1.3, -0.2]])
    e1 = asymptotic_field(model1, x)[1] - np.array([1.0, 0.0])
    expected = (model1.strength / np.pi) ** 2 * f_sq_sum(x, 2.0)
    assert np.allclose(np.sum(e1**2, axis=1), expected, rtol=1e-12)
    # axial and transverse channels are orthogonal: intensities add
    model2 = linear_model((0.0, 1.0), delta=0.03)
    model12 = linear_model((1.0, 1.0), delta=0.03)
    e2 = asymptotic_field(model2, x)[1] - np.array([0.0, 1.0])
    e12 = asymptotic_field(model12, x)[1] - np.array([1.0, 1.0])
    assert np.allclose(np.sum(e12**2, axis=1),
                       np.sum(e1**2, axis=1) + np.sum(e2**2, axis=1), rtol=1e-12)


def test_frame_covariance():
    angle, center = 0.6, (0.4, -0.7)
    a = np.array([1.0, -0.5])
    plain = linear_model(a)
    moved = linear_model(a, center=center, angle=angle)
    R = rotation_matrix(angle)
    x = np.array([[2.0, 1.0], [-1.5, 0.8]])
    x_world = np.asarray(center) + x @ R.T
    # perturbations agree when the background rotates with the frame
    a_loc = R.T @ a
    pert_local = inverse._closed_form(np.array([0.0, 0.0, 0.0, 2.0, plain.strength * a_loc[0],
                                                plain.strength_transverse * a_loc[1]]), x)[0]
    u_world, g_world = asymptotic_field(moved, x_world)
    assert np.allclose(u_world - moved.background.value(x_world), pert_local, atol=1e-12)
    g_local = asymptotic_field(linear_model(a_loc), x)[1] - a_loc
    g_world = g_world - a
    assert np.allclose(g_world, g_local @ R.T, atol=1e-12)


def test_general_reduces_to_linear():
    # with c3 = c4 = 0 both curvature terms are exact zeros: u and grad u
    # are the linear closed form bit for bit, on the axis and next to the
    # caps too, and far out, where lg is summed from its series; the linear
    # closed form is the fit kernel at the rod's own parameters
    model = linear_model((1.0, 0.4), delta=0.02, center=(0.2, -0.1), angle=0.5)
    g = np.linspace(-2.5, 2.5, 41)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    local = np.array([[0.0, 0.0], [0.3, 0.0], [-0.9, 0.0], [1.5, 0.0], [-3.0, 0.0],
                      [1.0001, 0.0], [1.0001, 1e-4], [-1.00001, 0.0], [0.99, 0.01],
                      [-1.01, -0.003], [0.3, 1e-12], [3e6, -2e6], [-5.0, 8.0]])
    pts = np.concatenate([grid, to_world(model, local)])
    u, g = asymptotic_field(model, pts)
    a, xl = model._local_background().linear_part, to_local(model, pts)
    args = (a, model.L, model.strength, model.strength_transverse, xl)
    linear = inverse._closed_form(np.array([0.0, 0.0, 0.0, model.L, model.strength * a[0],
                                            model.strength_transverse * a[1]]), xl)[0]
    assert np.array_equal(u, model.background.value(pts) + linear)
    assert np.array_equal(asymptotic_perturbation(model, xl)[0], linear)
    # the linear form's gradient: Re and -Im of (b/pi) lg'
    b = complex(model.strength * a[0], model.strength_transverse * a[1])
    dlg = b / np.pi * asymptotics._cap_logs(xl, model.L)[2]
    g_loc = np.stack([dlg.real, -dlg.imag], axis=1)
    assert np.array_equal(g, model.background.grad(pts)
                          + g_loc @ rotation_matrix(model.angle).T)
    # and, to rounding, the f1/f2 form (measured: 2.1e-17 of the largest)
    ref = perturbation_grad_linear(*args)
    assert np.abs(g_loc - ref).max() <= 1e-14 * np.abs(ref).max()


def test_general_odd_symmetry_outside_segment():
    # transverse-only linear part, on-axis beyond the rod: no perturbation
    bg = HarmonicBackground.linear((0.0, 1.0))
    model = AsymptoticModel(L=2.0, delta=0.02, lam=1.5, background=bg)
    x = np.array([1.7, 0.0])
    assert asymptotic_field(model, x)[0] == pytest.approx(bg.value(x), abs=1e-12)


def test_general_gradient_matches_finite_difference():
    spec = RodSpec(L=2.0, delta=0.01, center=(0.1, -0.1), angle=0.3, sigma0=3.0)
    bg = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))
    model = AsymptoticModel.from_spec(spec, bg)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.5, 2.5, size=(120, 2))
    pts = pts[signed_distance(spec, pts) >= 0.1][:60]
    _, g = asymptotic_field(model, pts)
    h = 1e-5
    fd = np.stack([(asymptotic_field(model, pts + e)[0] - asymptotic_field(model, pts - e)[0])
                   / (2 * h) for e in (np.array([h, 0.0]), np.array([0.0, h]))], axis=1)
    rel = np.linalg.norm(g - fd, axis=1) / np.linalg.norm(fd, axis=1)
    assert rel.max() < 1e-6


def test_general_gradient_on_axis_is_upper_side_limit():
    # on the axis inside the segment the gradient is the x2 -> +0 limit,
    # which differs from the lower-side one (the Poisson term jumps)
    bg = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))
    model = AsymptoticModel(L=2.0, delta=0.01, lam=1.5, background=bg)
    _, g0 = asymptotic_field(model, np.array([[0.3, 0.0]]))
    assert np.isfinite(g0).all()
    _, above = asymptotic_field(model, np.array([[0.3, 1e-4]]))
    _, below = asymptotic_field(model, np.array([[0.3, -1e-4]]))
    assert np.abs(g0 - above).max() < 1e-3
    assert np.abs(g0 - below).max() > 1e-2
    # a linear background has no jump: the closed form agrees exactly
    lin = linear_model((1.0, 0.7), delta=0.01)
    x = np.array([[0.3, 0.0]])
    _, g_lin = asymptotic_field(lin, x)
    ref = (np.array([1.0, 0.7]) + perturbation_grad_linear(
        (1.0, 0.7), lin.L, lin.strength, lin.strength_transverse, x))
    assert np.allclose(g_lin, ref, rtol=1e-12, atol=1e-14)


def test_general_field_matches_loop_on_rotated_grid():
    spec = RodSpec(L=1.7, delta=0.03, center=(0.37, -0.21), angle=1.1, sigma0=3.0)
    model = AsymptoticModel.from_spec(spec, QUAD_BG)
    g = np.linspace(-2.5, 2.5, 37)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = _outside_axis_band(model, pts)
    assert len(pts) > 1300
    _assert_matches_loop(model, pts)


def _loop_pool(model):
    """On-axis points inside and outside the segment, points near the caps
    and a shifted grid, for a rod frame without rotation."""
    h, c = model.L / 2.0, np.asarray(model.center)
    axis = [[x1, 0.0] for x1 in (0.0, 0.3, -0.62, 0.97 * h, -0.999 * h,
                                 1.2 * h, -1.5 * h, 3.0 * h)]
    caps = [[sgn * h + r * np.cos(t), r * np.sin(t)] for sgn in (-1.0, 1.0)
            for r in (0.02, 0.05, 0.3) for t in np.linspace(0.0, 2 * np.pi, 7)]
    g = np.linspace(-2.3, 2.1, 11)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = np.concatenate([[[0.1, 0.0], [0.2, model.L / 64.0]], axis, caps, grid]) + c
    return _outside_axis_band(model, pts)


def _pool_reference(model, pool, tol=1e-13):
    """The loop's u and grad u on the pool, except where it parts from the
    closed form by more than tol of the column maximum: there 40-digit
    mpmath is the reference.  (On the axis inside the segment the loop's
    u is off by up to 4e-12 of the maximum, from its log singularity.)"""
    u, g = asymptotic_field(model, pool)
    ref_u, ref_g = loop_general_field(model, pool, 32)
    h = model.background.value(pool)
    for i in np.flatnonzero(np.abs(u - ref_u) > tol * np.abs(ref_u).max()):
        ref_u[i] = h[i] + mp_perturbation(model, pool[i])[0]
    for i in np.flatnonzero(np.abs(g - ref_g).max(axis=1) > tol * np.abs(ref_g).max()):
        ref_g[i] = model.background.grad(pool[i]) + mp_perturbation(model, pool[i])[1]
    return ref_u, ref_g


@pytest.mark.parametrize("budget", ["small", "real"])
def test_general_field_matches_loop_across_chunks(budget, monkeypatch):
    model = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, center=(0.4, -1.3),
                            background=QUAD_BG)
    if budget == "small":
        monkeypatch.setattr(potentials, "FIELD_CHUNK_BYTES", 1 << 12)
    pool = _loop_pool(model)
    ref_u, ref_g = _pool_reference(model, pool)
    sizes = []
    chunk_fn = asymptotics._axis_chunk

    def spy(model, bg, xl):
        sizes.append(len(xl))
        return chunk_fn(model, bg, xl)

    monkeypatch.setattr(asymptotics, "_axis_chunk", spy)
    asymptotic_field(model, pool[np.arange(1 << 14) % len(pool)])
    chunk = sizes[0]
    assert chunk > 1 and len(sizes) > 1
    for m in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
        idx = np.arange(m) % len(pool)      # the pool repeated to m points
        sizes.clear()
        u, g = asymptotic_field(model, pool[idx])
        assert np.abs(u - ref_u[idx]).max() <= 1e-13 * np.abs(ref_u).max()
        assert np.abs(g - ref_g[idx]).max() <= 1e-13 * np.abs(ref_g).max()
        assert sizes == [chunk] * (m // chunk) + ([m % chunk] if m % chunk else [])


def test_general_field_right_in_the_cap_disc():
    # just beyond the rod's ends, inside the cap disc where the gradient
    # localises: the axis quadrature refined only over the segment and was
    # off by 2.3e-3 to 0.12 in grad u here, with no warning
    model = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, background=QUAD_BG)
    pts = np.array([[1.0001, 1e-4], [-1.0001, 1e-4], [1.0001, 0.0], [1.00001, 0.0]])
    _assert_matches_mpmath(model, pts)


def test_general_field_right_near_the_axis():
    # full accuracy and no warning (RuntimeWarnings fail the suite) down to
    # |x2| = 1e-14 L over the segment, on both sides of the axis
    model = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, background=QUAD_BG)
    pts = np.array([[0.3, 1e-6], [-0.5, -1e-10], [0.7, 1e-14]]) * [1.0, model.L]
    _assert_matches_mpmath(model, pts)


def test_general_field_far_from_the_rod_is_right_to_rounding():
    # against the closed form itself at 80 digits: s within 4 eps of the
    # coefficients' scale and grad s within 4 eps of it over r, from 3 to
    # 3e20 from the rod.  With z in the coefficient of lg, as below, the
    # curvature terms cancel like (r/L)^2 and leave -k_log L once lg rounds
    # to 0, past about 1e16 L
    model = AsymptoticModel(L=2.0, delta=0.05, lam=1.5,
                            background=HarmonicBackground.polynomial((0.0, 1.0, 0.5, 1.0, 0.3)))
    L, c_ax, c_tr = model.L, model.strength, model.strength_transverse
    _, c1, c2, c3, c4 = model.background.coeffs
    scale = (abs(complex(c_ax * (c1 + c3 * L), c_tr * c2)) + 2.0 * abs(c3 * c_ax) * L
             + abs(c_tr * c4) * L) / np.pi
    theta, eps = np.array([0.3, 1.7, 3.1, 4.4]), np.finfo(float).eps
    for r in (3.0, 60.0, 3e4, 3e8, 3e16, 3e20):
        pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        s, g = asymptotic_perturbation(model, pts)
        with mp.workdps(80):
            b = mp.mpc(c_ax * (c1 + c3 * L), c_tr * c2) / mp.pi
            k_log, k_poisson = -2 * mp.mpf(c3) * c_ax / mp.pi, mp.mpf(c_tr) * c4 / mp.pi
            for i, (x1, x2) in enumerate(pts):
                z, q = mp.mpc(x1, x2), mp.mpf(L) / 2
                lg, dlg = mp.log((z - q) / (z + q)), 1 / (z - q) - 1 / (z + q)
                pz = b + 1j * k_poisson * z - k_log * (z - q)
                df = (1j * k_poisson - k_log) * lg + pz * dlg
                assert abs(s[i] - float(mp.re(pz * lg) - k_log * L)) <= 4 * eps * scale, r
                ref_g = [float(mp.re(df)), -float(mp.im(df))]
                assert np.linalg.norm(g[i] - ref_g) <= 4 * eps * scale / r, r


@pytest.mark.parametrize("bg", [HarmonicBackground.linear((1.0, 0.5)), QUAD_BG],
                         ids=["linear", "degree-2"])
def test_closed_form_far_from_the_rod_keeps_its_digits(bg):
    # s and grad s against the closed form itself at 60 digits, each within
    # 8 eps of its own size at 25 points a radius, from 3 to 3e10 from the
    # rod (measured: <= 3.3 eps)
    model = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, background=bg)
    L, c_ax, c_tr = model.L, model.strength, model.strength_transverse
    _, c1, c2, c3, c4 = bg.coeffs
    theta, eps = 2.0 * np.pi * (np.arange(25) + 0.37) / 25, np.finfo(float).eps
    for r in (3.0, 300.0, 3e4, 3e6, 3e10):
        pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        s, g = asymptotic_perturbation(model, pts)
        ref_s, ref_g = np.empty_like(s), np.empty_like(g)
        with mp.workdps(60):
            a = mp.mpc(c_ax * (c1 + c3 * L), c_tr * (c2 + c4 * L / 2.0)) / mp.pi
            c, q = mp.mpc(2.0 * c3 * c_ax, c_tr * c4) / mp.pi, mp.mpf(L) / 2
            for i, (x1, x2) in enumerate(pts):
                z = mp.mpc(x1, x2)
                lg = mp.log((z - q) / (z + q))
                df = a * (1 / (z - q) - 1 / (z + q)) + c * (lg + L / (z + q))
                ref_s[i] = float(mp.re(a * lg + c * ((z - q) * lg + L)))
                ref_g[i] = float(mp.re(df)), -float(mp.im(df))
        assert np.abs(s - ref_s).max() <= 8 * eps * np.abs(ref_s).max(), r
        assert np.abs(g - ref_g).max() <= 8 * eps * np.abs(ref_g).max(), r


def test_perturbation_is_the_field_without_background():
    spec = RodSpec(L=1.7, delta=0.03, center=(0.37, -0.21), angle=1.1, sigma0=3.0)
    pts = np.array([[2.0, 0.5], [0.4, 1.3], [-1.8, -0.7]])
    for bg in (QUAD_BG, HarmonicBackground.linear((1.0, -0.4))):
        model = AsymptoticModel.from_spec(spec, bg)
        u, g = asymptotic_field(model, pts)
        s, gs = asymptotic_perturbation(model, to_local(spec, pts))
        gs = gs @ rotation_matrix(spec.angle).T
        assert np.allclose(s, u - bg.value(pts), rtol=0, atol=1e-15)
        assert np.allclose(gs, g - bg.grad(pts), rtol=0, atol=1e-14)


@pytest.mark.parametrize("kw", [
    {"lam": 0.5}, {"lam": -0.5}, {"lam": 0.3}, {"lam": float("nan")}, {"lam": float("inf")},
    {"delta": 0.0}, {"delta": -0.01}, {"delta": float("inf")},
    {"L": 0.0}, {"L": -1.0}, {"L": float("nan")}, {"angle": float("nan")},
    {"center": (float("inf"), 0.0)}, {"center": (0.0, 0.0, 0.0)},
    {"center": 5.0}, {"center": None}, {"center": (1, "x")},
    {"background": None}, {"background": (0.0, 1.0, 0.5, 0.0, 0.0)}],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_a_model_that_no_rod_has_is_refused(kw):
    # built directly, a model skips RodSpec's checks and from_spec's: at
    # lam = +-1/2 asymptotic_field ended in ZeroDivisionError, with delta < 0
    # or |lam| < 1/2 it returned values, without a background it ended in
    # AttributeError, and on a disc (L = 0) it returned u = H exactly, where
    # the BEM's u - H at (2, 1) is -0.0625 (delta 0.5, sigma0 3, a = (1, 0.5))
    args = {"L": 2.0, "delta": 0.01, "lam": 1.5,
            "background": HarmonicBackground.linear((1.0, 0.5)), **kw}
    with pytest.raises(ValidationError):
        AsymptoticModel(**args)


def test_general_field_memory_bounded_by_chunk():
    spec = RodSpec(L=2.0, delta=0.01, center=(0.1, -0.1), angle=0.3, sigma0=2.0)
    model = AsymptoticModel.from_spec(spec, QUAD_BG)
    peaks = {}
    for nx in (101, 201):
        g = np.linspace(-3.0, 3.0, nx)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        tracemalloc.start()
        try:
            u, grad = asymptotic_field(model, pts)
            peaks[nx] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.shape == (nx * nx,) and grad.shape == (nx * nx, 2)
    assert peaks[201] < 8e6
    # beyond the chunk scratch only the O(m) outputs grow with the grid
    assert peaks[201] - peaks[101] < 100 * (201**2 - 101**2)


@pytest.mark.xfail(strict=True, reason="D9: _local_background rotates H but does "
                                       "not translate it to the rod centre")
def test_shifted_rod_on_quadratic_background_matches_bem():
    # the closed form must take H in the rod frame, H(c + R x): for a rod
    # centred at (1, 0.5) on H = x1^2 - x2^2 it is off the BEM by 0.91 of
    # the perturbation, against 0.030 with H translated (0.061 at centre 0)
    center = (1.0, 0.5)
    spec = RodSpec(L=2.0, delta=0.01, center=center, angle=0.3, sigma0=3.0)
    bg = HarmonicBackground.polynomial((0.0, 0.0, 0.0, 1.0, 0.0))
    probe = to_local(spec, sensor_circle(center, 3.0, 64))
    sol = solve_forward(spec, bg)
    s_bem, _, _ = single_layer_field(sol.phi, probe)
    s, _ = asymptotic_perturbation(AsymptoticModel.from_spec(spec, bg), probe)
    assert np.abs(s - s_bem).max() <= 0.1 * np.abs(s_bem).max()


def test_a_delta_frozen_values():
    # [DERIVED] psi = 1, L = 2, delta = 0.01, x1 = 0 -> arctan(50)/pi
    val = a_delta_apply(lambda y: 1.0, 0.01, 2.0, 0.0)
    assert val == pytest.approx(np.arctan(50.0) / np.pi * 1.0, rel=1e-10)
    assert val == pytest.approx(0.49363, abs=1e-5)
    val2 = a_delta_apply(lambda y: y**2, 1e-3, 2.0, 0.5)
    assert val2 == pytest.approx(0.125, abs=0.05)


def test_a_delta_moment_convergence():
    L = 2.0
    for n in (0, 1, 2, 3):
        for x1 in (0.0, 0.5, -0.5):
            errs = [abs(a_delta_apply(lambda y: y**n, d, L, x1) - 0.5 * x1**n)
                    for d in (1e-2, 1e-3, 1e-4)]
            assert errs[2] < errs[0] or errs[2] < 1e-10
            assert errs[2] < 5e-3


def mp_a_delta(n, delta, L, x1):
    """(1/pi) times the integral of delta y^n / ((x1 - y)^2 + 4 delta^2)
    over (-L/2, L/2), in 30-digit mpmath.  With t = y - x1 and c = 2 delta,
    y^n is a binomial sum of t^k, and t^k / (t^2 + c^2) has the
    antiderivatives I_0 = atan(t/c)/c, I_1 = log(t^2 + c^2)/2 and
    I_k = t^(k-1)/(k-1) - c^2 I_(k-2)."""
    with mp.workdps(30):
        d, x, c = mp.mpf(delta), mp.mpf(x1), 2 * mp.mpf(delta)
        lo, hi = -mp.mpf(L) / 2 - x, mp.mpf(L) / 2 - x
        I = [(mp.atan(hi / c) - mp.atan(lo / c)) / c,
             mp.log((hi**2 + c**2) / (lo**2 + c**2)) / 2]
        for k in range(2, n + 1):
            I.append((hi**(k - 1) - lo**(k - 1)) / (k - 1) - c**2 * I[k - 2])
        return float(d / mp.pi * sum(mp.binomial(n, k) * x**(n - k) * I[k]
                                     for k in range(n + 1)))


@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-7, 1e-9])
def test_a_delta_matches_mpmath(delta):
    # adaptive quadrature was off by 0.25 at delta = 1e-5, x1 = -0.9999,
    # psi = y^2, with only an IntegrationWarning, and by 2e-10 at x1 = 0
    for x1 in (0.0, 0.5, -0.5, 0.999, -0.9999):
        for n in range(6):
            got = a_delta_apply(lambda y: y**n, delta, 2.0, x1)
            assert abs(got - mp_a_delta(n, delta, 2.0, x1)) <= 1e-12, (x1, n)


def mp_a_delta_quad(f, delta, x1):
    """30-digit A_delta of f on L = 2 by mpmath quadrature, with breakpoints
    at x1 and x1 +- 2 delta 10^k, where the kernel changes scale."""
    with mp.workdps(30):
        d, x = mp.mpf(delta), mp.mpf(x1)
        cuts = {x} | {x + s * 2 * d * 10**k for k in range(12) for s in (-1, 1)}
        pts = [mp.mpf(-1)] + sorted(c for c in cuts if -1 < c < 1) + [mp.mpf(1)]
        return float(mp.quad(lambda y: d / ((x - y)**2 + 4 * d * d) * f(y), pts) / mp.pi)


@pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-9])
def test_a_delta_matches_mpmath_beyond_polynomials(delta):
    # a polynomial of degree < 8 is exact on any panel count; cos 3y and e^y
    # are not, so they catch too few panels (16 are off by 3.7e-13).
    # Measured: <= 6.0e-15; the graded 16-point rule was off by 1.3e-10
    for x1 in (0.0, 0.7, -0.9999):
        for f, mf in ((lambda y: np.cos(3.0 * y), lambda y: mp.cos(3 * y)), (np.exp, mp.exp)):
            got = a_delta_apply(f, delta, 2.0, x1)
            assert abs(got - mp_a_delta_quad(mf, delta, x1)) <= 1e-13, (x1, f)


def test_a_delta_calls_psi_once():
    calls = []

    def psi(y):
        calls.append(y.shape)
        return y**2

    a_delta_apply(psi, 1e-3, 2.0, 0.5)
    assert len(calls) == 1


def test_a_delta_domain_check():
    with pytest.raises(ValueError):
        a_delta_apply(lambda y: 1.0, 0.01, 2.0, 1.5)
    for delta in (0.0, -0.01):
        with pytest.raises(ValueError, match="delta > 0"):
            a_delta_apply(lambda y: 1.0, delta, 2.0, 0.0)
