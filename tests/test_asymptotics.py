"""Closed-form field approximations: frozen values, identities, covariance."""

import numpy as np
import pytest

from rodfield import (AsymptoticModel, HarmonicBackground, RodSpec, a_delta_apply,
                      asym_grad_linear, asym_u_general, asym_u_linear,
                      asymptotic_field, f1_f2)
from rodfield.asymptotics import (SingularPointError, _general_field, cap_points,
                                  f_sq_sum, f_sq_sum_cap_form, perturbation_linear)
from rodfield.geometry import rotation_matrix, signed_distance


def linear_model(a, L=2.0, delta=0.05, lam=1.5, **kw):
    return AsymptoticModel(L=L, delta=delta, lam=lam,
                           background=HarmonicBackground.linear(a), **kw)


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
    with pytest.raises(SingularPointError):
        f1_f2(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(SingularPointError):
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
    val = asym_u_linear(model, np.array([2.0, 0.0]))
    assert val == pytest.approx(2.0 + 0.05 / (2 * np.pi) * np.log(1.0 / 9.0),
                                rel=1e-12)
    assert val == pytest.approx(1.982514, abs=5e-6)


def test_transverse_far_perpendicular_limit():
    model = linear_model((0.0, 1.0))
    far = np.array([0.0, 500.0])
    pert = asym_u_linear(model, far) - 500.0
    assert abs(pert) < 1e-2


def test_transverse_sign_matches_conductive_response():
    # above the rod, a conductive inclusion pulls the transverse
    # potential down toward the rod plane
    model = linear_model((0.0, 1.0))
    pert = asym_u_linear(model, np.array([0.0, 1.5])) - 1.5
    assert pert < 0.0


def test_on_axis_branch_convention():
    # x2 = +0 selects the upper-side limit inside the segment
    model = linear_model((0.0, 1.0))
    inside = asym_u_linear(model, np.array([0.0, 0.0]))
    outside = asym_u_linear(model, np.array([1.6, 0.0]))
    c_tr = model.strength_transverse
    assert inside == pytest.approx(-c_tr, rel=1e-12)
    assert outside == pytest.approx(0.0, abs=1e-15)


def test_grad_matches_finite_difference():
    model = linear_model((0.7, -1.2), delta=0.04, lam=2.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(80, 2))
    caps = np.array([[-1.0, 0.0], [1.0, 0.0]])
    keep = np.min(np.linalg.norm(pts[:, None] - caps[None], axis=2), axis=1) > 0.3
    keep &= np.abs(pts[:, 1]) > 0.05
    pts = pts[keep][:50]
    g = asym_grad_linear(model, pts)
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (asym_u_linear(model, pts + e) - asym_u_linear(model, pts - e)) / (2 * eps)
        assert np.max(np.abs(g[:, j] - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


def test_scattered_intensity_independent_of_field_direction():
    # |grad u - a|^2 factors through f1^2 + f2^2 for a fixed channel mix
    model1 = linear_model((1.0, 0.0), delta=0.03)
    x = np.array([[0.8, 0.4], [1.3, -0.2]])
    e1 = asym_grad_linear(model1, x) - np.array([1.0, 0.0])
    expected = (model1.strength / np.pi) ** 2 * f_sq_sum(x, 2.0)
    assert np.allclose(np.sum(e1**2, axis=1), expected, rtol=1e-12)
    # axial and transverse channels are orthogonal: intensities add
    model2 = linear_model((0.0, 1.0), delta=0.03)
    model12 = linear_model((1.0, 1.0), delta=0.03)
    e2 = asym_grad_linear(model2, x) - np.array([0.0, 1.0])
    e12 = asym_grad_linear(model12, x) - np.array([1.0, 1.0])
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
    pert_local = perturbation_linear(a_loc, 2.0, plain.strength,
                                     plain.strength_transverse, x)
    pert_world = asym_u_linear(moved, x_world) - moved.background.value(x_world)
    assert np.allclose(pert_world, pert_local, atol=1e-12)
    g_world = asym_grad_linear(moved, x_world) - a
    g_local = (asym_grad_linear(plain.__class__(
        L=2.0, delta=0.05, lam=1.5,
        background=HarmonicBackground.linear(a_loc)), x) - a_loc)
    assert np.allclose(g_world, g_local @ R.T, atol=1e-12)


def test_general_reduces_to_linear():
    model = linear_model((1.0, 0.4), delta=0.02)
    pts = np.array([[2.0, 0.5], [0.0, 1.5], [-1.8, -0.7]])
    assert np.allclose(asym_u_general(model, pts, n_quad=32),
                       asym_u_linear(model, pts), atol=1e-8)


def test_general_quadrature_self_convergence():
    bg = HarmonicBackground.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))  # x1*x2
    model = AsymptoticModel(L=2.0, delta=0.02, lam=1.5, background=bg)
    pts = np.array([[1.5, 0.4], [0.3, 1.1]])
    lo = asym_u_general(model, pts, n_quad=16)
    hi = asym_u_general(model, pts, n_quad=256)
    assert np.abs(lo - hi).max() < 1e-8


def test_general_on_axis_log_singularity_converges():
    # on the axis inside the segment the log kernel is singular at y1 = x1;
    # the panels must resolve it as they resolve the Poisson peak off the axis
    bg = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))
    pts = np.array([[0.3, 0.0], [-0.97, 0.0], [0.0, 0.0]])
    for lam in (0.75, 1.5):
        model = AsymptoticModel(L=2.0, delta=0.05, lam=lam, background=bg)
        ref = asym_u_general(model, pts, n_quad=512)
        for n_quad in (16, 32, 64):
            assert np.abs(asym_u_general(model, pts, n_quad=n_quad) - ref).max() < 1e-8


def test_general_odd_symmetry_outside_segment():
    # transverse-only linear part, on-axis beyond the rod: no perturbation
    bg = HarmonicBackground.linear((0.0, 1.0))
    model = AsymptoticModel(L=2.0, delta=0.02, lam=1.5, background=bg)
    x = np.array([1.7, 0.0])
    assert asym_u_general(model, x) == pytest.approx(bg.value(x), abs=1e-12)


@pytest.mark.filterwarnings("ignore:target close to the rod axis")
def test_general_gradient_matches_finite_difference():
    spec = RodSpec(L=2.0, delta=0.01, center=(0.1, -0.1), angle=0.3, sigma0=3.0)
    bg = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))
    model = AsymptoticModel.from_spec(spec, bg)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.5, 2.5, size=(120, 2))
    pts = pts[signed_distance(spec, pts) >= 0.1][:60]
    _, g = asymptotic_field(model, pts)
    h = 1e-5
    fd = np.stack([(asym_u_general(model, pts + e) - asym_u_general(model, pts - e))
                   / (2 * h) for e in (np.array([h, 0.0]), np.array([0.0, h]))], axis=1)
    rel = np.linalg.norm(g - fd, axis=1) / np.linalg.norm(fd, axis=1)
    assert rel.max() < 1e-6


@pytest.mark.filterwarnings("ignore:target close to the rod axis")
def test_general_gradient_on_axis_is_upper_side_limit():
    # on the axis inside the segment the gradient is the x2 -> +0 limit,
    # which differs from the lower-side one (the Poisson term jumps)
    bg = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))
    model = AsymptoticModel(L=2.0, delta=0.01, lam=1.5, background=bg)
    _, g0 = asymptotic_field(model, np.array([[0.3, 0.0]]))
    assert np.isfinite(g0).all()
    _, above = asymptotic_field(model, np.array([[0.3, 1e-4]]), n_quad=64)
    _, below = asymptotic_field(model, np.array([[0.3, -1e-4]]), n_quad=64)
    assert np.abs(g0 - above).max() < 1e-3
    assert np.abs(g0 - below).max() > 1e-2
    # a linear background has no jump: the closed form agrees exactly
    lin = linear_model((1.0, 0.7), delta=0.01)
    _, g_lin = asymptotic_field(lin, np.array([[0.3, 0.0]]))
    _, g_gen = _general_field(lin, np.array([[0.3, 0.0]]), 32)
    assert np.allclose(g_gen, g_lin, rtol=1e-12, atol=1e-14)


def test_general_rejects_small_n_quad():
    model = linear_model((1.0, 0.0))
    with pytest.raises(ValueError):
        asym_u_general(model, np.array([2.0, 0.0]), n_quad=8)


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


def test_a_delta_domain_check():
    with pytest.raises(ValueError):
        a_delta_apply(lambda y: 1.0, 0.01, 2.0, 1.5)
