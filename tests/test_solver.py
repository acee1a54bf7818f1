"""Forward transmission solves against analytic and structural oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rodfield import (DensityVector, HarmonicBackground, RodSpec, ValidationError,
                      build_mesh, eval_field, eval_grad_u, eval_u, lambda_of_sigma,
                      single_layer_field, solve_forward, transmission_check)
from rodfield.geometry import default_counts, signed_distance, to_world
from rodfield.inverse import sensor_circle
from rodfield.potentials import assemble_np, neumann_data, solve_density
from rodfield.solver import disc_exterior_grad, disc_exterior_u, disc_interior_u


def test_lambda_examples():
    assert lambda_of_sigma(2.0) == pytest.approx(1.5)
    assert lambda_of_sigma(1.0 / 3.0) == pytest.approx(-1.0)
    # lam -> 1/2 from above as sigma0 -> infinity
    assert lambda_of_sigma(1e6) == pytest.approx(0.5, abs=1e-5)
    assert abs(lambda_of_sigma(3.0)) > 0.5


def test_lambda_invalid_sigma():
    with pytest.raises(ValidationError):
        lambda_of_sigma(1.0)
    with pytest.raises(ValidationError):
        lambda_of_sigma(-2.0)
    # nan and inf gave a nan lambda
    for sigma0 in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="sigma0"):
            lambda_of_sigma(sigma0)


def test_disc_exterior_oracle():
    # [DERIVED] analytic disc solution, also the sign fixture: the
    # perturbation opposes a.x outside a conductive disc
    a = np.array([1.0, 0.0])
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear(a), n_cap=64)
    pts = np.array([[3.0, 0.0], [0.0, 4.0], [-2.0, 2.0]])
    u, near = eval_u(sol, pts)
    assert not near.any()
    assert np.allclose(u, disc_exterior_u(a, 1.0, 2.0, pts), atol=1e-9)
    # explicit sign check at (3, 0): H = 3, perturbation negative
    assert u[0] < 3.0


def test_disc_interior_uniform_gradient():
    a = np.array([0.0, 1.0])
    sigma0 = 5.0
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=sigma0),
                        HarmonicBackground.linear(a), n_cap=64)
    pts = np.array([[0.0, 0.0], [0.3, -0.2], [-0.5, 0.1]])
    u, _ = eval_u(sol, pts)
    assert np.allclose(u, disc_interior_u(a, 1.0, sigma0, pts), atol=1e-9)
    g, _ = eval_grad_u(sol, pts)
    assert np.allclose(g, [0.0, 2.0 / (sigma0 + 1.0)], atol=1e-9)


def test_disc_exterior_grad_oracle():
    a = np.array([1.0, -2.0])
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear(a), n_cap=64)
    pts = np.array([[2.5, 1.0], [-3.0, -0.5]])
    g, _ = eval_grad_u(sol, pts)
    assert np.allclose(g, disc_exterior_grad(a, 1.0, 2.0, pts), atol=1e-9)


def test_rod_field_mirror_symmetry():
    # axial background: u is even in x2
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=3.0),
                        HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=32, n_facade=64)
    pts = np.array([[0.5, 0.8], [1.7, 0.3], [-2.0, 1.1]])
    mirror = pts * np.array([1.0, -1.0])
    u1, _ = eval_u(sol, pts)
    u2, _ = eval_u(sol, mirror)
    assert np.allclose(u1, u2, atol=1e-12)


def test_exterior_harmonicity():
    # five-point finite-difference Laplacian of u vanishes off the rod
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 1.0)),
                        n_cap=32, n_facade=64)
    h = 1e-4
    for p in ([0.0, 1.0], [2.0, 0.5], [-1.5, -0.9]):
        p = np.asarray(p)
        stencil = np.array([p, p + [h, 0], p - [h, 0], p + [0, h], p - [0, h]])
        u, _ = eval_u(sol, stencil)
        lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
        assert abs(lap) < 1e-4


def test_far_field_approaches_background():
    bg = HarmonicBackground.linear((1.0, 0.5))
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=2.0), bg,
                        n_cap=32, n_facade=64)
    # dipole decay: the perturbation falls off like 1/r
    for r, tol in ((250.0, 2e-3), (2500.0, 2e-4)):
        far = np.array([[0.8 * r, 0.6 * r]])
        u, _ = eval_u(sol, far)
        assert abs(u[0] - bg.value(far)[0]) < tol


def test_transmission_check_disc():
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.0)), n_cap=512)
    rep = transmission_check(sol)
    assert rep["max_mismatch"] < 0.02
    assert len(rep["flux_out"]) == 16


def test_solution_exposes_spec_and_lambda():
    spec = RodSpec(L=2.0, delta=0.1, sigma0=4.0)
    sol = solve_forward(spec, HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=16, n_facade=32)
    assert sol.spec == spec
    assert sol.lam == pytest.approx(lambda_of_sigma(4.0))


def test_near_flags_on_eval():
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=32, n_facade=64)
    pts = np.array([[0.0, 0.101], [0.0, 2.0]])
    _, near = eval_u(sol, pts)
    assert near[0] and not near[1]


def test_eval_field_memory_bounded_by_chunk():
    # n = 464; the unchunked evaluation peaked at 341 MB on the 101^2 grid
    sol = solve_forward(RodSpec(L=2.0, delta=0.01, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.5)), n_cap=32, n_facade=200)
    assert len(sol.mesh) == 464
    peaks = {}
    for nx in (101, 201):
        g = np.linspace(-3.0, 3.0, nx)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        tracemalloc.start()
        try:
            u, grad, near = eval_field(sol, pts)
            peaks[nx] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.shape == near.shape == (nx * nx,) and grad.shape == (nx * nx, 2)
    assert peaks[101] < 16e6
    # beyond the chunk scratch only the O(m) outputs grow with the grid
    assert peaks[201] - peaks[101] < 100 * (201**2 - 101**2)


def plain_nystrom_density(mesh, lam, bg):
    """Reference: the plain Nystrom density, the NP kernel at every pair
    (kappa/(4 pi) on the diagonal, plus the column-identity correction),
    solved dense."""
    x, nu, w = mesh.points, mesh.normals, mesh.weights
    d1 = x[:, 0, None] - x[:, 0]
    d2 = x[:, 1, None] - x[:, 1]
    k = d1 * nu[:, 0, None] + d2 * nu[:, 1, None]
    r2 = d1 * d1 + d2 * d2
    np.fill_diagonal(r2, 1.0)
    k /= 2.0 * np.pi * r2
    np.fill_diagonal(k, mesh.curvatures / (4.0 * np.pi))
    k[np.diag_indices_from(k)] += (0.5 - w @ k) / w
    system = lam * np.eye(len(mesh)) - k * w
    rhs = np.einsum("ij,ij->i", bg.grad(x), nu)
    return DensityVector(scipy.linalg.solve(system, rhs), mesh)


def test_near_insulating_rod_at_default_counts():
    # D6: at sigma0 = 0.01, lam = -0.51 lies 0.017 from the NP spectrum.
    # With the Lorentzian across the 2 delta gap taken by the plain 8-point
    # rule, the default-count BEM was off by 1.03e-2 of the perturbation
    # on the probe circle (n = 704); with the product quadrature it is off
    # by 1.9e-6 at n = 384.  The reference is the plain Nystrom on a mesh
    # of 4x the caps and 6x the new facade count (panels 4/3 delta long),
    # which agrees with 4x, 12x to 2e-8.
    spec = RodSpec(L=2.0, delta=0.00625, sigma0=0.01)
    bg = HarmonicBackground.linear((1.0, 1.0))
    probe = sensor_circle((0.1, 0.05), 2.0, 64)
    sol = solve_forward(spec, bg)
    assert len(sol.mesh) == 384
    s_bem, _, _ = single_layer_field(sol.mesh, sol.phi, probe)
    fine = build_mesh(spec, n_cap=128, n_facade=960)
    ref = plain_nystrom_density(fine, lambda_of_sigma(spec.sigma0), bg)
    s_ref, _, _ = single_layer_field(fine, ref, probe)
    assert np.abs(s_bem - s_ref).max() <= 5e-6 * np.abs(s_ref).max()


THIN_ROD = dict(L=2.0, center=(0.1, -0.2), angle=0.3)
THIN_BACKGROUNDS = (HarmonicBackground.linear((1.0, 0.5)),
                    HarmonicBackground.polynomial((0.3, 1.0, 0.5, 1.0, -0.7)))


def _perturbations(mesh, sigma0, pts, backgrounds=THIN_BACKGROUNDS):
    """The perturbation at pts of each of the backgrounds on ``mesh``."""
    npm = assemble_np(mesh)
    return [single_layer_field(mesh, solve_density(npm, lambda_of_sigma(sigma0),
                                                   neumann_data(mesh, bg)), pts)[0]
            for bg in backgrounds]


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
@pytest.mark.parametrize("delta", [0.002, 0.001])
def test_default_mesh_of_a_thin_rod_is_graded(delta, sigma0):
    # against the uniform mesh of 2x the cap and 3x the facade counts, on
    # 64 probes at r = 3: the graded default (n = 960, 992) is off by at
    # most 1.16e-7 of the perturbation, the uniform default it replaced
    # (n = 1,072, 2,064) by up to 8.4e-7
    spec = RodSpec(delta=delta, sigma0=sigma0, **THIN_ROD)
    mesh = build_mesh(spec)
    assert mesh.rule == "graded" and len(mesh) == {0.002: 960, 0.001: 992}[delta]
    probe = sensor_circle(spec.center, 3.0, 64)
    dc, df = default_counts(spec)
    refs = _perturbations(build_mesh(spec, 2 * dc, 3 * df), sigma0, probe)
    for s, ref in zip(_perturbations(mesh, sigma0, probe), refs):
        assert np.abs(s - ref).max() <= 2e-7 * np.abs(ref).max()


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
def test_unflagged_points_near_a_thin_rod_are_accurate(sigma0, refined_graded_mesh):
    # points within 0.1 of the rod, a quarter of them within 6 delta of a
    # cap junction.  The near band was two node weights, 0.1 to 0.36 of a
    # panel: on the graded mesh it left points unflagged at up to 6.5e-4 of
    # the perturbation off a twice refined mesh (sigma0 = 0.01; 3.9e-5 at
    # sigma0 = 2).  Half a panel leaves them within 3.4e-7 (1.6e-8)
    delta = 0.001
    spec = RodSpec(delta=delta, sigma0=sigma0, **THIN_ROD)
    rng = np.random.default_rng(7)
    local = np.column_stack([rng.uniform(-1.1, 1.1, 6000), rng.uniform(-0.101, 0.101, 6000)])
    t = np.linspace(-6.0, 6.0, 25) * delta
    corner = np.stack(np.meshgrid(1.0 + t, delta + t), axis=-1).reshape(-1, 2)
    local = np.vstack([local, corner, corner * [-1.0, 1.0], corner * [1.0, -1.0]])
    pts = to_world(spec, local)
    dist = signed_distance(spec, pts)
    pts = pts[(dist > 0.0) & (dist <= 0.1)]
    bg = THIN_BACKGROUNDS[0]
    sol = solve_forward(spec, bg)
    assert sol.mesh.rule == "graded"
    s, _, near = single_layer_field(sol.mesh, sol.phi, pts)
    ref, = _perturbations(refined_graded_mesh(spec, 2), sigma0, pts, [bg])
    assert 0 < np.count_nonzero(near) < len(pts) // 2
    assert np.abs(s - ref)[~near].max() <= 2e-5 * np.abs(ref).max()
