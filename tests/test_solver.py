"""Forward transmission solves against analytic and structural oracles."""

import tracemalloc

import numpy as np
import pytest

from rodfield import (HarmonicBackground, RodSpec, ValidationError, eval_field,
                      eval_grad_u, eval_u, lambda_of_sigma, solve_forward,
                      transmission_check)
from rodfield.solver import (disc_exterior_grad, disc_exterior_u,
                             disc_interior_u, dump_field_csv)


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


def test_near_flags_on_eval(tmp_path):
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=32, n_facade=64)
    pts = np.array([[0.0, 0.101], [0.0, 2.0]])
    _, near = eval_u(sol, pts)
    assert near[0] and not near[1]
    path = tmp_path / "field.csv"
    dump_field_csv(sol, pts, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["x1", "x2"]
    assert len(lines) == 3


def test_eval_field_memory_bounded_by_chunk():
    # n = 464; the unchunked evaluation peaked at 341 MB on the 101^2 grid
    sol = solve_forward(RodSpec(L=2.0, delta=0.01, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.5)))
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
