"""Layer-potential kernels, the boundary operator and the density solve."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from rodfield import potentials
from rodfield import (DensityVector, HarmonicBackground, RodSpec,
                      ValidationError, build_mesh, assemble_np, lambda_of_sigma,
                      neumann_data, single_layer, single_layer_field,
                      single_layer_grad, solve_density)
from rodfield.potentials import NEAR_FACTOR, SolverError, dump_density_csv


def disc_mesh(n=64):
    return build_mesh(RodSpec(L=0.0, delta=1.0), n_cap=n)


def rod_mesh():
    return build_mesh(RodSpec(L=2.0, delta=0.1), n_cap=32, n_facade=64)


def dense_np(mesh):
    """Reference: the dense (n, n) Nystrom assembly, one einsum per pair."""
    x, nu, w = mesh.points, mesh.normals, mesh.weights
    dx = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", dx, dx)
    np.fill_diagonal(r2, 1.0)
    kern = np.einsum("ijk,ik->ij", dx, nu) / (2.0 * np.pi * r2)
    np.fill_diagonal(kern, mesh.curvatures / (4.0 * np.pi))
    kern[np.diag_indices_from(kern)] += (0.5 - (w @ kern)) / w
    return kern * w[None, :]


def dense_near_flags(mesh, pts):
    """Reference: the unchunked near flags, from a dense (m, n) distance."""
    d = np.linalg.norm(pts[:, None, :] - mesh.points[None, :, :], axis=2)
    j = np.argmin(d, axis=1)
    return d[np.arange(len(pts)), j] < NEAR_FACTOR * mesh.weights[j]


def dense_single_layer(mesh, phi, x):
    """Reference: the unchunked single-layer potential over (m, n, 2)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = pts[:, None, :] - mesh.points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    vals = (np.log(r2) / (4.0 * np.pi)) @ (phi.values * mesh.weights)
    near = dense_near_flags(mesh, pts)
    if np.asarray(x).ndim == 1:
        return vals[0], near[0]
    return vals, near


def dense_single_layer_grad(mesh, phi, x):
    """Reference: the unchunked single-layer gradient over (m, n, 2)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = pts[:, None, :] - mesh.points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    coef = (phi.values * mesh.weights) / (2.0 * np.pi * r2)
    grads = np.einsum("ij,ijk->ik", coef, d)
    near = dense_near_flags(mesh, pts)
    if np.asarray(x).ndim == 1:
        return grads[0], near[0]
    return grads, near


SYMMETRY_MESHES = {
    "disc": lambda: build_mesh(RodSpec(L=0.0, delta=0.7, center=(0.3, 0.1)),
                               n_cap=24),
    "odd_panels": lambda: build_mesh(
        RodSpec(L=2.0, delta=0.1, angle=0.7, center=(0.4, -1.3)),
        n_cap=24, n_facade=40),
    "minimal": lambda: build_mesh(RodSpec(L=1.0, delta=0.2), n_cap=8,
                                  n_facade=8),
}


@pytest.mark.parametrize("name", SYMMETRY_MESHES)
def test_parity_blocks_match_dense_assembly(name):
    mesh = SYMMETRY_MESHES[name]()
    ref = dense_np(mesh)
    npm = assemble_np(mesh)
    assert npm.n == len(mesh)
    assert np.abs(npm.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
    v = np.random.default_rng(3).standard_normal(len(mesh))
    assert np.allclose(npm.apply(v), ref @ v, rtol=0, atol=1e-12 * np.abs(ref @ v).max())
    assert np.allclose(np.sort_complex(npm.eigenvalues()),
                       np.sort_complex(np.linalg.eigvals(ref)), atol=1e-10)


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
@pytest.mark.parametrize("name", ["odd_panels", "minimal"])
def test_block_solve_matches_dense_lu(name, sigma0):
    mesh = SYMMETRY_MESHES[name]()
    lam = lambda_of_sigma(sigma0)
    # a background with all four parities present in its Neumann data
    rhs = neumann_data(mesh, HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.8)))
    phi = solve_density(assemble_np(mesh), lam, rhs)
    ref = scipy.linalg.solve(lam * np.eye(len(mesh)) - dense_np(mesh), rhs.values)
    assert np.linalg.norm(phi.values - ref) <= 1e-10 * np.linalg.norm(ref)
    assert phi.residual <= 1e-13


def test_asymmetric_mesh_is_refused():
    mesh = rod_mesh()
    points = mesh.points.copy()
    points[5] += [0.0, 1e-4]
    with pytest.raises(ValidationError, match="mirror-symmetric"):
        assemble_np(dataclasses.replace(mesh, points=points))
    # node counts that do not describe a stadium
    with pytest.raises(ValidationError):
        assemble_np(dataclasses.replace(mesh, n_facade=0))


def test_np_kernel_on_disc_is_constant():
    # [DERIVED] on a circle of radius R the kernel equals 1/(4*pi*R)
    mesh = disc_mesh()
    npm = assemble_np(mesh)
    raw = npm.matrix - np.diag(npm.diag_correction * mesh.weights)
    kern = raw / mesh.weights[None, :]
    assert np.allclose(kern, 1.0 / (4.0 * np.pi), atol=1e-14)


def test_np_constant_vector_half_on_disc():
    # the matrix is symmetric on the disc, so K*[1] = K[1] = 1/2 there
    npm = assemble_np(disc_mesh())
    ones = np.ones(len(disc_mesh()))
    assert np.allclose(npm.apply(ones), 0.5, atol=1e-10)


def test_np_column_sums():
    for mesh in (disc_mesh(), rod_mesh()):
        npm = assemble_np(mesh)
        assert np.allclose(npm.weighted_column_sums(), 0.5, atol=1e-14)
        assert np.abs(npm.raw_weighted_column_sums() - 0.5).max() < 1e-3


def test_np_diag_correction_vanishes_on_disc():
    npm = assemble_np(disc_mesh())
    assert np.abs(npm.diag_correction).max() < 1e-12


def test_np_spectrum_disc():
    # [DERIVED] disc spectrum: one eigenvalue 1/2, the rest 0
    npm = assemble_np(disc_mesh())
    ev = np.sort(npm.eigenvalues().real)[::-1]
    assert ev[0] == pytest.approx(0.5, abs=1e-10)
    assert np.abs(ev[1:]).max() < 1e-3


def test_np_spectrum_in_standard_bounds():
    npm = assemble_np(rod_mesh())
    ev = npm.eigenvalues()
    assert np.abs(ev.imag).max() < 1e-8
    assert ev.real.max() <= 0.5 + 1e-3
    assert ev.real.min() >= -0.5 - 1e-3


def test_neumann_data_zero_total():
    mesh = rod_mesh()
    for bg in (HarmonicBackground.linear((1.0, -0.5)),
               HarmonicBackground.polynomial((0.0, 0.0, 0.0, 1.0, 0.5))):
        rhs = neumann_data(mesh, bg)
        scale = np.dot(mesh.weights, np.abs(rhs.values))
        assert abs(rhs.weighted_total()) < 1e-12 * scale


def test_solve_density_residual_and_total():
    mesh = rod_mesh()
    npm = assemble_np(mesh)
    rhs = neumann_data(mesh, HarmonicBackground.linear((1.0, 1.0)))
    phi = solve_density(npm, lam=1.5, rhs=rhs)
    scale = np.dot(mesh.weights, np.abs(phi.values))
    assert abs(phi.weighted_total()) < 1e-10 * scale
    sys_res = 1.5 * phi.values - npm.apply(phi.values) - rhs.values
    assert np.linalg.norm(sys_res) < 1e-10 * np.linalg.norm(rhs.values)
    assert 0.0 <= phi.residual < 1e-13


def test_solve_density_singular_lam_raises():
    # lam = 1/2 sits on the spectrum (constant eigenfunction)
    mesh = disc_mesh()
    npm = assemble_np(mesh)
    rhs = DensityVector(values=np.ones(len(mesh)), mesh=mesh)
    with pytest.raises(SolverError):
        solve_density(npm, lam=0.5, rhs=rhs)


def test_single_layer_uniform_circle():
    # [DERIVED] S[1] of the unit circle equals ln|x| outside, 0 inside
    mesh = disc_mesh(128)
    phi = DensityVector(values=np.ones(len(mesh)), mesh=mesh)
    pts = np.array([[2.0, 0.0], [0.0, -3.0], [0.1, 0.2]])
    vals, near = single_layer(mesh, phi, pts)
    assert vals[0] == pytest.approx(np.log(2.0), abs=1e-10)
    assert vals[1] == pytest.approx(np.log(3.0), abs=1e-10)
    assert vals[2] == pytest.approx(0.0, abs=1e-10)
    assert not near.any()


def test_single_layer_far_field_decay():
    # zero-total density has no monopole: 1/r decay of the gradient
    mesh = rod_mesh()
    npm = assemble_np(mesh)
    rhs = neumann_data(mesh, HarmonicBackground.linear((1.0, 0.0)))
    phi = solve_density(npm, lam=1.5, rhs=rhs)
    far = np.array([[50.0, 10.0]])
    vals, _ = single_layer(mesh, phi, far)
    assert abs(vals[0]) < 1e-2
    g, _ = single_layer_grad(mesh, phi, far)
    assert np.linalg.norm(g) < 1e-3


def test_single_layer_grad_finite_difference():
    mesh = rod_mesh()
    npm = assemble_np(mesh)
    rhs = neumann_data(mesh, HarmonicBackground.linear((0.5, 1.0)))
    phi = solve_density(npm, lam=1.5, rhs=rhs)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(10, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1.8]
    g, _ = single_layer_grad(mesh, phi, pts)
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        up, _ = single_layer(mesh, phi, pts + e)
        dn, _ = single_layer(mesh, phi, pts - e)
        assert np.allclose(g[:, j], (up - dn) / (2 * eps), atol=1e-7)


def test_near_flags():
    mesh = rod_mesh()
    phi = DensityVector(values=np.ones(len(mesh)), mesh=mesh)
    pts = np.array([[0.0, 0.1001], [0.0, 3.0]])
    _, near = single_layer(mesh, phi, pts)
    assert near[0] and not near[1]


def _field_case(m):
    """A solved density on a rotated, shifted rod and m points around it,
    every fourth one within a local spacing of the boundary."""
    mesh = SYMMETRY_MESHES["odd_panels"]()
    bg = HarmonicBackground.polynomial((0.1, 1.0, -0.5, 0.3, 0.2))
    phi = solve_density(assemble_np(mesh), 1.5, neumann_data(mesh, bg))
    rng = np.random.default_rng(m)
    pts = mesh.spec.center + rng.uniform(-2.0, 2.0, size=(m, 2))
    k = rng.integers(len(mesh), size=m)[::4]
    off = rng.uniform(-1.0, 1.0, size=(len(k), 1)) * mesh.weights[k, None]
    pts[::4] = mesh.points[k] + off * mesh.normals[k]
    return mesh, phi, pts


def _assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("chunk", [7, None])
def test_single_layer_field_matches_dense_across_chunks(chunk, monkeypatch):
    n = len(SYMMETRY_MESHES["odd_panels"]())
    if chunk is None:
        chunk = potentials.FIELD_CHUNK_BYTES // (24 * n)
        assert 1 < chunk < 4096
    else:
        # the scratch is three (chunk, n) float arrays
        monkeypatch.setattr(potentials, "FIELD_CHUNK_BYTES", 24 * n * chunk)
    for m in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
        mesh, phi, pts = _field_case(m)
        vals, grads, near = single_layer_field(mesh, phi, pts)
        ref_vals, ref_near = dense_single_layer(mesh, phi, pts)
        ref_grads, _ = dense_single_layer_grad(mesh, phi, pts)
        _assert_close(vals, ref_vals)
        _assert_close(grads, ref_grads)
        assert np.array_equal(near, ref_near)
        assert near.any() or m == 1
        assert np.array_equal(single_layer(mesh, phi, pts)[0], vals)
        assert np.array_equal(single_layer_grad(mesh, phi, pts)[0], grads)


def test_single_layer_field_single_point():
    mesh, phi, pts = _field_case(8)
    for x in pts[:2]:
        val, grad, near = single_layer_field(mesh, phi, x)
        ref_val, ref_near = dense_single_layer(mesh, phi, x)
        ref_grad, _ = dense_single_layer_grad(mesh, phi, x)
        assert np.ndim(val) == 0 and grad.shape == (2,) and np.ndim(near) == 0
        _assert_close(val, ref_val)
        _assert_close(grad, ref_grad)
        assert near == ref_near
        assert single_layer(mesh, phi, x) == (val, near)


def test_evaluation_on_a_mesh_node_is_refused():
    mesh, phi, _ = _field_case(1)
    node = mesh.points[5]
    where = re.escape(f"({node[0]!r}, {node[1]!r})")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (single_layer, single_layer_grad, single_layer_field):
            with pytest.raises(ValidationError, match=where):
                fn(mesh, phi, np.array([[3.0, 3.0], node]))
            with pytest.raises(ValidationError, match=where):
                fn(mesh, phi, node)


def test_dump_density_csv(tmp_path):
    mesh = rod_mesh()
    phi = DensityVector(values=np.arange(float(len(mesh))), mesh=mesh)
    path = tmp_path / "phi.csv"
    dump_density_csv(phi, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(mesh) + 1
