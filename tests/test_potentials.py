"""Layer-potential kernels, the boundary operator and the density solve."""

import dataclasses
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from rodfield import potentials
from rodfield import (DensityVector, HarmonicBackground, RodSpec,
                      ValidationError, build_mesh, assemble_np, lambda_of_sigma,
                      neumann_data, single_layer, single_layer_field,
                      single_layer_grad, solve_density)
from rodfield.geometry import PANEL_ORDER, TAG_FACADE_BOTTOM, TAG_FACADE_TOP, to_local
from rodfield.potentials import NEAR_FACTOR, SolverError


def disc_mesh(n=64):
    return build_mesh(RodSpec(L=0.0, delta=1.0), n_cap=n)


def rod_mesh():
    return build_mesh(RodSpec(L=2.0, delta=0.1), n_cap=32, n_facade=64)


def _facade_sides(mesh):
    return [np.flatnonzero(mesh.tag_mask(t)) for t in (TAG_FACADE_TOP, TAG_FACADE_BOTTOM)]


def _facade_panels(mesh, cols):
    """The panels of one facade side: (node indices in increasing x1, lower
    and upper x1 of each panel), PANEL_ORDER nodes to a panel."""
    x1 = to_local(mesh.spec, mesh.points)[:, 0]
    n_panels = len(cols) // PANEL_ORDER
    h = mesh.spec.L / n_panels
    lo = -mesh.spec.L / 2.0 + h * np.arange(n_panels)
    return cols[np.argsort(x1[cols])].reshape(n_panels, PANEL_ORDER), lo, lo + h


def _twin_panel(mesh, rows, lo):
    """Index of the opposite-side panel over which each row node sits."""
    x1 = to_local(mesh.spec, mesh.points)[rows, 0]
    return np.searchsorted(lo, x1, side="right") - 1


def product_facade_weights(mesh, reach=1, sub=64, order=16):
    """Reference: opposite-facade entries within ``reach`` panels of the
    row's twin panel, the A_delta Lorentzian integrated against the
    source panel's Lagrange basis by a composite sub-rule.  Returns
    (rows, cols, weights) in dense indices."""
    delta = mesh.spec.delta
    x1 = to_local(mesh.spec, mesh.points)[:, 0]
    t, tw = np.polynomial.legendre.leggauss(order)
    top, bottom = _facade_sides(mesh)
    out = []
    for rows, cols in ((top, bottom), (bottom, top)):
        panels, lo, hi = _facade_panels(mesh, cols)
        twin = _twin_panel(mesh, rows, lo)
        for p, nodes in enumerate(panels):
            edges = np.linspace(lo[p], hi[p], sub + 1)
            half = (edges[1] - edges[0]) / 2.0
            s = ((edges[:-1] + edges[1:])[:, None] / 2.0 + half * t).ravel()
            ws = np.tile(half * tw, sub)
            y = x1[nodes]
            basis = np.stack([np.prod([(s - y[k]) / (y[j] - y[k])
                                       for k in range(len(y)) if k != j], axis=0)
                              for j in range(len(y))], axis=1)
            near = rows[np.abs(twin - p) <= reach]
            lor = delta / (np.pi * ((x1[near, None] - s) ** 2 + 4.0 * delta**2))
            out.append((np.repeat(near, len(y)), np.tile(nodes, len(near)),
                        ((lor * ws) @ basis).ravel()))
    return tuple(np.concatenate(a) for a in zip(*out))


def dense_np(mesh):
    """Reference: the dense (n, n) Nystrom assembly, one einsum per pair,
    with the product-quadrature facade entries of product_facade_weights."""
    x, nu, w = mesh.points, mesh.normals, mesh.weights
    dx = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", dx, dx)
    np.fill_diagonal(r2, 1.0)
    kern = np.einsum("ijk,ik->ij", dx, nu) / (2.0 * np.pi * r2)
    np.fill_diagonal(kern, mesh.curvatures / (4.0 * np.pi))
    if mesh.n_facade:
        rows, cols, weights = product_facade_weights(mesh)
        kern[rows, cols] = weights / w[cols]
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


def test_same_side_facade_pairs_are_zero():
    # (x - y).nu_x vanishes on a straight side; the world-frame assembly
    # wrote rounding there
    mesh = SYMMETRY_MESHES["odd_panels"]()
    dense = assemble_np(mesh).matrix
    for side in _facade_sides(mesh):
        pairs = dense[np.ix_(side, side)]
        np.fill_diagonal(pairs, 0.0)   # the column-identity correction
        assert not pairs.any()


def mp_panel_weights(delta, x, lo, hi):
    """30-digit quadrature: the A_delta Lorentzian at x1 = x integrated
    against the Lagrange basis of the Gauss nodes of the panel (lo, hi)
    on the other side, through the monomial moments in panel coordinates."""
    with mp.workdps(30):
        c, r = (mp.mpf(lo) + mp.mpf(hi)) / 2, (mp.mpf(hi) - mp.mpf(lo)) / 2
        w, beta = (mp.mpf(x) - c) / r, 2 * mp.mpf(delta) / r
        nodes = np.polynomial.legendre.leggauss(PANEL_ORDER)[0]
        cuts = [-1, w, 1] if -1 < w < 1 else [-1, 1]
        moments = mp.matrix([mp.quad(lambda t: t**k * beta / ((t - w) ** 2 + beta**2), cuts)
                             for k in range(PANEL_ORDER)])
        vander = mp.matrix([[mp.mpf(t) ** k for k in range(PANEL_ORDER)] for t in nodes])
        weights = mp.lu_solve(vander.T, moments) / (2 * mp.pi)
        return np.array([float(v) for v in weights])


@pytest.mark.parametrize("beta", [0.05, 0.25, 1.5, 6.4])
def test_lorentzian_table_matches_mpmath(beta):
    # on panels (-1, 1) across a gap 2 delta, beta = 2 delta; offset o puts
    # the source panel at (2 o - 1, 2 o + 1).  beta = 0.25 is the default
    # mesh, 6.4 the finest in validate, where every target takes the far
    # rule.  Measured: <= 3.2e-14 of the largest entry here, <= 1.0e-13 for
    # beta from 0.01 to 20 (at 0.8)
    table = potentials.lorentzian_panel_weights(beta)
    reach = potentials.PRODUCT_REACH
    assert table.shape == (2 * reach + 1, PANEL_ORDER, PANEL_ORDER)
    nodes = np.polynomial.legendre.leggauss(PANEL_ORDER)[0]
    ref = np.array([[mp_panel_weights(beta / 2, x, 2 * o - 1, 2 * o + 1) for x in nodes]
                    for o in range(-reach, reach + 1)])
    assert np.abs(table - ref).max() <= 1e-13 * np.abs(ref).max()


def test_opposite_side_facade_pairs_are_the_a_delta_kernel():
    mesh = SYMMETRY_MESHES["odd_panels"]()
    delta = mesh.spec.delta
    dense = assemble_np(mesh).matrix
    x1 = to_local(mesh.spec, mesh.points)[:, 0]
    top, bottom = _facade_sides(mesh)
    for rows, cols in ((top, bottom), (bottom, top)):
        lo = _facade_panels(mesh, cols)[1]
        twin = _twin_panel(mesh, rows, lo)
        # beyond one panel of the row's twin: the plain Lorentzian entry
        col_panel = _twin_panel(mesh, cols, lo)
        far = np.abs(twin[:, None] - col_panel) > 1
        assert far.any() and not far.all()
        t = x1[rows, None] - x1[cols]
        ref = delta / (np.pi * (t * t + 4.0 * delta**2)) * mesh.weights[cols]
        got = dense[np.ix_(rows, cols)]
        assert np.abs(got[far] / ref[far] - 1.0).max() <= 1e-14
    # within reach: the Lorentzian against the source panel's interpolant,
    # on the top rows over the middle panel (which straddles x1 = 0, so its
    # columns split between A_R2 and A_R1R2) and over the last one.
    # Measured: 8.2e-14 of the largest entry (beta = 1 on this mesh)
    panels, lo, hi = _facade_panels(mesh, bottom)
    twin = _twin_panel(mesh, top, lo)
    got, want = [], []
    for p in (len(panels) // 2, len(panels) - 1):
        for r in top[twin == p]:
            for s in range(max(p - 1, 0), min(p + 2, len(panels))):
                got.append(dense[r, panels[s]])
                want.append(mp_panel_weights(delta, x1[r], lo[s], hi[s]))
    want = np.array(want)
    assert np.abs(np.array(got) - want).max() <= 2e-13 * np.abs(want).max()


@pytest.fixture
def lu_calls(monkeypatch):
    """Counts the LU factorizations of the density solve."""
    calls = []
    factor = scipy.linalg.lu_factor

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    return calls


def _assert_matches_dense_lu(mesh, sigma0, rhs):
    lam = lambda_of_sigma(sigma0)
    phi = solve_density(assemble_np(mesh), lam, rhs)
    ref = scipy.linalg.solve(lam * np.eye(len(mesh)) - dense_np(mesh), rhs.values)
    assert np.linalg.norm(phi.values - ref) <= 1e-10 * np.linalg.norm(ref)
    assert phi.residual <= 1e-13
    return phi


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
@pytest.mark.parametrize("name", ["odd_panels", "minimal"])
def test_block_solve_matches_dense_lu(name, sigma0, lu_calls):
    mesh = SYMMETRY_MESHES[name]()
    # a background with all four parities present in its Neumann data
    rhs = neumann_data(mesh, HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.8)))
    phi = _assert_matches_dense_lu(mesh, sigma0, rhs)
    assert phi.factored_blocks == len(lu_calls) == 4


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
def test_linear_background_factors_two_blocks(sigma0, lu_calls):
    # a.nu has the parities of nu1 and nu2 in the rod frame, (-, +) and
    # (+, -); the other two parts are rounding
    mesh = SYMMETRY_MESHES["odd_panels"]()
    rhs = neumann_data(mesh, HarmonicBackground.linear((1.0, 0.5)))
    phi = _assert_matches_dense_lu(mesh, sigma0, rhs)
    assert phi.factored_blocks == len(lu_calls) == 2


def test_axial_field_on_a_disc_factors_one_block(lu_calls):
    mesh = build_mesh(RodSpec(L=0.0, delta=0.7), n_cap=24)
    rhs = neumann_data(mesh, HarmonicBackground.linear((1.0, 0.0)))
    phi = _assert_matches_dense_lu(mesh, 2.0, rhs)
    assert phi.factored_blocks == len(lu_calls) == 1


def test_asymmetric_mesh_is_refused():
    mesh = rod_mesh()
    points = mesh.points.copy()
    points[5] += [0.0, 1e-4]
    with pytest.raises(ValidationError, match="mirror-symmetric"):
        assemble_np(dataclasses.replace(mesh, points=points))
    # node counts that do not describe a stadium
    with pytest.raises(ValidationError):
        assemble_np(dataclasses.replace(mesh, n_facade=0))
    # a symmetric mesh whose sides are not at the spec's +-delta
    thick = dataclasses.replace(mesh.spec, delta=0.2)
    with pytest.raises(ValidationError, match="sides"):
        assemble_np(dataclasses.replace(mesh, spec=thick))


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


def test_direct_values_do_not_depend_on_the_chunk():
    # the chunk's sum was a BLAS gemv, which sums the rows at its block
    # edges in another order: 1906 of these 2047 points got another S or
    # grad S in the last bits when evaluated alone
    n = len(SYMMETRY_MESHES["odd_panels"]())
    mesh, phi, pts = _field_case((potentials.FAR_MIN_PAIRS - 1) // n)
    assert len(pts) > 2 * potentials.FIELD_CHUNK_BYTES // (24 * n)
    vals, grads, near = single_layer_field(mesh, phi, pts)
    assert near.any()
    for i, x in enumerate(pts):
        val, grad, flag = single_layer_field(mesh, phi, x)
        assert val == vals[i] and np.array_equal(grad, grads[i]) and flag == near[i]
    subset = np.random.default_rng(5).permutation(len(pts))[:700]
    val, grad, flag = single_layer_field(mesh, phi, pts[subset])
    assert np.array_equal(val, vals[subset]) and np.array_equal(grad, grads[subset])
    assert np.array_equal(flag, near[subset])


QUADRATIC = HarmonicBackground.polynomial((0.1, 1.0, -0.5, 0.3, 0.2))

#: mesh, and the half width of the square grid about the node centroid in
#: units of rho, the largest node distance from it
FAR_CASES = {
    # a rotated, shifted rod: most of the grid lies beyond 2 rho
    "rod": ("odd_panels", 4.0),
    "disc": ("disc", 4.0),
    # about half the grid lies inside the 2 rho circle
    "straddling": ("odd_panels", 2.5),
}


def _centroid_and_rho(mesh):
    c = mesh.points.mean(axis=0)
    return c, np.sqrt(np.square(mesh.points - c).sum(axis=1).max())


def _far_case(name, side):
    """A solved density and a side x side grid about the mesh, plus 16
    points within a local spacing of the boundary."""
    mesh_name, half = FAR_CASES[name]
    mesh = SYMMETRY_MESHES[mesh_name]()
    phi = solve_density(assemble_np(mesh), 1.5, neumann_data(mesh, QUADRATIC))
    c, rho = _centroid_and_rho(mesh)
    t = np.linspace(-half * rho, half * rho, side)
    grid = c + np.stack(np.meshgrid(t, t), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(side)
    k = rng.integers(len(mesh), size=16)
    off = rng.uniform(-1.0, 1.0, size=(16, 1)) * mesh.weights[k, None]
    return mesh, phi, np.vstack([grid, mesh.points[k] + off * mesh.normals[k]])


@pytest.fixture
def expansions(monkeypatch):
    """Counts the calls of the multipole evaluation."""
    calls = []
    real = potentials._multipole_field

    def spy(mesh, pw, pts, c, rho):
        calls.append(len(pts))
        return real(mesh, pw, pts, c, rho)

    monkeypatch.setattr(potentials, "_multipole_field", spy)
    return calls


@pytest.mark.parametrize("size", ["patched", "default"])
@pytest.mark.parametrize("name", list(FAR_CASES))
def test_far_points_from_the_expansion_match_dense(name, size, expansions, monkeypatch):
    n = len(SYMMETRY_MESHES[FAR_CASES[name][0]]())
    if size == "patched":
        monkeypatch.setattr(potentials, "FAR_MIN_PAIRS", 0)
        side = 21
    else:
        # at least half the grid is far, so this passes the pair threshold
        side = int(np.ceil(np.sqrt(2.2 * potentials.FAR_MIN_PAIRS / n)))
    mesh, phi, pts = _far_case(name, side)
    c, rho = _centroid_and_rho(mesh)
    far = np.square(pts - c).sum(axis=1) >= (potentials.FAR_RATIO * rho) ** 2
    vals, grads, near = single_layer_field(mesh, phi, pts)
    assert expansions == [np.count_nonzero(far)]
    assert far.mean() > 0.4 and (~far).sum() > 16
    ref_vals, ref_near = dense_single_layer(mesh, phi, pts)
    ref_grads, _ = dense_single_layer_grad(mesh, phi, pts)
    _assert_close(vals, ref_vals)
    _assert_close(grads, ref_grads)
    assert np.array_equal(near, ref_near) and near.any()


def test_single_far_point_from_the_expansion(expansions, monkeypatch):
    monkeypatch.setattr(potentials, "FAR_MIN_PAIRS", 0)
    mesh, phi, _ = _far_case("rod", 2)
    c, rho = _centroid_and_rho(mesh)
    x = c + 2.0 * rho * np.array([0.6, 0.8])
    val, grad, near = single_layer_field(mesh, phi, x)
    assert expansions == [1]
    assert np.ndim(val) == 0 and grad.shape == (2,) and np.ndim(near) == 0
    ref_val, ref_near = dense_single_layer(mesh, phi, x)
    ref_grad, _ = dense_single_layer_grad(mesh, phi, x)
    _assert_close(val, ref_val)
    _assert_close(grad, ref_grad)
    assert near == ref_near and not near


def test_below_the_pair_threshold_every_point_takes_the_direct_sum(expansions):
    mesh, phi, _ = _far_case("rod", 2)
    c, rho = _centroid_and_rho(mesh)
    m = -(-potentials.FAR_MIN_PAIRS // len(mesh))
    angle = np.linspace(0.0, 2.0 * np.pi, m)
    ring = c + 3.0 * rho * np.column_stack([np.cos(angle), np.sin(angle)])
    pw = phi.values * mesh.weights
    direct, direct_near = potentials._direct_field(mesh, pw, ring[1:])
    vals, grads, near = single_layer_field(mesh, phi, ring[1:])
    assert expansions == []
    assert np.array_equal(vals, direct[:, 2] / (4.0 * np.pi))
    assert np.array_equal(grads, direct[:, :2] / (2.0 * np.pi))
    assert np.array_equal(near, direct_near)
    # the threshold counts the far points only
    single_layer_field(mesh, phi, np.vstack([ring[1:], c + (ring[1:] - c) / 2.0]))
    assert expansions == []
    # one point more reaches the threshold: every point is far
    single_layer_field(mesh, phi, ring)
    assert expansions == [m]


def test_expansion_is_refused_where_a_far_point_could_be_near(expansions, monkeypatch):
    # on 8 nodes the spacing is 0.55 and 2 spacings pass rho = 0.7, so a
    # point 2 rho out can be flagged: no point takes the expansion
    monkeypatch.setattr(potentials, "FAR_MIN_PAIRS", 0)
    mesh = build_mesh(RodSpec(L=0.0, delta=0.7), n_cap=8)
    phi = DensityVector(values=np.ones(len(mesh)), mesh=mesh)
    c, rho = _centroid_and_rho(mesh)
    pts = c + 2.1 * rho * np.column_stack([np.cos(np.arange(64)), np.sin(np.arange(64))])
    vals, grads, near = single_layer_field(mesh, phi, pts)
    assert expansions == []
    assert near.any() and np.array_equal(near, dense_near_flags(mesh, pts))


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
