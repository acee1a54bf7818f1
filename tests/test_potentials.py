"""Layer-potential kernels, the boundary operator and the density solve."""

import dataclasses
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from rodfield import potentials
from rodfield import (DensityVector, HarmonicBackground, RodSpec,
                      ValidationError, build_mesh, assemble_np, lambda_of_sigma,
                      neumann_data, single_layer_field, solve_density)
from rodfield.geometry import (GAUSS_NODES, PANEL_ORDER, TAG_CAP_LEFT, TAG_CAP_RIGHT,
                              TAG_FACADE_BOTTOM, TAG_FACADE_TOP, default_counts)
from rodfield.potentials import SolverError


def disc_mesh(n=64):
    return build_mesh(RodSpec(L=0.0, delta=1.0), n_cap=n)


def rod_mesh():
    return build_mesh(RodSpec(L=2.0, delta=0.1), n_cap=32, n_facade=64)


def _facade_sides(mesh):
    return [np.flatnonzero(mesh.tag_mask(t)) for t in (TAG_FACADE_TOP, TAG_FACADE_BOTTOM)]


def _facade_panels(mesh, cols):
    """The panels of one facade side: (node indices in increasing x1, lower
    and upper x1 of each panel), PANEL_ORDER nodes to a panel."""
    x1 = mesh.points[:, 0]
    panels = cols[np.argsort(x1[cols])].reshape(-1, PANEL_ORDER)
    h = mesh.panel_lengths[panels[:, 0]]
    lo = -mesh.spec.L / 2.0 + np.concatenate([[0.0], np.cumsum(h)[:-1]])
    return panels, lo, lo + h


def product_facade_weights(mesh, sub=64, order=16):
    """Reference: every opposite-facade entry, the A_delta Lorentzian
    integrated against the source panel's Lagrange basis by a composite
    sub-rule.  The basis is formed in the panel's own coordinate on (-1, 1),
    on the Gauss nodes, not on the stored node positions: those are rounded
    in x1, by 6e-12 of a delta/32 panel at x1 = L/2.  Returns (rows, cols,
    weights) in dense indices."""
    delta = mesh.spec.delta
    x1 = mesh.points[:, 0]
    t, tw = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.0, 1.0, sub + 1)
    tau = ((edges[:-1] + edges[1:])[:, None] / 2.0 + t / sub).ravel()
    y = GAUSS_NODES
    basis = np.stack([np.prod([(tau - y[k]) / (y[j] - y[k])
                               for k in range(len(y)) if k != j], axis=0)
                      for j in range(len(y))], axis=1)
    top, bottom = _facade_sides(mesh)
    out = []
    for rows, cols in ((top, bottom), (bottom, top)):
        panels, lo, hi = _facade_panels(mesh, cols)
        for p, nodes in enumerate(panels):
            half = (hi[p] - lo[p]) / 2.0
            s = (lo[p] + hi[p]) / 2.0 + half * tau
            ws = np.tile(half * tw / sub, sub)
            lor = delta / (np.pi * ((x1[rows, None] - s) ** 2 + 4.0 * delta**2))
            out.append((np.repeat(rows, len(y)), np.tile(nodes, len(rows)),
                        ((lor * ws) @ basis).ravel()))
    return tuple(np.concatenate(a) for a in zip(*out))


def dense_np(mesh, correct=True):
    """Reference: the dense (n, n) Nystrom assembly, one einsum per pair,
    with the product-quadrature facade entries of product_facade_weights,
    and with the diagonal column-identity correction unless not ``correct``."""
    x, nu, w = mesh.points, mesh.normals, mesh.weights
    dx = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", dx, dx)
    np.fill_diagonal(r2, 1.0)
    kern = np.einsum("ijk,ik->ij", dx, nu) / (2.0 * np.pi * r2)
    np.fill_diagonal(kern, mesh.curvatures / (4.0 * np.pi))
    if mesh.n_facade:
        rows, cols, weights = product_facade_weights(mesh)
        kern[rows, cols] = weights / w[cols]
    if correct:
        kern[np.diag_indices_from(kern)] += (0.5 - (w @ kern)) / w
    return kern * w[None, :]


def dense_near_flags(mesh, pts):
    """Reference: the unchunked near flags, from a dense (m, n) distance."""
    d = np.linalg.norm(pts[:, None, :] - mesh.points[None, :, :], axis=2)
    return (d < potentials.NEAR_FACTOR * mesh.panel_lengths).any(axis=1)


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


@pytest.mark.parametrize("mesh", [
    disc_mesh, rod_mesh,
    lambda: build_mesh(RodSpec(L=2.0, delta=0.001, angle=0.3, center=(0.1, -0.2)),
                       n_cap=32, n_facade=1000),
    lambda: build_mesh(RodSpec(L=2.0, delta=0.002)),
    lambda: build_mesh(RodSpec(L=2.0, delta=1e-5)),
    SYMMETRY_MESHES["odd_panels"],
    lambda: build_mesh(RodSpec(L=2.0, delta=0.01))],
    ids=["disc", "rod", "thin_rod", "graded", "graded_1e-5", "odd_panels", "uniform"])
def test_orbit_matrices_do_not_depend_on_the_chunk(mesh, monkeypatch):
    # every entry is formed by itself, so one row per chunk and a single
    # chunk give the same bits, in the kernel pass, in the cross pass and
    # in the butterflies that form the parity blocks.
    # odd_panels has a panel split across A_R1R2 and A_R2; the uniform
    # default's panels are long, so most cross pairs are near
    mesh = mesh()
    mats = {}
    for budget in (1, 1 << 30):
        monkeypatch.setattr(potentials, "NP_CHUNK_BYTES", budget)
        mats[budget] = assemble_np(mesh).blocks
    assert np.isfinite(mats[1]).all()
    assert np.array_equal(mats[1], mats[1 << 30])


@pytest.mark.parametrize("delta", [0.001, 0.01], ids=["graded", "uniform"])
def test_mesh_and_orbit_matrices_do_not_depend_on_the_placement(delta):
    # the mesh is built in the rod frame, so a placed rod has the nodes,
    # normals and parity blocks of the rod at the origin, bit for bit.  While
    # the mesh was placed and mapped back the matrices differed by up to
    # 1.2e-11 of the largest entry here, and by 6.0e-7 at delta = 1e-5 for
    # a rod at (1e3, -2e3), angle 2.1
    origin = RodSpec(L=2.0, delta=delta)
    placed = dataclasses.replace(origin, center=(0.1, -0.2), angle=0.3)
    meshes = build_mesh(origin), build_mesh(placed)
    assert [m.rule for m in meshes] == [{0.001: "graded", 0.01: "uniform"}[delta]] * 2
    for name in ("points", "normals", "curvatures", "weights", "panel_lengths", "orbits"):
        assert np.array_equal(getattr(meshes[0], name), getattr(meshes[1], name))
    mats = [assemble_np(m).blocks for m in meshes]
    assert np.array_equal(mats[0], mats[1])


def _assembly_scratch(mesh):
    """Bytes that the second of two assemblies of ``mesh`` traces beyond
    its parity blocks."""
    assemble_np(mesh)
    tracemalloc.start()
    try:
        npm = assemble_np(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - npm.blocks.nbytes


def test_assembly_scratch_is_bounded_by_the_chunk():
    # the kernel ran once per mirror orbit through (4, n/4, n/4)
    # temporaries after zero-filling the result: 12.6 MB traced for 2.1 MB
    # of orbit matrices on this disc
    assert _assembly_scratch(disc_mesh(512)) <= 1 << 20


def test_lorentzian_gather_scratch_is_a_fraction_of_the_block():
    # the cross-rod blocks of A_R2 and A_R1R2 were gathered whole, a
    # (n_facade/2)^2 copy each: 10.72 MB traced for 8.52 MB of orbit
    # matrices at n = 2,064
    spec = RodSpec(L=2.0, delta=0.001, angle=0.3, center=(0.1, -0.2))
    assert _assembly_scratch(build_mesh(spec, *default_counts(spec))) <= 3 << 19


@pytest.mark.parametrize("delta", [0.001, 1e-5])
def test_assembly_scratch_of_a_graded_mesh_is_bounded(delta):
    # measured: 0.67 MB on both default meshes (n = 800, 1,024)
    assert _assembly_scratch(build_mesh(RodSpec(L=2.0, delta=delta))) <= 3 << 18


def loop_top_rows(mesh):
    """Reference: the top side's rows (4, n_facade/2, n/4) of the four
    orbit matrices, without the column-identity correction, one entry at a
    time.  Row a is the top node q_a of the quarter arc q, column b the
    source node g(q_b).  Against a cap node the entry is the NP kernel
    <x - y, nu_x> w / (2 pi |x - y|^2), against the same side 0, and
    across the rod the A_delta kernel: on a source panel of the whole
    bottom side (length h, centre c, the midpoint of its end nodes) whose
    target z = (2 (x1 - c) + 4 i delta) / h has |z| < CROSS_NEAR_Z, the
    product weight lorentzian_weights(z) of the node; on any other, the
    node rule delta w / (pi ((x1 - y1)^2 + 4 delta^2)).  The nodes are the
    mesh's own, whose mirror images are the exact sign flips that assembly
    takes (with nodes 4.4e-16 off those, the loop read 4.4e-12 off)."""
    delta, q = mesh.spec.delta, mesh.orbits[0]
    x, nu, w, h = (a.tolist() for a in (mesh.points, mesh.normals, mesh.weights,
                                        mesh.panel_lengths))
    cap = (mesh.tag_mask(TAG_CAP_RIGHT) | mesh.tag_mask(TAG_CAP_LEFT)).tolist()
    bottom = np.flatnonzero(mesh.tag_mask(TAG_FACADE_BOTTOM))
    panel_of = {}
    for nodes in bottom[np.argsort(mesh.points[bottom, 0])].reshape(-1, PANEL_ORDER).tolist():
        centre = (x[nodes[0]][0] + x[nodes[-1]][0]) / 2.0
        panel_of.update((node, (j, centre)) for j, node in enumerate(nodes))
    rows = q[mesh.n_cap // 2:].tolist()
    out = np.zeros((4, len(rows), len(q)))
    for g in range(4):
        for a, row in enumerate(rows):
            (x1, x2), (n1, n2) = x[row], nu[row]
            for b, col in enumerate(mesh.orbits[g].tolist()):
                y1, y2 = x[col]
                if cap[col]:
                    r2 = (x1 - y1) ** 2 + (x2 - y2) ** 2
                    out[g, a, b] = ((x1 - y1) * n1 + (x2 - y2) * n2) * w[col] / (2.0 * np.pi * r2)
                elif col in panel_of:
                    j, centre = panel_of[col]
                    # z by numpy's complex division, as in assembly: it
                    # multiplies by 1/h, and Python's division moved these
                    # entries by up to 9e-14 of a block's largest
                    z = (2.0 * (x1 - centre) + 4j * delta) / np.array([h[col]])
                    if np.abs(z[0]) < potentials.CROSS_NEAR_Z:
                        out[g, a, b] = potentials.lorentzian_weights(z)[0, j]
                    else:
                        out[g, a, b] = delta * w[col] / (np.pi * ((x1 - y1) ** 2 + 4.0 * delta**2))
    return out


@pytest.mark.parametrize("mesh", [
    lambda: build_mesh(RodSpec(L=2.0, delta=0.002)),
    lambda: build_mesh(RodSpec(L=2.0, delta=1e-5)),
    SYMMETRY_MESHES["odd_panels"]], ids=["graded", "graded_1e-5", "odd_panels"])
def test_top_side_rows_match_a_plain_loop(mesh):
    # on the default graded meshes and on one whose middle panel straddles
    # x1 = 0, every top-side entry of the four orbit matrices, within 2e-14
    # of each block's largest entry.  product_facade_weights cannot serve:
    # at delta = 1e-5 its sub-panels of an L/16 panel are 100 times wider
    # than the Lorentzian.
    # Measured: <= 3.1e-16 on the cap columns, and 2.6e-18 across the rod
    # (1.3e-14 while lorentzian_weights took a lone target by a
    # vector-matrix product and several by a matrix product)
    mesh = mesh()
    mc = mesh.n_cap // 2
    got, want = potentials._orbit_matrices(mesh)[:, mc:], loop_top_rows(mesh)
    for g in range(4):
        for cols in (slice(None, mc), slice(mc, None)):
            err = np.abs(got[g, :, cols] - want[g, :, cols]).max()
            assert err <= 2e-14 * np.abs(want[g, :, cols]).max()


def table_cross_blocks(mesh):
    """Oracle on equal facade panels: the top side's rows of A_R2 and
    A_R1R2 against their top side columns, from one table of
    lorentzian_weights over every panel offset, as assembly once gathered
    them.  Row a' is the top node over bottom node k = nf-1-a'; column b'
    is bottom node nf-1-b' in A_R2 and b' in A_R1R2.  For a row at Gauss
    node i, lines[i, 8 (o + panels - 1) + j] weighs source node j of the
    panel o to the right, at z = t_i - 2 o + i beta."""
    nf = mesh.n_facade
    panels = nf // PANEL_ORDER
    beta = 4.0 * mesh.spec.delta / (mesh.spec.L / panels)
    z = potentials.GAUSS_NODES - 2.0 * np.arange(1 - panels, panels)[:, None] + 1j * beta
    lines = potentials.lorentzian_weights(z).transpose(1, 0, 2).reshape(PANEL_ORDER, -1)
    windows = np.lib.stride_tricks.sliding_window_view(lines, nf // 2, axis=1)
    k = np.arange(nf - 1, nf // 2 - 1, -1)
    i, start = k % PANEL_ORDER, PANEL_ORDER * (panels - 1 - k // PANEL_ORDER)
    return windows[i, start + nf // 2, ::-1], windows[i, start]


@pytest.mark.parametrize("mesh", [
    SYMMETRY_MESHES["odd_panels"], SYMMETRY_MESHES["minimal"], rod_mesh,
    lambda: build_mesh(RodSpec(L=2.0, delta=0.01), *default_counts(RodSpec(L=2.0, delta=0.01))),
    lambda: build_mesh(RodSpec(L=2.0, delta=0.001, angle=0.3, center=(0.1, -0.2)),
                       n_cap=32, n_facade=1000)],
    ids=["odd_panels", "minimal", "rod", "fieldmap", "thin_rod"])
def test_cross_facade_blocks_match_the_offset_table(mesh):
    # the node rule beyond |z| = 12 and the product weights within it,
    # one routine for any panels, against the table that equal panels
    # allowed.  Measured: <= 4.8e-13 of each block's largest entry
    mesh = mesh()
    mc = mesh.n_cap // 2
    mats = potentials._orbit_matrices(mesh)
    for got, want in zip(mats[2:, mc:, mc:], table_cross_blocks(mesh)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_graded_correction_lies_in_the_even_block(refined_graded_mesh):
    # a rank-one term fix_b w_b / |Gamma| on every entry of column b acts
    # on the (+, +) block alone: the three odd blocks do not take it.  The mesh
    # has an odd number of facade panels, so one straddles x1 = 0.  It is
    # unplaced: the world-frame reference loses 1e-11 of an entry to
    # rounding in x - y across the short junction panels of a placed rod.
    # Measured: column sums within 4.4e-16 of 1/2, raw sums within
    # 1.0e-14 and blocks within 1.1e-13 of the reference (1.47e-12 off in
    # the raw sums while the reference's basis took the rounded node x1)
    mesh = refined_graded_mesh(RodSpec(L=1.0, delta=0.05), 0)
    assert mesh.graded and mesh.n_facade // PANEL_ORDER % 2 == 1
    npm = assemble_np(mesh)
    ref = dense_np(mesh, correct=False)
    assert np.abs(npm.weighted_column_sums() - 0.5).max() <= 1e-13
    assert np.allclose(npm.raw_weighted_column_sums(), mesh.weights @ ref / mesh.weights,
                       rtol=0.0, atol=1e-12)
    orbits = mesh.orbits
    ref_mats = np.stack([ref[np.ix_(orbits[0], orbits[g])] for g in range(4)])
    for s in range(1, 4):
        want = np.tensordot(potentials.CHI[s], ref_mats, axes=1)
        assert np.abs(npm.blocks[s] - want).max() <= 1e-12 * np.abs(want).max()
    # the even block takes 4 fix_b w_b / |Gamma| in column b
    wq = mesh.weights[orbits[0]]
    fix = npm.correction[orbits[0]] * wq
    want = np.tensordot(potentials.CHI[0], ref_mats, axes=1) + 4.0 * fix * wq / mesh.weights.sum()
    assert np.abs(npm.blocks[0] - want).max() <= 1e-12 * np.abs(want).max()


def butterfly(mats):
    """Reference: the parity blocks sum_g CHI[s, g] A_g of the orbit
    matrices (A_e, A_R1, A_R2, A_R1R2), as (A_e +- A_R1) +- (A_R2 +- A_R1R2)."""
    e, r1, r2, r12 = mats
    return np.stack([(e + r1) + (r2 + r12), (e - r1) + (r2 - r12),
                     (e + r1) - (r2 + r12), (e - r1) - (r2 - r12)])


@pytest.mark.parametrize("delta", [0.002, 0.01], ids=["graded", "uniform"])
def test_each_correction_lies_only_where_it_acts(delta):
    # the graded rank-one term acts on the (+, +) block alone and is added
    # there alone, so the odd blocks are the butterflies of the orbit
    # matrices bit for bit; added to all four orbit matrices, it left its
    # rounding in them.  The uniform correction is added on the diagonal
    # of every block, and nowhere else
    mesh = build_mesh(RodSpec(L=2.0, delta=delta))
    npm, bare = assemble_np(mesh), butterfly(potentials._orbit_matrices(mesh))
    wq = mesh.weights[mesh.orbits[0]]
    fix = npm.correction[mesh.orbits[0]] * wq
    diag = np.eye(len(wq), dtype=bool)
    if mesh.graded:
        assert np.array_equal(npm.blocks[1:], bare[1:])
        want = bare[0] + fix * wq / wq.sum()
        assert np.abs(npm.blocks[0] - want).max() <= 1e-15 * np.abs(want).max()
    else:
        assert np.array_equal(npm.blocks[:, ~diag], bare[:, ~diag])
        got = npm.blocks[:, diag] - bare[:, diag]
        assert np.abs(got - fix).max() <= 1e-15 * np.abs(bare).max()


def test_same_side_facade_pairs_are_zero():
    # (x - y).nu_x vanishes on a straight side, and the kernel's own
    # arithmetic gives 0 there, with no fill: x2 - y2 = 0 exactly on the
    # top rows' same-side blocks, A_e and A_R1, and the cross pass and the
    # diagonal kappa/(4 pi), 0 on a side, leave them so.  The world-frame
    # assembly wrote rounding there.  The parity blocks, sums of the four
    # A_g, carry rounding on these pairs, so the orbit matrices are read
    meshes = [SYMMETRY_MESHES["odd_panels"](), build_mesh(RodSpec(L=2.0, delta=0.002)),
              build_mesh(RodSpec(L=2.0, delta=1e-5))]
    assert [m.rule for m in meshes] == ["uniform", "graded", "graded"]
    for mesh in meshes:
        q, mc = mesh.orbits[0], mesh.n_cap // 2
        mats = np.full((4, len(q), len(q)), np.nan)
        potentials._orbit_kernel(mats, mesh.points[q], mesh.normals[q], mesh.weights[q])
        same = mats[:2, mc:, mc:]
        np.fill_diagonal(same[0], 0.0)   # 0/0: assembly writes the diagonal
        assert not same.any()
        assert not potentials._orbit_matrices(mesh)[:2, mc:, mc:].any()


def mp_panel_weights(delta, x, lo, hi):
    """30-digit reference: the A_delta Lorentzian at x1 = x integrated
    against the Lagrange basis of the Gauss nodes of the panel (lo, hi)
    on the other side, through the monomial moments in panel coordinates.
    With u = t - w, the moment of t^k is sum_j C(k, j) w^(k-j) I_j, and
    I_j = int u^j beta / (u^2 + beta^2) du has the closed forms
    I_0 = atan(u / beta), I_1 = beta log(u^2 + beta^2) / 2 and
    I_j = beta u^(j-1) / (j-1) - beta^2 I_(j-2)."""
    with mp.workdps(30):
        c, r = (mp.mpf(lo) + mp.mpf(hi)) / 2, (mp.mpf(hi) - mp.mpf(lo)) / 2
        w, beta = (mp.mpf(x) - c) / r, 2 * mp.mpf(delta) / r
        a, b = -1 - w, 1 - w
        ints = [mp.atan(b / beta) - mp.atan(a / beta),
                beta * mp.log((b**2 + beta**2) / (a**2 + beta**2)) / 2]
        for j in range(2, PANEL_ORDER):
            ints.append(beta * (b ** (j - 1) - a ** (j - 1)) / (j - 1) - beta**2 * ints[j - 2])
        moments = mp.matrix([mp.fsum(mp.binomial(k, j) * w ** (k - j) * ints[j]
                                     for j in range(k + 1)) for k in range(PANEL_ORDER)])
        nodes = np.polynomial.legendre.leggauss(PANEL_ORDER)[0]
        vander = mp.matrix([[mp.mpf(t) ** k for k in range(PANEL_ORDER)] for t in nodes])
        weights = mp.lu_solve(vander.T, moments) / (2 * mp.pi)
        return np.array([float(v) for v in weights])


@pytest.mark.parametrize("beta", [0.05, 0.25, 1.5, 6.4])
def test_lorentzian_table_matches_mpmath(beta):
    # on panels (-1, 1) across a gap 2 delta, beta = 2 delta; offset o puts
    # the source panel at (2 o - 1, 2 o + 1).  beta = 0.25 is the default
    # mesh, 6.4 the finest in validate, where every target takes the far
    # rule; offsets 2 and 3 take it at every beta.  Measured: <= 2.0e-14 of
    # the largest entry
    panels = 4
    table = potentials.lorentzian_weights(
        potentials.GAUSS_NODES - 2.0 * np.arange(1 - panels, panels)[:, None] + 1j * beta)
    assert table.shape == (2 * panels - 1, PANEL_ORDER, PANEL_ORDER)
    nodes = np.polynomial.legendre.leggauss(PANEL_ORDER)[0]
    ref = np.array([[mp_panel_weights(beta / 2, x, 2 * o - 1, 2 * o + 1) for x in nodes]
                    for o in range(1 - panels, panels)])
    assert np.abs(table - ref).max() <= 1e-13 * np.abs(ref).max()


def test_lorentzian_weights_match_mpmath_at_any_target():
    # a_delta_apply puts its target anywhere in a panel's coordinates, off
    # the nodes of the NP table.  Measured: <= 9.4e-15 over 3,000 such
    # draws, where the largest entry is 0.77 and a row sums to <= 1/2
    rng = np.random.default_rng(0)
    z = rng.uniform(-4.0, 4.0, 300) + 1j * 10.0 ** rng.uniform(-8.0, 1.0, 300)
    got = potentials.lorentzian_weights(z)
    assert got.shape == (300, PANEL_ORDER)
    ref = np.array([mp_panel_weights(b / 2, s, -1, 1) for s, b in zip(z.real, z.imag)])
    assert np.abs(got - ref).max() <= 2e-14


def test_lorentzian_weights_of_a_target_do_not_depend_on_the_call():
    # a lone target took a vector-matrix product and a batch a matrix
    # product, which sum in different orders: 3.0e-15 apart at
    # z = 0.797 + 1i.  Targets with |z| < 1.3 take the recurrence, the
    # others the Gauss rule
    rng = np.random.default_rng(4)
    near = rng.uniform(-0.9, 0.9, 40) + 1j * 10.0 ** rng.uniform(-8.0, -0.05, 40)
    far = np.concatenate([rng.uniform(-4.0, 4.0, 20) + 1j * rng.uniform(1.3, 10.0, 20),
                          rng.choice([-1.0, 1.0], 20) * rng.uniform(1.3, 4.0, 20)
                          + 1j * 10.0 ** rng.uniform(-8.0, 0.0, 20)])
    z = np.concatenate([[0.797 + 1j], near, far])
    assert (np.abs(near) < 1.3).all() and (np.abs(far) >= 1.3).all()
    batch = potentials.lorentzian_weights(z)
    for i in range(len(z)):
        assert np.array_equal(potentials.lorentzian_weights(z[i:i + 1])[0], batch[i])
        assert np.array_equal(potentials.lorentzian_weights(z[i:i + 3])[0], batch[i])


def test_opposite_side_facade_pairs_are_the_a_delta_kernel():
    # every pair across the rod is the Lorentzian against the source
    # panel's interpolant, also over the middle panel, which straddles
    # x1 = 0, so that its columns split between A_R2 and A_R1R2.
    # Measured: 8.2e-14 of the largest entry (beta = 1 on this mesh)
    mesh = SYMMETRY_MESHES["odd_panels"]()
    delta = mesh.spec.delta
    dense = assemble_np(mesh).matrix
    x1 = mesh.points[:, 0]
    top, bottom = _facade_sides(mesh)
    got, want = [], []
    for rows, cols in ((top, bottom), (bottom, top)):
        panels, lo, hi = _facade_panels(mesh, cols)
        for r in rows:
            for s, nodes in enumerate(panels):
                got.append(dense[r, nodes])
                want.append(mp_panel_weights(delta, x1[r], lo[s], hi[s]))
    want = np.array(want)
    assert np.abs(np.array(got) - want).max() <= 2e-13 * np.abs(want).max()


@pytest.fixture
def lu_calls(monkeypatch):
    """Counts the LU factorizations of the density solve."""
    calls = []
    factor = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
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


def test_mesh_arrays_are_not_arguments():
    # a mesh is a value of its spec and counts: its nodes cannot be passed
    # in or edited, so they cannot break the mirror symmetry
    mesh = rod_mesh()
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(mesh, points=mesh.points.copy())
    with pytest.raises(ValueError, match="read-only"):
        mesh.points[5] += [0.0, 1e-4]


def test_mesh_counts_are_checked_on_replace():
    with pytest.raises(ValidationError, match="n_facade"):
        dataclasses.replace(rod_mesh(), n_facade=0)


def test_replaced_spec_rebuilds_the_mesh():
    # the sides follow the new delta; this mesh was refused when its nodes
    # were kept from the old spec
    mesh = rod_mesh()
    thick = dataclasses.replace(mesh.spec, delta=0.2)
    replaced = assemble_np(dataclasses.replace(mesh, spec=thick))
    built = assemble_np(build_mesh(thick, n_cap=32, n_facade=64))
    assert np.array_equal(replaced.blocks, built.blocks)


def test_np_kernel_on_disc_is_constant():
    # [DERIVED] on a circle of radius R the kernel equals 1/(4*pi*R)
    mesh = disc_mesh()
    npm = assemble_np(mesh)
    raw = npm.matrix - np.diag(npm.correction * mesh.weights)
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
    assert np.abs(npm.correction).max() < 1e-12


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


@pytest.mark.parametrize("delta", [0.01, 0.001])
def test_density_has_no_total_charge_at_any_contrast(delta):
    # on a background with a quadratic part the (+, +) block holds the
    # weights' eigenvalue lam - 1/2, about 1/sigma0: the rounding of
    # w^T b = 0 came out divided by it, a charge of 4.8e-11 of sum |w phi|
    # at sigma0 = 1e6 and 4.5e-2 at 1e15 (delta = 0.001), and a wrong far
    # field, under a 1e-15 residual
    mesh = build_mesh(RodSpec(L=2.0, delta=delta))
    npm = assemble_np(mesh)
    rhs = neumann_data(mesh, HarmonicBackground.polynomial((0.0, 0.3, 1.0, 0.5, 1.0)))
    for sigma0 in (1e-15, 0.01, 2.0, 100.0, 1e6, 1e12, 1e15):
        lam = lambda_of_sigma(sigma0)
        phi = solve_density(npm, lam, rhs)
        assert phi.factored_blocks == 4
        w_phi = mesh.weights * phi.values
        assert abs(w_phi.sum()) <= 1e-14 * np.abs(w_phi).sum(), sigma0
        sys_res = lam * phi.values - npm.apply(phi.values) - rhs.values
        assert np.linalg.norm(sys_res) <= 1e-10 * np.linalg.norm(rhs.values), sigma0


def test_solve_density_refuses_data_on_another_mesh():
    # the data were split by the orbits of the matrix's mesh, whatever mesh
    # they were on: a 192-node mesh's data on another 192-node mesh's
    # matrix gave a density 0.19 off, at residual 2.9e-16, with no error
    bg = HarmonicBackground.polynomial((0.0, 1.0, 0.5, 0.3, 0.2))
    first, second = (build_mesh(RodSpec(L=L, delta=delta), n_cap=32, n_facade=64)
                     for L, delta in ((2.0, 0.1), (1.0, 0.05)))
    assert len(first) == len(second) == 192
    with pytest.raises(ValidationError, match="^rhs is on another mesh than np_matrix$"):
        solve_density(assemble_np(first), 1.5, neumann_data(second, bg))


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
    vals, _, near = single_layer_field(phi, pts)
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
    vals, g, _ = single_layer_field(phi, far)
    assert abs(vals[0]) < 1e-2
    assert np.linalg.norm(g) < 1e-3


def test_single_layer_grad_finite_difference():
    mesh = rod_mesh()
    npm = assemble_np(mesh)
    rhs = neumann_data(mesh, HarmonicBackground.linear((0.5, 1.0)))
    phi = solve_density(npm, lam=1.5, rhs=rhs)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(10, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1.8]
    g = single_layer_field(phi, pts)[1]
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        up, dn = (single_layer_field(phi, x)[0] for x in (pts + e, pts - e))
        assert np.allclose(g[:, j], (up - dn) / (2 * eps), atol=1e-7)


def test_near_flags():
    mesh = rod_mesh()
    phi = DensityVector(values=np.ones(len(mesh)), mesh=mesh)
    pts = np.array([[0.0, 0.1001], [0.0, 3.0]])
    near = single_layer_field(phi, pts)[2]
    assert near[0] and not near[1]


def test_a_point_off_the_longer_of_two_panels_is_flagged():
    # above the step from a 0.064 doubling panel to a 0.1246 middle panel of
    # the default delta = 0.001 mesh, this point's nearest node is on the
    # short panel (0.52 of it away) while the long panel's nearest node is
    # 0.27 of that panel away, where its Gauss rule has degraded
    mesh = build_mesh(RodSpec(L=2.0, delta=0.001))
    phi = DensityVector(values=np.zeros(len(mesh)), mesh=mesh)
    near = single_layer_field(phi, np.array([[0.874, -0.034]]))[2]
    assert mesh.rule == "graded" and near[0]


def _field_case(m):
    """A solved density on a rotated, shifted rod and m points around it,
    every fourth one within a local spacing of the boundary."""
    mesh = SYMMETRY_MESHES["odd_panels"]()
    bg = HarmonicBackground.polynomial((0.1, 1.0, -0.5, 0.3, 0.2))
    phi = solve_density(assemble_np(mesh), 1.5, neumann_data(mesh, bg))
    rng = np.random.default_rng(m)
    pts = rng.uniform(-2.0, 2.0, size=(m, 2))
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
        vals, grads, near = single_layer_field(phi, pts)
        ref_vals, ref_near = dense_single_layer(mesh, phi, pts)
        ref_grads, _ = dense_single_layer_grad(mesh, phi, pts)
        _assert_close(vals, ref_vals)
        _assert_close(grads, ref_grads)
        assert np.array_equal(near, ref_near)
        assert near.any() or m == 1


def test_single_layer_field_single_point():
    mesh, phi, pts = _field_case(8)
    for x in pts[:2]:
        val, grad, near = single_layer_field(phi, x)
        ref_val, ref_near = dense_single_layer(mesh, phi, x)
        ref_grad, _ = dense_single_layer_grad(mesh, phi, x)
        assert val.shape == (1,) and grad.shape == (1, 2) and near.shape == (1,)
        _assert_close(val[0], ref_val)
        _assert_close(grad[0], ref_grad)
        assert near[0] == ref_near


def test_direct_values_do_not_depend_on_the_chunk():
    # the chunk's sum was a BLAS gemv, which sums the rows at its block
    # edges in another order: 1906 of these 2047 points got another S or
    # grad S in the last bits when evaluated alone
    n = len(SYMMETRY_MESHES["odd_panels"]())
    mesh, phi, pts = _field_case((potentials.FAR_MIN_PAIRS - 1) // n)
    assert len(pts) > 2 * potentials.FIELD_CHUNK_BYTES // (24 * n)
    vals, grads, near = single_layer_field(phi, pts)
    assert near.any()
    for i, x in enumerate(pts):
        val, grad, flag = single_layer_field(phi, x)
        assert np.array_equal(val, vals[i:i + 1]) and np.array_equal(grad, grads[i:i + 1])
        assert np.array_equal(flag, near[i:i + 1])
    subset = np.random.default_rng(5).permutation(len(pts))[:700]
    val, grad, flag = single_layer_field(phi, pts[subset])
    assert np.array_equal(val, vals[subset]) and np.array_equal(grad, grads[subset])
    assert np.array_equal(flag, near[subset])


QUADRATIC = HarmonicBackground.polynomial((0.1, 1.0, -0.5, 0.3, 0.2))

#: mesh, and the half width of the square grid about the rod centre in
#: units of the semi-major axis of the far ellipse |w| = FAR_RATIO R
FAR_CASES = {
    # a rotated, shifted rod: most of the grid lies outside the ellipse
    "rod": ("odd_panels", 2.5),
    "disc": ("disc", 2.5),
    # about half the grid lies inside the ellipse
    "straddling": ("odd_panels", 1.15),
}


def focal(spec):
    """a = max(L/2, 1e-3 delta), half the focal distance of the Joukowski map."""
    return max(spec.L / 2.0, 1e-3 * spec.delta)


def joukowski(mesh, pts):
    """The exterior Joukowski variable w of rod-frame points (m, 2):
    z = a (w + 1/w) / 2, |w| >= 1."""
    s = pts @ np.array([1.0, 1.0j]) / focal(mesh.spec)
    return s + np.sqrt(s - 1.0) * np.sqrt(s + 1.0)


def joukowski_points(mesh, w):
    """Inverse of :func:`joukowski`: the points (m, 2) at w."""
    zeta = focal(mesh.spec) * (w + 1.0 / w) / 2.0
    return np.column_stack([zeta.real, zeta.imag])


def _far_radius(mesh):
    """R = max |w_j| over the nodes: |w| >= FAR_RATIO R is far."""
    return np.abs(joukowski(mesh, mesh.points)).max()


def _far_mask(mesh, pts):
    return np.abs(joukowski(mesh, pts)) >= potentials.FAR_RATIO * _far_radius(mesh)


def _far_case(name, side):
    """A solved density and a side x side grid about the mesh, plus 16
    points within a local spacing of the boundary."""
    mesh_name, half = FAR_CASES[name]
    mesh = SYMMETRY_MESHES[mesh_name]()
    phi = solve_density(assemble_np(mesh), 1.5, neumann_data(mesh, QUADRATIC))
    r = potentials.FAR_RATIO * _far_radius(mesh)
    t = np.linspace(-1.0, 1.0, side) * half * focal(mesh.spec) * (r + 1.0 / r) / 2.0
    grid = np.stack(np.meshgrid(t, t), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(side)
    k = rng.integers(len(mesh), size=16)
    off = rng.uniform(-1.0, 1.0, size=(16, 1)) * mesh.weights[k, None]
    return mesh, phi, np.vstack([grid, mesh.points[k] + off * mesh.normals[k]])


@pytest.fixture
def expansions(monkeypatch):
    """Counts the points of each call of the far-field expansion."""
    calls = []
    real = potentials._multipole_field

    def spy(pw, w, *args):
        calls.append(len(w))
        return real(pw, w, *args)

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
    far = _far_mask(mesh, pts)
    vals, grads, near = single_layer_field(phi, pts)
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
    radius = _far_radius(mesh)
    # just outside the far ellipse, off both rod axes
    x = joukowski_points(mesh, np.array([2.01 * radius * np.exp(0.9j)]))[0]
    val, grad, near = single_layer_field(phi, x)
    assert expansions == [1]
    assert val.shape == (1,) and grad.shape == (1, 2) and near.shape == (1,)
    ref_val, ref_near = dense_single_layer(mesh, phi, x)
    ref_grad, _ = dense_single_layer_grad(mesh, phi, x)
    _assert_close(val[0], ref_val)
    _assert_close(grad[0], ref_grad)
    assert near[0] == ref_near and not near[0]


def test_below_the_pair_threshold_every_point_takes_the_direct_sum(expansions):
    mesh, phi, _ = _far_case("rod", 2)
    radius = _far_radius(mesh)
    m = -(-potentials.FAR_MIN_PAIRS // len(mesh))
    angle = np.linspace(0.0, 2.0 * np.pi, m)
    ring = joukowski_points(mesh, 3.0 * radius * np.exp(1j * angle))
    pw = phi.values * mesh.weights
    direct, direct_near = potentials._direct_field(mesh, pw, ring[1:])
    vals, grads, near = single_layer_field(phi, ring[1:])
    assert expansions == []
    assert np.array_equal(vals, direct[:, 2] / (4.0 * np.pi))
    assert np.array_equal(grads, direct[:, :2] / (2.0 * np.pi))
    assert np.array_equal(near, direct_near)
    # the threshold counts the far points only
    inner = joukowski_points(mesh, 1.5 * radius * np.exp(1j * angle[1:]))
    assert not _far_mask(mesh, inner).any()
    single_layer_field(phi, np.vstack([ring[1:], inner]))
    assert expansions == []
    # one point more reaches the threshold: every point is far
    single_layer_field(phi, ring)
    assert expansions == [m]


def test_expansion_is_refused_where_a_far_point_could_be_near(expansions, monkeypatch):
    # a point with |w| >= 2 R is at least the gap (a/2)(R - 1/(2R)) between
    # the confocal ellipses |w| = R and 2 R from every node, so the
    # expansion is taken only where that gap >= NEAR_FACTOR times the
    # longest panel: on this disc (gap 0.70, panels 2.20 long) below a
    # factor of 0.32, not above it.  At a factor of 3 points at
    # |w| = 2.01 R are flagged
    monkeypatch.setattr(potentials, "FAR_MIN_PAIRS", 0)
    mesh = build_mesh(RodSpec(L=0.0, delta=0.7), n_cap=8)
    phi = DensityVector(values=np.ones(len(mesh)), mesh=mesh)
    radius = _far_radius(mesh)
    pts = joukowski_points(mesh, 2.01 * radius * np.exp(1j * np.arange(64)))
    assert _far_mask(mesh, pts).all()
    gap = focal(mesh.spec) * (radius - 0.5 / radius) / 2.0
    bound = gap / mesh.panel_lengths.max()
    for factor in (bound * (1.0 - 1e-9), bound * (1.0 + 1e-9), 3.0):
        monkeypatch.setattr(potentials, "NEAR_FACTOR", factor)
        vals, grads, near = single_layer_field(phi, pts)
    assert expansions == [64]
    assert near.any() and np.array_equal(near, dense_near_flags(mesh, pts))


#: the meshes of the accuracy check: the ``fieldmap`` benchmark rod, a
#: rotated and shifted thin rod at sigma0 = 100, a disc and two short rods,
#: each with its background and grid half width
ACCURACY_CASES = {
    "fieldmap": (RodSpec(L=2.0, delta=0.01), HarmonicBackground.linear((1.0, 0.5)), 3.0),
    "thin": (RodSpec(L=2.0, delta=0.002, sigma0=100.0, angle=0.7, center=(0.4, -1.3)),
             QUADRATIC, 3.0),
    "disc": (RodSpec(L=0.0, delta=0.7), HarmonicBackground.linear((1.0, 0.5)), 3.0),
    "short": (RodSpec(L=0.2, delta=0.1), HarmonicBackground.linear((1.0, 0.5)), 1.0),
    "stubby": (RodSpec(L=1.0, delta=0.3, angle=-0.4), QUADRATIC, 2.0),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended long double")
@pytest.mark.parametrize("name", list(ACCURACY_CASES))
def test_expansion_matches_a_long_double_direct_sum(name, expansions, monkeypatch):
    monkeypatch.setattr(potentials, "FAR_MIN_PAIRS", 0)
    spec, bg, half = ACCURACY_CASES[name]
    mesh = build_mesh(spec, *default_counts(spec))
    phi = solve_density(assemble_np(mesh), lambda_of_sigma(spec.sigma0),
                        neumann_data(mesh, bg))
    t = np.linspace(-half, half, 61)
    pts = np.stack(np.meshgrid(t, t), axis=-1).reshape(-1, 2)
    vals, grads, near = single_layer_field(phi, pts)
    far = _far_mask(mesh, pts)
    assert expansions == [np.count_nonzero(far)] and far.mean() > 0.5
    assert np.array_equal(near, dense_near_flags(mesh, pts))
    d = pts[far, None, :].astype(np.longdouble) - mesh.points
    r2 = np.square(d).sum(axis=2)
    q = phi.values * mesh.weights
    ref_vals = np.log(r2) @ q / (4.0 * np.pi)
    ref_grads = np.einsum("mnk,n->mk", d / r2[..., None], q) / (2.0 * np.pi)
    assert np.abs(vals[far] - ref_vals).max() <= 1e-15 * np.abs(vals).max()
    assert np.abs(grads[far] - ref_grads).max() <= 1e-15 * np.abs(grads).max()


def test_a_disc_takes_the_expansion_outside_nearly_the_circle_of_twice_its_radius(expansions):
    # a = delta would make the far ellipse's semi-axes 2.52 delta and
    # 2.31 delta, and leave 76% of this grid far
    spec = RodSpec(L=0.0, delta=0.7)
    mesh = build_mesh(spec, *default_counts(spec))
    assert len(mesh) == 64
    phi = solve_density(assemble_np(mesh), lambda_of_sigma(spec.sigma0),
                        neumann_data(mesh, HarmonicBackground.linear((1.0, 0.5))))
    t = np.linspace(-3.0, 3.0, 101)
    pts = np.stack(np.meshgrid(t, t), axis=-1).reshape(-1, 2)
    single_layer_field(phi, pts)
    far = _far_mask(mesh, pts)
    assert expansions == [np.count_nonzero(far)] and far.mean() >= 0.83
    # the far region is nearly |z| >= FAR_RATIO delta: its nearest grid
    # point lies within a grid spacing (0.06) of that circle
    r = np.linalg.norm(pts[far], axis=1).min()
    assert potentials.FAR_RATIO * spec.delta <= r <= potentials.FAR_RATIO * spec.delta + 0.06


def test_evaluation_on_a_mesh_node_is_refused():
    mesh, phi, _ = _field_case(1)
    node = mesh.points[5]
    # plain floats, not numpy 2's np.float64(...) reprs
    x1, x2 = node.tolist()
    where = re.escape(f"({x1!r}, {x2!r})")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=where):
            single_layer_field(phi, np.array([[3.0, 3.0], node]))
        with pytest.raises(ValidationError, match=where):
            single_layer_field(phi, node)
