"""Forward transmission solves against analytic and structural oracles."""

import dataclasses
import importlib
import pkgutil
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import rodfield
from rodfield import asymptotics, geometry, potentials, solver
from rodfield import (AsymptoticModel, DensityVector, ForwardSolution, HarmonicBackground,
                      RodSpec, ValidationError, asymptotic_field, build_mesh, eval_field, f1_f2,
                      lambda_of_sigma, simulate_measurements, single_layer_field,
                      solve_forward, transmission_check)
from rodfield.asymptotics import f_sq_sum, f_sq_sum_cap_form
from rodfield.geometry import (GAUSS_NODES, GAUSS_WEIGHTS, PANEL_ORDER, default_counts,
                               rotation_matrix, signed_distance, to_local, to_world)
from rodfield.inverse import sensor_circle
from rodfield.potentials import assemble_np, neumann_data, solve_density
from rodfield.solver import (R_RANGE, disc_exterior_grad, disc_exterior_u, disc_interior_u,
                            perturbation)

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("bg", [HarmonicBackground.linear((1.0, 0.5)),
                                HarmonicBackground.polynomial((0.0, 1.0, 0.5, 1.0, 0.0))],
                         ids=["linear", "quadratic"])
def test_lambda_at_the_largest_contrast_is_one_half(bg):
    # 2 (sigma0 - 1) overflowed above about 9e307, so lam read 0.0: at
    # sigma0 = 1e308 the BEM gave u - H = 0.0052 at (3, 0) with exit 0,
    # against -0.181 at 1e300, and the quadratic solve was refused
    assert lambda_of_sigma(1e308) == lambda_of_sigma(1e300) == lambda_of_sigma(1e17) == 0.5
    pts = np.array([[3.0, 0.0], [0.5, 0.3], [-1.5, 0.05]])
    fields = [perturbation(RodSpec(L=2.0, delta=0.01, sigma0=s), bg, pts, "bem")[:2]
              for s in (1e308, 1e300, 1e17)]
    for s, gs in fields[1:]:
        assert np.array_equal(s, fields[0][0]) and np.array_equal(gs, fields[0][1])


def test_disc_exterior_oracle():
    # [DERIVED] analytic disc solution, also the sign fixture: the
    # perturbation opposes a.x outside a conductive disc
    a = np.array([1.0, 0.0])
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear(a), n_cap=64)
    pts = np.array([[3.0, 0.0], [0.0, 4.0], [-2.0, 2.0]])
    u, _, near = eval_field(sol, pts)
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
    u, g, _ = eval_field(sol, pts)
    assert np.allclose(u, disc_interior_u(a, 1.0, sigma0, pts), atol=1e-9)
    assert np.allclose(g, [0.0, 2.0 / (sigma0 + 1.0)], atol=1e-9)


def test_disc_exterior_grad_oracle():
    a = np.array([1.0, -2.0])
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear(a), n_cap=64)
    pts = np.array([[2.5, 1.0], [-3.0, -0.5]])
    g = eval_field(sol, pts)[1]
    assert np.allclose(g, disc_exterior_grad(a, 1.0, 2.0, pts), atol=1e-9)


def test_rod_field_mirror_symmetry():
    # axial background: u is even in x2
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=3.0),
                        HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=32, n_facade=64)
    pts = np.array([[0.5, 0.8], [1.7, 0.3], [-2.0, 1.1]])
    mirror = pts * np.array([1.0, -1.0])
    u1, u2 = (eval_field(sol, x)[0] for x in (pts, mirror))
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
        u = eval_field(sol, stencil)[0]
        lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
        assert abs(lap) < 1e-4


def test_far_field_approaches_background():
    bg = HarmonicBackground.linear((1.0, 0.5))
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=2.0), bg,
                        n_cap=32, n_facade=64)
    # dipole decay: the perturbation falls off like 1/r
    for r, tol in ((250.0, 2e-3), (2500.0, 2e-4)):
        far = np.array([[0.8 * r, 0.6 * r]])
        u = eval_field(sol, far)[0]
        assert abs(u[0] - bg.value(far)[0]) < tol


def test_transmission_check_disc():
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.0)), n_cap=512)
    rep = transmission_check(sol, idx=np.linspace(0, len(sol.mesh) - 1, 16).round().astype(int))
    assert rep["max_mismatch"] < 0.02
    assert len(rep["flux_out"]) == 16


def test_transmission_check_refuses_probes_that_leave_the_rod():
    # on the default mesh of a rod at delta = 0.01 a facade node's step of
    # 5 weights passes the thickness 2 delta, so its inner probe is outside;
    # a cap's nodes are close enough
    sol = solve_forward(RodSpec(L=2.0, delta=0.01), HarmonicBackground.linear((1.0, 0.5)))
    top = np.flatnonzero(sol.mesh.tag_mask("facade_top"))
    assert (5.0 * sol.mesh.weights[top] >= 0.02).all()
    with pytest.raises(ValueError, match=f"^node {top[3]}: "):
        transmission_check(sol, idx=top[3:5])
    cap = np.flatnonzero(sol.mesh.tag_mask("cap_right"))
    assert len(transmission_check(sol, idx=cap)["flux_in"]) == len(cap)


def test_solution_exposes_spec_and_lambda():
    spec = RodSpec(L=2.0, delta=0.1, sigma0=4.0)
    sol = solve_forward(spec, HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=16, n_facade=32)
    assert sol.spec == spec
    assert sol.lam == pytest.approx(lambda_of_sigma(4.0))
    # the density carries the mesh, the mesh the rod, the rod lam: a solution
    # stores only phi and the background, so no copy can disagree with them
    assert [f.name for f in dataclasses.fields(ForwardSolution)] == ["phi", "background"]
    assert sol.mesh is sol.phi.mesh
    assert sol.lam == lambda_of_sigma(sol.spec.sigma0)


def test_an_unknown_model_is_refused_naming_the_models():
    with pytest.raises(ValueError, match=re.escape(f"'fem', not one of {solver.MODELS}")):
        perturbation(RodSpec(L=2.0, delta=0.1), HarmonicBackground.linear((1.0, 0.0)),
                     [[0.0, 2.0]], "fem")


def test_near_flags_on_eval():
    sol = solve_forward(RodSpec(L=2.0, delta=0.1, sigma0=2.0),
                        HarmonicBackground.linear((1.0, 0.0)),
                        n_cap=32, n_facade=64)
    pts = np.array([[0.0, 0.101], [0.0, 2.0]])
    near = eval_field(sol, pts)[2]
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
    s_bem, _, _ = single_layer_field(sol.phi, probe)
    fine = build_mesh(spec, n_cap=128, n_facade=960)
    ref = plain_nystrom_density(fine, lambda_of_sigma(spec.sigma0), bg)
    s_ref, _, _ = single_layer_field(ref, probe)
    assert np.abs(s_bem - s_ref).max() <= 5e-6 * np.abs(s_ref).max()


# The sub-rule of panel_resolved_single_layer on a panel's (-1, 1): 16
# sub-panels of 8 Gauss points, and the Lagrange basis of the panel's
# Gauss nodes there
_SUB_T = ((np.arange(16)[:, None] + 0.5) / 8.0 - 1.0 + GAUSS_NODES / 16.0).ravel()
_SUB_W = np.tile(GAUSS_WEIGHTS / 16.0, 16)
_SUB_BASIS = np.stack([np.prod([(_SUB_T - GAUSS_NODES[k]) / (GAUSS_NODES[j] - GAUSS_NODES[k])
                                for k in range(PANEL_ORDER) if k != j], axis=0)
                       for j in range(PANEL_ORDER)], axis=1)


def panel_resolved_single_layer(phi, x, chunk=64):
    """S[phi] at rod-frame points x (m, 2), with near panels resolved.  At
    each point the node sum over every panel with a node within 2 of its
    lengths is replaced by that panel's degree-7 interpolant of phi,
    integrated on 16 sub-panels of 8 Gauss points whose nodes lie on the
    exact segment: the straight side, or the cap's arc about its centre.
    The rest is the native sum of single_layer_field.  The points go
    ``chunk`` at a time, so the scratch is bounded."""
    x, mesh = np.asarray(x, dtype=float), phi.mesh
    values = single_layer_field(phi, x)[0]
    nodes = mesh.points.reshape(-1, PANEL_ORDER, 2)
    h = mesh.panel_lengths[::PANEL_ORDER]
    ends = nodes[:, 0] + nodes[:, -1]
    # sub-nodes (panels, 16 * 8, 2): on a side, the mid point plus the
    # tangent; on a cap, the arc of radius delta about (+-L/2, 0)
    centre = np.column_stack([np.sign(ends[:, 0]) * mesh.spec.L / 2.0, np.zeros(len(h))])
    mid = np.arctan2(*(ends - 2.0 * centre).T[::-1])
    arc = mid[:, None] + h[:, None] / (2.0 * mesh.spec.delta) * _SUB_T
    on_arc = centre[:, None] + mesh.spec.delta * np.stack([np.cos(arc), np.sin(arc)], axis=-1)
    step = np.sign(nodes[:, -1, 0] - nodes[:, 0, 0])[:, None] * h[:, None] / 2.0 * _SUB_T
    on_side = np.stack([ends[:, None, 0] / 2.0 + step, np.repeat(nodes[:, :1, 1], len(_SUB_T), 1)],
                       axis=-1)
    cap = mesh.curvatures[::PANEL_ORDER] > 0.0
    sub = np.where(cap[:, None, None], on_arc, on_side)
    q_sub = (phi.values.reshape(-1, PANEL_ORDER) @ _SUB_BASIS.T) * h[:, None] / 2.0 * _SUB_W
    q_node = (phi.values * mesh.weights).reshape(-1, PANEL_ORDER)
    for s in range(0, len(x), chunk):
        p = x[s:s + chunk]
        r2 = np.square(p[:, None, None, :] - nodes).sum(axis=-1)   # (chunk, panels, 8)
        i, k = np.nonzero((r2 < np.square(2.0 * h)[:, None]).any(axis=-1))
        resolved = np.einsum("ps,ps->p", q_sub[k], np.log(
            np.square(p[i, None, :] - sub[k]).sum(axis=-1)))
        native = np.einsum("pj,pj->p", q_node[k], np.log(r2[i, k]))
        np.add.at(values, s + i, (resolved - native) / (4.0 * np.pi))
    return values


def test_panel_resolved_single_layer_is_exact_near_a_disc():
    # 0.02 off a disc of 64 nodes (eight panels) the node rule is off by
    # 1.4e-3 (4.2e-3 at sigma0 = 100).  Measured: the resolved sum is within
    # 4.2e-13 of the closed form (1.2e-12)
    a, sigma0 = np.array([1.0, 0.5]), 2.0
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=sigma0), HarmonicBackground.linear(a),
                        n_cap=64)
    t = np.linspace(0.0, 2.0 * np.pi, 97)[:-1]
    pts = 1.02 * np.column_stack([np.cos(t), np.sin(t)])
    want = disc_exterior_u(a, 1.0, sigma0, pts) - pts @ a
    native = single_layer_field(sol.phi, pts)[0]
    got = panel_resolved_single_layer(sol.phi, pts)
    assert np.abs(native - want).max() > 1e-3
    assert np.abs(got - want).max() <= 1.5e-12


THIN_ROD = dict(L=2.0, center=(0.1, -0.2), angle=0.3)
THIN_BACKGROUNDS = (HarmonicBackground.linear((1.0, 0.5)),
                    HarmonicBackground.polynomial((0.3, 1.0, 0.5, 1.0, -0.7)))


def _native_single_layer(phi, x):
    return single_layer_field(phi, x)[0]


def _perturbations(mesh, sigma0, pts, backgrounds=THIN_BACKGROUNDS,
                   field=_native_single_layer):
    """The perturbation at world points pts of each of the backgrounds on
    ``mesh``, placed as its spec, by ``field(phi, rod-frame points)``:
    the native node sum, or panel_resolved_single_layer for a reference."""
    spec, npm = mesh.spec, assemble_np(mesh)
    return [field(solve_density(
        npm, lambda_of_sigma(sigma0), neumann_data(mesh, bg.in_frame(spec))),
        to_local(spec, pts)) for bg in backgrounds]


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
@pytest.mark.parametrize("delta", [0.002, 0.001])
def test_default_mesh_of_a_thin_rod_is_graded(delta, sigma0):
    # against the uniform mesh of 2x the cap and 3x the facade counts, on
    # 64 probes at r = 3: the graded default (n = 768, 800) is off by at
    # most 6.9e-8 of the perturbation (1.16e-7 at n = 960, 992 under the
    # first graded rule), the uniform default it replaced
    # (n = 1,072, 2,064) by up to 8.4e-7
    spec = RodSpec(delta=delta, sigma0=sigma0, **THIN_ROD)
    mesh = build_mesh(spec)
    assert mesh.rule == "graded" and len(mesh) == {0.002: 768, 0.001: 800}[delta]
    probe = sensor_circle(spec.center, 3.0, 64)
    dc, df = default_counts(spec)
    refs = _perturbations(build_mesh(spec, 2 * dc, 3 * df), sigma0, probe)
    for s, ref in zip(_perturbations(mesh, sigma0, probe), refs):
        assert np.abs(s - ref).max() <= 2e-7 * np.abs(ref).max()


def _junction_probes(spec, per_junction=4000):
    """World points delta to 4 delta off the rod and within 20 delta of one
    of its four cap junctions, drawn uniformly from the discs around them."""
    rng = np.random.default_rng(11)
    r = 20.0 * spec.delta * np.sqrt(rng.uniform(size=per_junction))
    t = rng.uniform(0.0, 2.0 * np.pi, per_junction)
    disc = np.column_stack([r * np.cos(t), r * np.sin(t)])
    pts = to_world(spec, np.concatenate([disc + [sx * spec.L / 2.0, sy * spec.delta]
                                         for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]))
    dist = signed_distance(spec, pts)
    return pts[(dist >= spec.delta) & (dist <= 4.0 * spec.delta)]


@pytest.mark.parametrize("sigma0", [0.01, 100.0])
@pytest.mark.parametrize("delta", [1e-3, 1e-5])
def test_graded_rule_has_fewer_nodes_than_the_first_and_its_accuracy(delta, sigma0,
                                                                      refined_graded_mesh):
    # the graded rule of delta/32 junction panels and L/16 middle panels
    # against the first graded rule, delta/16 and L/32, rebuilt here.  Over
    # L = 2, delta from 2e-3 to 1e-5 and sigma0 in {0.01, 2, 100}, off a
    # three times refined first rule, the first rule's worst error was
    # 3.4e-7 on 64 probes at r = 3 and 2.5e-7 on the unflagged probes near
    # a junction, both at delta = 1e-4, sigma0 = 100; the rule here reads
    # 2.2e-7 and 2.3e-7.  Against its twice refined self, evaluated through
    # the reference density's panel interpolants, measured: at most 7.5e-8
    # far and 7.7e-8 near a junction
    spec = RodSpec(delta=delta, sigma0=sigma0, **THIN_ROD)
    mesh = build_mesh(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "GRADED_FIRST", 1.0 / 16.0)
        patch.setattr(geometry, "GRADED_LONGEST", 1.0 / 32.0)
        first = build_mesh(spec)
    assert mesh.rule == first.rule == "graded" and len(mesh) <= 0.85 * len(first)
    far, junction = sensor_circle(spec.center, 3.0, 64), _junction_probes(spec)
    pts = np.vstack([far, junction])
    near = single_layer_field(DensityVector(np.zeros(len(mesh)), mesh),
                              to_local(spec, pts))[2]
    assert not near[:64].any() and 0 < np.count_nonzero(near) < len(junction)
    refs = _perturbations(refined_graded_mesh(spec, 2), sigma0, pts,
                          field=panel_resolved_single_layer)
    for s, ref in zip(_perturbations(mesh, sigma0, pts), refs):
        for probes in (slice(None, 64), slice(64, None)):
            err, scale = np.abs(s - ref)[probes], np.abs(ref[probes]).max()
            assert err[~near[probes]].max() <= 2.5e-7 * scale


@pytest.mark.parametrize("delta", [0.1, 0.025, 0.00625])
def test_unflagged_points_by_a_junction_of_a_uniform_mesh_are_accurate(delta,
                                                                        refined_graded_mesh):
    # D17: by a junction, a point's nearest node can sit on a short cap
    # panel while a long facade panel's rule has already degraded.  Flagged
    # within half of its nearest node's panel, such points were left
    # unflagged, off by up to 1.2e-4 of the perturbation (delta = 0.025).
    # Flagged within half of any node's panel, none is left unflagged at
    # delta = 0.025 and 0.00625, and at delta = 0.1 the unflagged ones are
    # within 2.86e-6 of the reference through its panel interpolants
    for sigma0 in (0.01, 2.0, 100.0):
        spec = RodSpec(delta=delta, sigma0=sigma0, **THIN_ROD)
        mesh, pts = build_mesh(spec), _junction_probes(spec)
        near = single_layer_field(DensityVector(np.zeros(len(mesh)), mesh),
                                  to_local(spec, pts))[2]
        assert mesh.rule == "uniform"
        refs = _perturbations(refined_graded_mesh(spec, 2), sigma0, pts,
                              field=panel_resolved_single_layer)
        for s, ref in zip(_perturbations(mesh, sigma0, pts), refs):
            assert np.abs(s - ref)[~near].max(initial=0.0) <= 5e-6 * np.abs(ref).max()


@pytest.mark.parametrize("sigma0", [2.0, 100.0, 0.01])
def test_unflagged_points_near_a_thin_rod_are_accurate(sigma0, refined_graded_mesh):
    # points within 0.1 of the rod, a quarter of them within 6 delta of a
    # cap junction.  The near band was two node weights, 0.1 to 0.36 of a
    # panel: on the graded mesh it left points unflagged at up to 6.5e-4 of
    # the perturbation off a twice refined mesh (sigma0 = 0.01; 3.9e-5 at
    # sigma0 = 2).  Half of any node's panel leaves them within 5.5e-7
    # (1.8e-8) of the reference through its panel interpolants.  By its
    # node rule the reference took its largest value, 0.0352, 4e-5 off the
    # rod, inside its own near band: 2.1 times the true 0.0169, so the
    # error read 2.6e-7.  Half the nearest node's panel left 9.0e-7 (7.8e-8)
    # against that reference, above the step from an L/32 to an L/16 facade
    # panel, where the nearest node is on the shorter one
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
    s, _, near = single_layer_field(sol.phi, to_local(spec, pts))
    ref, = _perturbations(refined_graded_mesh(spec, 2), sigma0, pts, [bg],
                          field=panel_resolved_single_layer)
    assert 0 < np.count_nonzero(near) < len(pts) // 2
    assert np.abs(s - ref)[~near].max() <= 2e-5 * np.abs(ref).max()


@pytest.mark.parametrize("sigma0", [2.0, 100.0])
@pytest.mark.parametrize("delta", [1e-3, 1e-5])
def test_a_rod_far_from_the_origin_is_the_rod_at_the_origin(delta, sigma0):
    # D18: the same rod, points and field, all placed at (1e5, 3e5) and
    # turned by 1.0.  While the mesh was placed and mapped back, the
    # round trip cost digits in proportion to |center| / delta: the
    # perturbation was off by 2.8e-9 (delta = 1e-3, sigma0 = 2) to 5.2e-6
    # (1e-5, 100) of its size.  Solved in the rod frame, with only the
    # points mapped into it, it is off by at most 5.2e-11
    a, turn = np.array([1.0, 0.5]), rotation_matrix(1.0)
    origin = RodSpec(L=2.0, delta=delta, sigma0=sigma0)
    placed = RodSpec(L=2.0, delta=delta, sigma0=sigma0, center=(1e5, 3e5), angle=1.0)
    pts = sensor_circle((0.0, 0.0), 3.0, 64)
    s, gs, _, _ = perturbation(origin, HarmonicBackground.linear(a), pts)
    s_placed, gs_placed, _, _ = perturbation(placed, HarmonicBackground.linear(turn @ a),
                                             to_world(placed, pts))
    assert np.abs(s_placed - s).max() <= 1e-9 * np.abs(s).max()
    assert np.abs(gs_placed @ turn - gs).max() <= 1e-9 * np.abs(gs).max()


def test_placed_rod_on_a_quadratic_background_is_the_rod_at_the_origin():
    # D9's placement.  The rod at the origin sees the background in the
    # rod frame, H'(x) = H(c + R x): for H = x1^2 - x2^2 its coefficients
    # are H(c), R^T grad H(c), cos 2 theta and -2 sin 2 theta.  The placed
    # rod forms the same Neumann data from grad H, and its transmission
    # check probes the same rod-frame points
    center, angle = np.array([1.0, 0.5]), 0.3
    turn = rotation_matrix(angle)
    bg = HarmonicBackground.polynomial((0.0, 0.0, 0.0, 1.0, 0.0))
    c1, c2 = turn.T @ [2.0 * center[0], -2.0 * center[1]]
    bg_origin = HarmonicBackground.polynomial(
        (center[0] ** 2 - center[1] ** 2, c1, c2, np.cos(2 * angle), -2.0 * np.sin(2 * angle)))
    origin = RodSpec(L=2.0, delta=0.01, sigma0=3.0)
    placed = RodSpec(L=2.0, delta=0.01, sigma0=3.0, center=tuple(center), angle=angle)
    pts = sensor_circle((0.0, 0.0), 3.0, 64)
    s, _, _, sol = perturbation(origin, bg_origin, pts)
    s_placed, _, _, sol_placed = perturbation(placed, bg, to_world(placed, pts))
    assert np.abs(s_placed - s).max() <= 1e-12 * np.abs(s).max()
    # the cap nodes: every facade node's inner probe leaves this rod
    caps = np.flatnonzero(sol.mesh.tag_mask("cap_left") | sol.mesh.tag_mask("cap_right"))
    rep, rep_placed = (transmission_check(x, idx=caps[::4]) for x in (sol, sol_placed))
    for key in ("flux_out", "flux_in"):
        assert np.abs(rep_placed[key] - rep[key]).max() <= 1e-12 * np.abs(rep[key]).max()
    assert abs(rep_placed["max_mismatch"] - rep["max_mismatch"]) <= 1e-12


@pytest.mark.parametrize("shape", [(2.0, 1.0), (2.0, 0.01), (2.0, 0.001), (0.0, 1.0)],
                         ids=["L2-delta1", "L2-delta0.01", "L2-delta0.001-graded", "disc"])
def test_rods_at_the_ends_of_the_distance_range_solve(shape):
    # just inside R_RANGE: the closest nodes 1.01 times its lower end apart,
    # or the diameter just under its upper end.  The NP system and the
    # Neumann data of H = a.x do not depend on the rod's scale, so neither
    # does the density, up to rounding: 1.5e-12 at scale 7 or 1e100 on the
    # graded mesh.  At the top a long panel's band reach overflows
    L, delta = shape
    bg = HarmonicBackground.linear((1.0, 0.5))
    ref = solve_forward(RodSpec(L=L, delta=delta), bg)
    pts = ref.mesh.points
    closest = np.hypot(*np.diff(pts, axis=0, append=pts[:1]).T).min()
    for scale in (1.01 * R_RANGE[0] / closest, (1.0 - 1e-9) * R_RANGE[1] / (L + 2.0 * delta)):
        phi = solve_forward(RodSpec(L=L * scale, delta=delta * scale), bg).phi.values
        assert np.abs(phi - ref.phi.values).max() <= 1e-11 * np.abs(ref.phi.values).max()


#: one world point off a placed rod on a linear background
ONE_POINT = np.array([3.0, 0.0])

#: every field evaluator and localisation function on points x, on the rod, background,
#: BEM solution and model of c (the wrappers around them are in PERFBENCH_WRAPPERS)
ONE_POINT_CALLS = {
    "perturbation-bem": lambda c, x: perturbation(c.rod, c.bg, x, "bem")[:3],
    "perturbation-asymptotic": lambda c, x: perturbation(c.rod, c.bg, x, "asymptotic")[:3],
    "simulate_measurements": lambda c, x: dataclasses.astuple(
        simulate_measurements(c.rod, c.bg, x))[:2],
    "eval_field": lambda c, x: eval_field(c.sol, x),
    "single_layer_field": lambda c, x: single_layer_field(c.sol.phi, x),
    "signed_distance": lambda c, x: signed_distance(c.rod, x),
    "asymptotic_field": lambda c, x: asymptotic_field(c.model, x),
    "f1_f2": lambda c, x: f1_f2(x, c.rod.L),
    "f_sq_sum": lambda c, x: f_sq_sum(x, c.rod.L),
    "f_sq_sum_cap_form": lambda c, x: f_sq_sum_cap_form(x, c.rod.L),
}


@pytest.fixture(scope="module")
def one_point_case():
    rod = RodSpec(L=2.0, delta=0.05, center=(0.3, -0.2), angle=0.4, sigma0=2.0)
    bg = HarmonicBackground.linear((1.0, 1.0))
    return SimpleNamespace(rod=rod, bg=bg, sol=solve_forward(rod, bg),
                           model=AsymptoticModel.from_spec(rod, bg))


@pytest.mark.parametrize("name", ONE_POINT_CALLS)
def test_one_point_is_a_set_of_one(name, one_point_case):
    # a point set is (m, 2), with (m,) values, (m, 2) gradients and (m,) flags
    # back; a point given as (2,) is a set of one, the same arrays bit for bit,
    # so the BEM and the closed form return the same shapes
    one, many = (ONE_POINT_CALLS[name](one_point_case, x) for x in (ONE_POINT, ONE_POINT[None]))
    one, many = (r if isinstance(r, tuple) else (r,) for r in (one, many))
    assert len(one) == len(many)
    for got, ref in zip(one, many):
        assert isinstance(got, np.ndarray) and got.shape[:1] == (1,)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


#: the seven wrappers that perfbench's tracing.py and gen_refs.py name, each with the
#: slice of its evaluator that it returns, on points x and the BEM solution and model
#: of c; no other test calls them, and gen_refs.py passes asym_u_general an n_quad
PERFBENCH_WRAPPERS = {
    "eval_u": (lambda c, x: solver.eval_u(c.sol, x),
               lambda c, x: eval_field(c.sol, x)[::2]),
    "eval_grad_u": (lambda c, x: solver.eval_grad_u(c.sol, x),
                    lambda c, x: eval_field(c.sol, x)[1:]),
    "single_layer": (lambda c, x: potentials.single_layer(c.sol.mesh, c.sol.phi, x),
                     lambda c, x: single_layer_field(c.sol.phi, x)[::2]),
    "single_layer_grad": (lambda c, x: potentials.single_layer_grad(c.sol.mesh, c.sol.phi, x),
                          lambda c, x: single_layer_field(c.sol.phi, x)[1:]),
    "asym_u_linear": (lambda c, x: asymptotics.asym_u_linear(c.model, x),
                      lambda c, x: asymptotic_field(c.model, x)[0]),
    "asym_grad_linear": (lambda c, x: asymptotics.asym_grad_linear(c.model, x),
                         lambda c, x: asymptotic_field(c.model, x)[1]),
    "asym_u_general": (lambda c, x: asymptotics.asym_u_general(c.model, x, n_quad=7),
                       lambda c, x: asymptotic_field(c.model, x)[0]),
}


@pytest.fixture(scope="module")
def wrapper_cases():
    rod = RodSpec(L=2.0, delta=0.05, center=(0.3, -0.2), angle=0.4, sigma0=2.0)
    bgs = (HarmonicBackground.linear((1.0, 1.0)),
           HarmonicBackground.polynomial((0.1, 1.0, -0.5, 0.3, 0.2)))
    return [SimpleNamespace(sol=solve_forward(rod, bg), model=AsymptoticModel.from_spec(rod, bg))
            for bg in bgs]


@pytest.mark.parametrize("name", PERFBENCH_WRAPPERS)
def test_perfbench_wrapper_is_a_slice_of_its_evaluator(name, wrapper_cases):
    # each wrapper returns its evaluator's slice bit for bit, on a point set and
    # on one (2,) point, on a linear and a degree-2 background; the BEM's refuse
    # a point on a mesh node as their evaluator does.  The package does not export it
    assert not hasattr(rodfield, name)
    call, evaluator = PERFBENCH_WRAPPERS[name]
    pts = np.array([[3.0, 0.0], [0.5, 0.9], [-2.0, -1.5], [0.3, 0.2]])
    for c in wrapper_cases:
        for x in (pts, pts[0]):
            got, ref = call(c, x), evaluator(c, x)
            got, ref = (r if isinstance(r, tuple) else (r,) for r in (got, ref))
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert isinstance(g, np.ndarray) and g.shape[:1] == (len(np.atleast_2d(x)),)
                assert g.dtype == r.dtype and g.shape == r.shape
                assert g.tobytes() == r.tobytes()
    if name.startswith("single_layer"):
        node = wrapper_cases[0].sol.mesh.points[5]
        # plain floats, not numpy 2's np.float64(...) reprs
        x1, x2 = node.tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (np.array([[3.0, 3.0], node]), node):
                with pytest.raises(ValidationError, match=re.escape(f"({x1!r}, {x2!r})")):
                    call(wrapper_cases[0], x)


def test_readme_library_example_runs():
    block = README.read_text().split("## Library\n")[1].split("```python\n")[1].split("```")[0]
    scope = {}
    exec(block, scope)
    assert [np.shape(scope[k]) for k in ("u", "grad", "near")] == [(1,), (1, 2), (1,)]
    assert [np.shape(scope[k]) for k in ("u_asym", "grad_asym")] == [(1,), (1, 2)]
    assert scope["fit"].converged


def test_readme_library_names_resolve_as_written():
    # perturbation, signed_distance, f_sq_sum and f_sq_sum_cap_form were
    # listed bare beside the exported names, and `from rodfield import`
    # refused each of them.  A call, or the bare name of a function or class
    # of rodfield's, resolves from rodfield; module.name from that module
    prose = README.read_text().split("## Library\n")[1].split("```python\n")[0]
    modules = {m.name: importlib.import_module(f"rodfield.{m.name}")
               for m in pkgutil.iter_modules(rodfield.__path__)}
    defined = {name for mod in modules.values() for name, v in vars(mod).items()
               if callable(v) and getattr(v, "__module__", "").startswith("rodfield")}
    checked, missing = 0, []
    for name, call in re.findall(r"`([A-Za-z_][\w.]*)(\(?)[^`]*`", prose):
        head, _, attr = name.rpartition(".")
        if head in modules:
            found = hasattr(modules[head], attr)
        elif not head and (call or name in defined):
            found = hasattr(rodfield, name)
        else:
            continue
        checked += 1
        if not found:
            missing.append(name)
    assert checked > 20 and not missing
