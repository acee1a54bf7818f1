"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a one-line PASS summary with the measured quantity so
the suite output doubles as a report.
"""

import time

import numpy as np
import pytest

from rodfield import (AsymptoticModel, HarmonicBackground, RodSpec,
                      asym_u_linear, a_delta_apply, assemble_np, build_mesh,
                      eval_grad_u, eval_u, fit_rod, lambda_of_sigma,
                      neumann_data, sensor_circle, simulate_measurements,
                      solve_density, solve_forward)
from rodfield.asymptotics import f_sq_sum, f_sq_sum_cap_form
from rodfield.geometry import signed_distance
from rodfield.inverse import distinguishability_gap, endpoint_error
from rodfield.solver import disc_exterior_u
from rodfield.validate import run_validation, _suite_meshes


def _report(name, **kv):
    body = "  ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in kv.items())
    print(f"\n[PASS] {name}: {body}")


def test_criterion_1_disc_oracle():
    t0 = time.perf_counter()
    a = np.array([1.0, 0.5])
    spec = RodSpec(L=0.0, delta=1.0, sigma0=2.0)
    sol = solve_forward(spec, HarmonicBackground.linear(a), n_cap=128)
    assert len(sol.mesh) >= 256

    theta = 2.0 * np.pi * np.arange(64) / 64
    pts = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u_num, _ = eval_u(sol, pts)
    u_ref = disc_exterior_u(a, 1.0, 2.0, pts)
    pert_num = u_num - pts @ a
    pert_ref = u_ref - pts @ a
    rel = np.abs(pert_num - pert_ref).max() / np.abs(pert_ref).max()
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-3
    assert elapsed <= 5.0
    _report("criterion 1 disc oracle", rel_error=float(rel), seconds=elapsed)


def test_criterion_2_asymptotic_convergence():
    t0 = time.perf_counter()
    L, sigma0 = 2.0, 2.0
    a = (1.0, 0.0)
    bg = HarmonicBackground.linear(a)
    lam = lambda_of_sigma(sigma0)
    # probe circle of radius 3, offset above the rod axis (on the axis
    # the leading error changes sign and masks the monotone decay)
    probe = sensor_circle((0.0, 1.0), 3.0, 64)

    errs = {}
    for delta in (0.1, 0.05, 0.025):
        spec = RodSpec(L=L, delta=delta, sigma0=sigma0)
        n_facade = 8 * int(np.ceil(2.5 * L / delta / 8))
        sol = solve_forward(spec, bg, n_cap=64, n_facade=n_facade)
        u_bem, _ = eval_u(sol, probe)
        model = AsymptoticModel(L=L, delta=delta, lam=lam, background=bg)
        u_asym = asym_u_linear(model, probe)
        errs[delta] = float(np.abs(u_bem - u_asym).max())

    ratios = [errs[d] / d for d in (0.1, 0.05, 0.025)]
    elapsed = time.perf_counter() - t0
    assert ratios[0] > ratios[1] > ratios[2]
    assert errs[0.025] / errs[0.1] <= 0.35
    assert elapsed <= 60.0
    _report("criterion 2 asymptotic convergence",
            e_over_delta=[f"{r:.3e}" for r in ratios],
            decay=errs[0.025] / errs[0.1], seconds=elapsed)


def test_criterion_3_cap_localization():
    L, sigma0 = 10.0, 2.0
    delta = 5.0 * np.tan(np.pi / 36.0)
    spec = RodSpec(L=L, delta=delta, sigma0=sigma0)
    caps = spec.cap_centers_world()

    xs = np.linspace(-7.5, 7.5, 301)
    ys = np.linspace(-2.2, 2.2, 89)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    exterior = signed_distance(spec, pts) > 0.08

    for a in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        sol = solve_forward(spec, HarmonicBackground.linear(a),
                            n_cap=64, n_facade=64)
        g, _ = eval_grad_u(sol, pts[exterior])
        dev = np.linalg.norm(g - np.asarray(a), axis=1)
        x_max = pts[exterior][np.argmax(dev)]
        cap_dist = min(np.linalg.norm(x_max - c) for c in caps)

        band = exterior & (np.abs(pts[:, 0]) <= L / 4.0)
        band &= (np.abs(pts[:, 1]) >= delta) & (np.abs(pts[:, 1]) <= 3 * delta)
        gb, _ = eval_grad_u(sol, pts[band])
        band_max = np.linalg.norm(gb - np.asarray(a), axis=1).max()

        assert cap_dist <= 2.0 * delta
        assert dev.max() > 5.0 * band_max
        _report(f"criterion 3 localization a={a}", cap_dist=float(cap_dist),
                two_delta=2.0 * delta, peak_over_band=float(dev.max() / band_max))


def test_criterion_4_operator_identities():
    worst_col, worst_eig = 0.0, 0.0
    for mesh in _suite_meshes():
        npm = assemble_np(mesh)
        worst_col = max(worst_col,
                        float(np.abs(npm.raw_weighted_column_sums() - 0.5).max()))
        ev = npm.eigenvalues()
        assert np.abs(ev.imag).max() <= 1e-8
        worst_eig = max(worst_eig, float(np.maximum(
            ev.real - 0.5, -0.5 - ev.real).max()))
    assert worst_col <= 1e-3
    assert worst_eig <= 1e-3

    worst_total = 0.0
    backgrounds = [HarmonicBackground.linear((1.0, 0.5)),
                   HarmonicBackground.polynomial((0.0, 1.0, 0.0, 0.3, -0.2))]
    for mesh in _suite_meshes():
        npm = assemble_np(mesh)
        for sigma0 in (2.0, 5.0):
            for bg in backgrounds:
                phi = solve_density(npm, lambda_of_sigma(sigma0),
                                    neumann_data(mesh, bg))
                scale = float(np.dot(mesh.weights, np.abs(phi.values)))
                worst_total = max(worst_total,
                                  abs(phi.weighted_total()) / scale)
    assert worst_total <= 1e-8
    _report("criterion 4 operator identities", colsum_dev=worst_col,
            eig_overshoot=worst_eig, rel_weighted_total=worst_total)


def test_criterion_5_axis_averaging_moments():
    L = 2.0
    worst = 0.0
    for n in (0, 1, 2):
        for x1 in (0.0, 0.5, -0.5):
            exact = 0.5 * x1 ** n
            e3 = abs(a_delta_apply(lambda y: y ** n, 1e-3, L, x1) - exact)
            e4 = abs(a_delta_apply(lambda y: y ** n, 1e-4, L, x1) - exact)
            assert e3 <= 0.05
            assert e4 < e3 or e4 <= 1e-10
            worst = max(worst, e3)
    _report("criterion 5 averaging moments", worst_error=worst)


def test_criterion_6_localization_identity():
    L = 2.0
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(400, 2))
    caps = np.array([[-L / 2, 0.0], [L / 2, 0.0]])
    far = np.min(np.linalg.norm(pts[:, None, :] - caps[None], axis=2), axis=1) > 0.05
    pts = pts[far][:100]
    assert len(pts) == 100
    lhs = f_sq_sum(pts, L)
    rhs = f_sq_sum_cap_form(pts, L)
    dev = float(np.abs(lhs - rhs).max() / np.abs(rhs).max())
    assert dev <= 1e-12

    delta = 0.01
    val = delta ** 2 * f_sq_sum(np.array([L / 2 + delta, 0.0]), L)[0]
    assert 0.9 <= val <= 1.0
    _report("criterion 6 localization identity", identity_dev=dev,
            scaled_cap_value=float(val))


def test_criterion_7_density_structure():
    L, delta, sigma0 = 2.0, 0.02, 2.0
    spec = RodSpec(L=L, delta=delta, sigma0=sigma0)

    # transverse field: odd density across the rod axis
    sol = solve_forward(spec, HarmonicBackground.linear((0.0, 1.0)),
                        n_cap=64, n_facade=256)
    mesh, phi = sol.mesh, sol.phi.values
    top = np.flatnonzero(mesh.tag_mask("facade_top"))
    bot = np.flatnonzero(mesh.tag_mask("facade_bottom"))
    top = top[np.argsort(mesh.points[top, 0])]
    bot = bot[np.argsort(mesh.points[bot, 0])]
    inner = np.abs(mesh.points[top, 0]) <= L / 2 - 5 * delta
    assert np.allclose(mesh.points[top, 0], mesh.points[bot, 0], atol=1e-12)
    anti = np.abs(phi[top][inner] + phi[bot][inner]).max() / np.abs(phi).max()
    assert anti <= 0.05

    # axial field: total charge carried by the cap region
    a1 = 1.0
    sol = solve_forward(spec, HarmonicBackground.linear((a1, 0.0)),
                        n_cap=64, n_facade=256)
    mesh, phi = sol.mesh, sol.phi.values
    lam = sol.lam
    # the cap charge lives on the cap arc plus the O(delta) facade strip
    # hugging it, so the strip is included in the sum
    region = mesh.tag_mask("cap_left")
    region |= (mesh.tag_mask("facade_top") | mesh.tag_mask("facade_bottom")) \
        & (mesh.points[:, 0] <= -L / 2 + delta)
    total = float(np.dot(mesh.weights[region], phi[region]))
    expected = -2.0 * delta * a1 / (lam - 0.5)
    rel = abs(total - expected) / abs(expected)
    assert rel <= 0.15
    _report("criterion 7 density structure", antisymmetry=float(anti),
            cap_charge_rel=rel)


def test_criterion_8_inversion_round_trip():
    t0 = time.perf_counter()
    spec = RodSpec(L=2.0, delta=0.05, center=(0.3, -0.2), angle=0.4, sigma0=2.0)
    bg = HarmonicBackground.linear((1.0, 1.0))
    pts = sensor_circle((0.0, 0.0), 3.0, 64)
    lam = lambda_of_sigma(2.0)
    c_true = spec.delta / (lam - 0.5)

    data = simulate_measurements(spec, bg, pts, source="asymptotic")
    fit = fit_rod(data)
    assert fit.converged
    err_asym = endpoint_error(fit, spec)
    c_rel = abs(fit.strength - c_true) / c_true
    assert err_asym <= 1e-3
    assert c_rel <= 0.01

    data = simulate_measurements(spec, bg, pts, source="bem")
    fit_b = fit_rod(data)
    assert fit_b.converged
    err_bem = endpoint_error(fit_b, spec)
    assert err_bem <= 2.0 * spec.delta

    d = 0.05
    base = RodSpec(L=2.0, delta=d, sigma0=2.0)
    bg_gap = HarmonicBackground.linear((1.0, 0.0))
    probe = sensor_circle((0.0, 0.0), 3.0, 64)
    g_small = distinguishability_gap(
        base, RodSpec(L=2.0, delta=d, center=(0.0, d / 10), sigma0=2.0),
        bg_gap, probe)
    g_big = distinguishability_gap(
        base, RodSpec(L=2.0, delta=d, center=(0.0, 10 * d), sigma0=2.0),
        bg_gap, probe)
    elapsed = time.perf_counter() - t0
    assert g_big / g_small >= 10.0
    assert elapsed <= 120.0
    _report("criterion 8 inversion", asym_endpoint_err=err_asym,
            c_rel=c_rel, bem_endpoint_err=err_bem,
            gap_ratio=g_big / g_small, seconds=elapsed)


def test_criterion_9_validation_suite():
    t0 = time.perf_counter()
    results = run_validation()
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)
    assert elapsed <= 120.0
    _report("criterion 9 validation suite", checks=len(results),
            seconds=elapsed)
