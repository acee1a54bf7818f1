"""Fitting the rod to single-measurement circle data."""

import mpmath as mp
import numpy as np
import pytest
import scipy.optimize

from rodfield import (HarmonicBackground, RodSpec, SensorSet, fit_rod,
                      sensor_circle, simulate_measurements)
from rodfield.asymptotics import AsymptoticModel, asymptotic_field
from rodfield import inverse
from rodfield.geometry import rotation_matrix
from rodfield.cli import load_measurements_csv, main
from rodfield.inverse import endpoint_error
from rodfield.geometry import ValidationError
from rodfield.potentials import SolverError
from rodfield.solver import eval_field, lambda_of_sigma, perturbation, solve_forward


SPEC = RodSpec(L=2.0, delta=0.05, center=(0.3, -0.2), angle=0.4, sigma0=2.0)
BG = HarmonicBackground.linear((1.0, 1.0))
POINTS = sensor_circle((0.0, 0.0), 3.0, 64)
# SPEC, BG and POINTS as a config of the CLI
CONFIG = """\
rod: {L: 2.0, delta: 0.05, center: [0.3, -0.2], angle: 0.4, sigma0: 2.0}
background: {a: [1.0, 1.0]}
sensors: {center: [0.0, 0.0], radius: 3.0, count: 64}
"""


def invert_synthesize(tmp_path, *argv):
    """``rodfield invert --synthesize --model asymptotic`` on CONFIG."""
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG)
    assert main(["invert", "--config", str(path), "--synthesize",
                 "--model", "asymptotic", *argv]) == 0


def test_sensor_circle_layout():
    pts = sensor_circle((1.0, 2.0), 3.0, 16)
    assert pts.shape == (16, 2)
    assert np.allclose(np.linalg.norm(pts - [1.0, 2.0], axis=1), 3.0)


def test_placement_error_for_close_sensors():
    close = sensor_circle((0.3, -0.2), 1.02, 64)
    with pytest.raises(ValidationError, match="sensor within 2\\*delta of the rod"):
        simulate_measurements(SPEC, BG, close)


def test_noise_determinism():
    d1 = simulate_measurements(SPEC, BG, POINTS, noise_rms=1e-4,
                               source="asymptotic", seed=42)
    d2 = simulate_measurements(SPEC, BG, POINTS, noise_rms=1e-4,
                               source="asymptotic", seed=42)
    d3 = simulate_measurements(SPEC, BG, POINTS, noise_rms=1e-4,
                               source="asymptotic", seed=43)
    assert np.array_equal(d1.values, d2.values)
    assert not np.array_equal(d1.values, d3.values)


def test_model_source_consistency():
    # both forward models agree to a fraction of delta on a wide circle
    spec = RodSpec(L=2.0, delta=0.05, sigma0=2.0)
    pts = sensor_circle((0.0, 0.0), 5.0, 64)
    db = simulate_measurements(spec, BG, pts, source="bem")
    da = simulate_measurements(spec, BG, pts, source="asymptotic")
    a_norm = np.linalg.norm(BG.linear_part)
    assert np.abs(db.values - da.values).max() <= 0.2 * spec.delta * a_norm


@pytest.mark.parametrize("source", ["bem", "asymptotic"])
def test_synthesized_data_is_background_plus_perturbation(source):
    # the one forward-model route gives the u of the model's own evaluator
    # (eval_field, asymptotic_field), bit for bit
    data = simulate_measurements(SPEC, BG, POINTS, source=source)
    s = perturbation(SPEC, BG, POINTS, source)[0]
    assert np.array_equal(data.values, BG.value(POINTS) + s)
    if source == "bem":
        u = eval_field(solve_forward(SPEC, BG), POINTS)[0]
    else:
        u = asymptotic_field(AsymptoticModel.from_spec(SPEC, BG), POINTS)[0]
    assert np.array_equal(data.values, u)


def test_unknown_source_rejected():
    with pytest.raises(ValueError):
        simulate_measurements(SPEC, BG, POINTS, source="exact")


def test_identifiability_error_for_flat_background():
    flat = HarmonicBackground.linear((0.0, 0.0))
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    data = data.__class__(points=data.points, values=data.values,
                          background=flat)
    with pytest.raises(SolverError, match="^fit requires a nontrivial linear background$"):
        fit_rod(data)


def test_round_trip_asymptotic_data():
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    fit = fit_rod(data)
    lam = lambda_of_sigma(SPEC.sigma0)
    assert fit.converged
    assert fit.residual_rel <= 1e-3
    assert endpoint_error(fit, SPEC) < 1e-6
    assert fit.strength == pytest.approx(SPEC.delta / (lam - 0.5), rel=1e-6)
    assert fit.strength_transverse == pytest.approx(
        SPEC.delta / (lam + 0.5), rel=1e-6)
    assert fit.length == pytest.approx(SPEC.L, rel=1e-6)
    assert fit.angle == pytest.approx(SPEC.angle, abs=1e-6)


def test_round_trip_with_noise():
    data = simulate_measurements(SPEC, BG, POINTS, noise_rms=1e-4,
                                 source="asymptotic", seed=1)
    fit = fit_rod(data)
    assert fit.converged
    assert endpoint_error(fit, SPEC) < 0.05


def test_round_trip_bem_data():
    data = simulate_measurements(SPEC, BG, POINTS, source="bem")
    fit = fit_rod(data)
    assert fit.converged
    assert endpoint_error(fit, SPEC) < 2 * SPEC.delta


def _two_rod_data():
    # two rods' closed-form perturbations on one background: no single rod
    # explains the data
    rods = [RodSpec(L=1.0, delta=0.05, center=(-0.8, 0.3), angle=0.2, sigma0=2.0),
            RodSpec(L=1.0, delta=0.05, center=(0.7, -0.4), angle=1.9, sigma0=2.0)]
    values = BG.value(POINTS) + sum(
        simulate_measurements(r, BG, POINTS, source="asymptotic").values
        - BG.value(POINTS) for r in rods)
    return SensorSet(points=POINTS, values=values, background=BG)


def test_two_rod_data_is_not_converged():
    # LM stops, but the residual stays at 2.2e-2 of the signal
    fit = fit_rod(_two_rod_data())
    assert fit.residual_rel > 1e-3
    assert not fit.converged


def test_data_without_perturbation_is_not_converged():
    # the residual gate read 0 <= 0 and passed a rod fitted to nothing
    data = SensorSet(points=POINTS, values=BG.value(POINTS), background=BG)
    assert not fit_rod(data).converged


@pytest.mark.parametrize("source, tol", [("asymptotic", 1e-6),
                                         ("bem", 2 * SPEC.delta)])
def test_angle_sweep_finds_global_minimum(source, tol):
    # one LM start from angle 0 stopped in a wrong minimum at 6 of these 24
    # angles on closed-form data and at 7 on BEM data
    wrong = []
    for k in range(24):
        spec = RodSpec(L=2.0, delta=0.05, center=(0.3, -0.2),
                       angle=k * np.pi / 24, sigma0=2.0)
        fit = fit_rod(simulate_measurements(spec, BG, POINTS, source=source))
        if not (fit.converged and endpoint_error(fit, spec) < tol):
            wrong.append(k)
    assert wrong == []


@pytest.mark.parametrize("a, L, angle, center, sigma0", [
    ((0.9, -0.43), 2.1, 1.0, (0.4, -0.35), 0.01),
    ((0.85, -0.52), 0.85, 1.5, (-0.37, -0.19), 100.0),
    ((-0.9, -0.43), 0.55, 0.7, (-0.36, 0.3), 100.0),
    ((0.16, 0.99), 1.15, 2.65, (0.46, 0.23), 0.5),
])
def test_hard_cases_converge(a, L, angle, center, sigma0):
    # a fixed start with strengths (0.05, 0.025) had the wrong size at
    # sigma0 = 100 and the wrong sign at sigma0 = 0.01
    spec = RodSpec(L=L, delta=0.05, center=center, angle=angle, sigma0=sigma0)
    bg = HarmonicBackground.linear(a)
    fit = fit_rod(simulate_measurements(spec, bg, POINTS, source="asymptotic"))
    assert fit.converged
    assert endpoint_error(fit, spec) < 1e-6


def test_simulate_refuses_nonlinear_background():
    quad = HarmonicBackground.polynomial([0.0, 1.0, 0.5, 0.3, 0.2])
    for source in ("asymptotic", "bem"):
        with pytest.raises(SolverError, match="^fit requires a nontrivial linear background$"):
            simulate_measurements(SPEC, quad, POINTS, source=source)


def test_fit_determinism():
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    f1 = fit_rod(data)
    f2 = fit_rod(data)
    assert f1.to_dict() == f2.to_dict()


def test_angle_canonicalized():
    spec = RodSpec(L=2.0, delta=0.05, angle=-0.5, sigma0=2.0)
    data = simulate_measurements(spec, BG, POINTS, source="asymptotic")
    fit = fit_rod(data)
    assert 0.0 <= fit.angle < np.pi
    assert endpoint_error(fit, spec) < 1e-6


def test_strength_pair_determines_model():
    # two (delta, lam) pairs with equal strengths give identical fields
    pts = sensor_circle((0.0, 0.0), 3.0, 32)
    scale = 1.6
    # matching both strengths at once forces the same (delta, lam), so
    # check each channel separately with single-component backgrounds
    ax = HarmonicBackground.linear((1.0, 0.0))
    m_ax1 = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, background=ax)
    m_ax2 = AsymptoticModel(L=2.0, delta=0.05 * scale,
                            lam=0.5 + scale * (1.5 - 0.5), background=ax)
    assert m_ax1.strength == pytest.approx(m_ax2.strength, rel=1e-14)
    assert np.allclose(asymptotic_field(m_ax1, pts)[0], asymptotic_field(m_ax2, pts)[0],
                       atol=1e-12)
    tr = HarmonicBackground.linear((0.0, 1.0))
    m_tr1 = AsymptoticModel(L=2.0, delta=0.05, lam=1.5, background=tr)
    m_tr2 = AsymptoticModel(L=2.0, delta=0.05 * scale,
                            lam=scale * (1.5 + 0.5) - 0.5, background=tr)
    assert m_tr1.strength_transverse == pytest.approx(
        m_tr2.strength_transverse, rel=1e-14)
    assert np.allclose(asymptotic_field(m_tr1, pts)[0], asymptotic_field(m_tr2, pts)[0],
                       atol=1e-12)


def test_gap_monotone_in_translation():
    from rodfield.inverse import distinguishability_gap

    d = 0.05
    base = RodSpec(L=2.0, delta=d, sigma0=2.0)
    bg = HarmonicBackground.linear((1.0, 0.0))
    pts = sensor_circle((0.0, 0.0), 3.0, 32)
    gaps = [distinguishability_gap(
        base, RodSpec(L=2.0, delta=d, center=(0.0, t), sigma0=2.0), bg, pts)
        for t in (d / 10, d, 10 * d)]
    assert gaps[0] < gaps[1] < gaps[2]
    # identical rods: gap at solver tolerance
    assert distinguishability_gap(base, base, bg, pts) < 1e-8


def test_measurement_csv_round_trip(tmp_path):
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    path = tmp_path / "meas.csv"
    invert_synthesize(tmp_path, "--data", str(path), "--out", str(tmp_path / "fit.json"))
    loaded = load_measurements_csv(str(path), BG)
    assert np.array_equal(loaded.points, data.points)
    assert np.array_equal(loaded.values, data.values)


def test_measurement_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,u\n1.0,2.0,not_a_number\n")
    with pytest.raises(ValidationError, match="2"):
        load_measurements_csv(str(bad), BG)
    no_header = tmp_path / "nh.csv"
    no_header.write_text("1.0,2.0,3.0\n")
    with pytest.raises(ValidationError):
        load_measurements_csv(str(no_header), BG)


def test_header_only_csv_is_refused(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2,u\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_measurements_csv(str(path), BG)


def test_fit_refuses_fewer_sensors_than_parameters():
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    few = SensorSet(points=data.points[::13], values=data.values[::13], background=BG)
    assert len(few) == 5
    with pytest.raises(SolverError, match="6 sensors"):
        fit_rod(few)


def test_a_fit_with_no_spare_sensor_is_not_converged():
    # six sensors leave the six parameters no residual to test: on
    # closed-form data the fit was 0.106 off the rod with residual_rel
    # 4e-16 and said converged.  A seventh sensor makes the fit exact
    for count in (6, 7, 8):
        data = simulate_measurements(SPEC, BG, sensor_circle((0.0, 0.0), 3.0, count),
                                     source="asymptotic")
        fit = fit_rod(data)
        assert fit.converged == (count > 6)
        assert (endpoint_error(fit, SPEC) <= 1e-10) == (count > 6)


def test_fit_counts_repeated_and_signed_zero_sensors_once():
    # five distinct sensors, once with repeated rows and once with a row
    # that differs from another only in the sign of a zero
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    rows = [0, 13, 26, 39, 52]
    repeated = SensorSet(points=data.points[rows * 2], values=data.values[rows * 2],
                         background=BG)
    points = np.vstack([data.points[rows[1:]], [0.0, 3.0], [-0.0, 3.0]])
    signed_zero = SensorSet(points=points, values=BG.value(points) + 1e-3,
                            background=BG)
    assert np.array_equal(signed_zero.points[-2], signed_zero.points[-1])
    for few in (repeated, signed_zero):
        with pytest.raises(SolverError, match="got 5 distinct"):
            fit_rod(few)
    assert len(np.unique(points, axis=0)) == 5


def test_sensor_center_and_radius_follow_points():
    data = SensorSet(points=POINTS + [1.0, -2.0], values=np.zeros(len(POINTS)),
                     background=BG)
    assert np.allclose(data.center, [1.0, -2.0], atol=1e-14)
    assert data.radius == pytest.approx(3.0, rel=1e-14)


def test_dump_fit_json(tmp_path):
    import json

    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    fit = fit_rod(data)
    path = tmp_path / "fit.json"
    invert_synthesize(tmp_path, "--out", str(path))
    loaded = json.loads(path.read_text())
    assert list(loaded) == ["endpoints", "strength", "strength_transverse",
                            "center", "angle", "length", "residual",
                            "residual_rel", "iterations", "lm_stop", "converged",
                            "strength_stderr", "strength_transverse_stderr"]
    assert loaded["converged"] is True
    assert loaded["lm_stop"] == fit.lm_stop in ("gtol", "ftol", "xtol")
    assert loaded["residual_rel"] == fit.residual_rel
    assert len(loaded["endpoints"]) == 2
    for point in (*loaded["endpoints"], loaded["center"]):
        assert len(point) == 2 and all(type(x) is float for x in point)
    assert type(loaded["iterations"]) is int
    assert all(type(loaded[k]) is float for k in (
        "strength", "strength_transverse", "angle", "length", "residual",
        "residual_rel", "strength_stderr", "strength_transverse_stderr"))


def _jacobian_cases():
    """About 20 seeded (params, points): theta in all four quadrants, L < 0
    in every other case, and one sensor on the axis beyond a cap."""
    rng = np.random.default_rng(7)
    pts = sensor_circle((0.0, 0.0), 3.0, 16)
    cases = []
    for i in range(20):
        theta = (i % 4 + rng.uniform(0.05, 0.95)) * (np.pi / 2.0)
        L = (-1.0) ** i * rng.uniform(0.5, 2.5)
        cases.append((np.array([*rng.uniform(-0.5, 0.5, 2), theta, L,
                                *rng.normal(0.0, 1.0, 2)]), pts))
    # theta = 0: the sensor at z0 + (2, 0) has x2 = 0 and x1 = 2 > L/2
    z0 = np.array([0.1, -0.2])
    cases.append((np.array([*z0, 0.0, -1.5, 0.7, -0.4]),
                  np.vstack([pts, z0 + [2.0, 0.0]])))
    return cases


def test_fit_jacobian_matches_central_differences():
    cases = _jacobian_cases()
    p, pts = cases[-1]
    assert ((pts - p[:2]) @ rotation_matrix(p[2]))[-1, 1] == 0.0
    for p, pts in cases:
        J = inverse._closed_form(p, pts)[1]
        fd = np.empty_like(J)
        for j in range(len(p)):
            step = np.zeros(len(p))
            step[j] = 1e-6 * max(1.0, abs(p[j]))
            fd[:, j] = (inverse._closed_form(p + step, pts)[0]
                        - inverse._closed_form(p - step, pts)[0]) / (2.0 * step[j])
        assert np.abs(J - fd).max() <= 1e-7 * np.abs(J).max()


def test_fit_kernel_is_the_asymptotic_forward_model():
    # the fit places the rod through its world cap centres p and q, the
    # forward model maps the sensors into the rod frame by to_local: both
    # take lg from one routine, so this checks the placement
    rng = np.random.default_rng(31)
    pts = sensor_circle((0.0, 0.0), 3.0, 64)
    for i in range(20):
        spec = RodSpec(L=rng.uniform(0.5, 2.5), delta=0.05,
                       center=tuple(rng.uniform(-0.5, 0.5, 2)), angle=rng.uniform(0.0, np.pi),
                       sigma0=(0.01, 2.0, 100.0)[i % 3])
        bg = HarmonicBackground.linear(rng.normal(0.0, 1.0, 2))
        model = AsymptoticModel.from_spec(spec, bg)
        a_loc = rotation_matrix(spec.angle).T @ bg.linear_part
        params = np.array([*spec.center, spec.angle, spec.L,
                           model.strength * a_loc[0], model.strength_transverse * a_loc[1]])
        s = perturbation(spec, bg, pts, "asymptotic")[0]
        assert np.abs(inverse._closed_form(params, pts)[0] - s).max() <= 1e-13 * np.abs(s).max()


def test_fit_kernel_far_from_the_rod_keeps_its_digits():
    # s and the six Jacobian columns against the kernel's closed form at 60
    # digits, on 25 sensors a radius, each column within 8 eps of its own
    # largest value from 3 to 3e10 from the rod (measured: <= 2.7 eps)
    params = np.array([0.3, -0.2, 0.4, 2.0, 0.05, 0.025])
    turn = np.exp(1j * params[2])
    theta, eps = 2.0 * np.pi * (np.arange(25) + 0.37) / 25, np.finfo(float).eps
    for r in (3.0, 300.0, 3e4, 3e6, 3e10):
        pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        s, J = inverse._closed_form(params, pts)
        ref = np.empty((len(pts), 7))
        with mp.workdps(60):
            a, u = mp.mpc(params[4], params[5]) / mp.pi, mp.mpc(turn.real, turn.imag)
            z0, half = mp.mpc(params[0], params[1]), mp.mpf(params[3]) / 2
            for i, (x1, x2) in enumerate(pts):
                z = mp.mpc(x1, x2) - z0
                zp, zq = z + half * u, z - half * u
                lg, shift, spread = mp.log(zq / zp), a / zp - a / zq, a * u * (1 / zq + 1 / zp)
                ref[i] = [float(v) for v in (mp.re(a * lg), mp.re(shift), -mp.im(shift),
                                             half * mp.im(spread), -mp.re(spread) / 2,
                                             mp.re(lg) / mp.pi, -mp.im(lg) / mp.pi)]
        got = np.column_stack([s, J])
        assert (np.abs(got - ref).max(axis=0) <= 8 * eps * np.abs(ref).max(axis=0)).all(), r


def test_fit_kernel_at_a_cap_centre_is_not_finite():
    # the rod z0 = 0, theta = 0, L = 2 has p = -1 and q = 1 exactly: the
    # kernel refuses nothing, and LM refuses a step whose s is not finite
    params = np.array([0.0, 0.0, 0.0, 2.0, 0.05, 0.025])
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    with np.errstate(all="ignore"):
        rows = np.isfinite(np.column_stack(inverse._closed_form(params, pts)))
    assert rows.all(axis=1).tolist() == [False, False, True]
    assert not rows[:2, 0].any()


def test_fit_folds_an_angle_just_below_zero_into_0_pi(monkeypatch):
    # theta = -1e-17 is the rod at theta = 0, but theta % pi rounds to pi,
    # which is outside [0, pi) and swaps the endpoints
    lm = inverse._lm

    def lm_ending_below_zero(fun, x0):
        x, *rest = lm(fun, x0)
        x = x.copy()
        x[2] = -1e-17
        return (x, *rest)

    monkeypatch.setattr(inverse, "_lm", lm_ending_below_zero)
    data = next(_k_pi_8_data())[2]
    fit = fit_rod(data)
    assert 0.0 <= fit.angle < np.pi
    half = fit.length / 2.0 * np.array([np.cos(-1e-17), np.sin(-1e-17)])
    assert np.abs(fit.endpoints[0] - (fit.center - half)).max() <= 1e-15
    assert np.abs(fit.endpoints[1] - (fit.center + half)).max() <= 1e-15


def _k_pi_8_data():
    """Noise-free closed-form data of the rods at angles k*pi/8."""
    for k in range(8):
        spec = RodSpec(L=2.0, delta=0.05, center=(0.3, -0.2),
                       angle=k * np.pi / 8, sigma0=2.0)
        yield k, spec, simulate_measurements(spec, BG, POINTS, source="asymptotic")


def test_fit_uses_the_analytic_jacobian(monkeypatch):
    # the kernel, which returns s and J together, runs once per LM
    # evaluation of (r, J): no difference columns; the start calls it once
    # to check itself
    kernel, lm = inverse._closed_form, inverse._lm
    calls, runs = [], []
    monkeypatch.setattr(inverse, "_closed_form", lambda *a:
                        calls.append(a) or kernel(*a))
    monkeypatch.setattr(inverse, "_lm", lambda *a: runs.append(lm(*a)) or runs[-1])
    for k, spec, data in _k_pi_8_data():
        calls.clear()
        fit = fit_rod(data)
        nfev = runs[-1][-1]
        assert len(calls) == 1 + nfev
        assert fit.iterations == nfev <= 3
        assert fit.converged and endpoint_error(fit, spec) < 1e-12
        assert 0.0 <= fit.angle < np.pi


def _random_rods(seed, count):
    """Seeded random rods: L, centre, angle and the direction of a, sigma0
    from 0.01 to 100, and 32 or 64 sensors at radius 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec = RodSpec(L=rng.uniform(0.5, 2.5), delta=0.05,
                       center=tuple(rng.uniform(-0.5, 0.5, 2)),
                       angle=rng.uniform(0.0, np.pi),
                       sigma0=rng.choice([0.01, 0.1, 0.5, 2.0, 10.0, 100.0]))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        yield (spec, HarmonicBackground.linear((np.cos(phi), np.sin(phi))),
               sensor_circle((0.0, 0.0), 3.0, rng.choice([32, 64])))


def _relative_residual(params, data):
    signal = data.values - data.background.value(data.points)
    return (np.linalg.norm(inverse._closed_form(params, data.points)[0] - signal)
            / np.linalg.norm(signal))


def test_random_rods_converge_to_their_endpoints():
    # the start inverts closed-form data; on m evenly spaced sensors the
    # moment of order m - 3 aliases onto M_3, so it is exact only up to
    # (|cap| / rho)^(m - 3): 3e-8 on four of the 32-sensor rods, which LM
    # then polishes in 4 evaluations
    wrong, nfev = [], []
    for i, (spec, bg, pts) in enumerate(_random_rods(11, 40)):
        data = simulate_measurements(spec, bg, pts, source="asymptotic")
        rel = _relative_residual(inverse._start(data, data.values - bg.value(pts)), data)
        cap = max(np.linalg.norm(x) for x in spec.cap_centers_world()) / 3.0
        assert rel <= max(1e-12, cap ** (len(pts) - 3))
        fit = fit_rod(data)
        if not (fit.converged and endpoint_error(fit, spec) <= 1e-10):
            wrong.append(i)
        assert fit.iterations <= (3 if rel <= 1e-12 else 4)
        nfev.append(fit.iterations)
    assert wrong == []
    assert np.mean(nfev) <= 2.2


def test_noisy_fits_match_minpack():
    # MINPACK's LM from the same start, as an independent implementation,
    # reaches the same minimum of the noisy data
    for i, (spec, bg, pts) in enumerate(_random_rods(12, 10)):
        data = simulate_measurements(spec, bg, pts, noise_rms=(1e-5, 1e-4)[i % 2],
                                     source="asymptotic", seed=i)
        signal = data.values - bg.value(pts)
        ref = scipy.optimize.least_squares(
            lambda p: inverse._closed_form(p, pts)[0] - signal,
            inverse._start(data, signal),
            jac=lambda p: inverse._closed_form(p, pts)[1],
            method="lm", xtol=1e-10, ftol=1e-10, gtol=1e-10).x
        rod = RodSpec(L=abs(ref[3]), delta=spec.delta, center=tuple(ref[:2]),
                      angle=ref[2], sigma0=spec.sigma0)
        assert endpoint_error(fit_rod(data), rod) <= 1e-6


def test_fit_stopped_at_the_evaluation_cap_reports_max_nfev(tmp_path, monkeypatch):
    # closed-form data converge in 2 evaluations; BEM data take 6
    import json

    monkeypatch.setattr(inverse, "MAX_NFEV", 3)
    fit = fit_rod(simulate_measurements(SPEC, BG, POINTS, source="bem"))
    assert (fit.lm_stop, fit.converged, fit.iterations) == ("max_nfev", False, 3)
    path, out = tmp_path / "run.yaml", tmp_path / "fit.json"
    path.write_text(CONFIG)
    assert main(["invert", "--config", str(path), "--synthesize",
                 "--model", "bem", "--out", str(out)]) == 1
    loaded = json.loads(out.read_text())
    assert (loaded["lm_stop"], loaded["converged"]) == ("max_nfev", False)


def test_start_moments_match_the_fft_of_evenly_spaced_data():
    # on m evenly spaced sensors the columns of the moment solve are
    # orthogonal, so M_k is the k-th DFT coefficient: 2 k conj(F_k) / m
    pts = sensor_circle((1.0, -2.0), 3.0, 64)
    spec = RodSpec(L=1.6, delta=0.05, center=(1.4, -2.3), angle=2.2, sigma0=10.0)
    data = simulate_measurements(spec, BG, pts, noise_rms=1e-4,
                                 source="asymptotic", seed=5)
    signal = data.values - BG.value(pts)
    M = inverse._far_moments(data, signal)
    k = np.arange(1, len(M) + 1)
    want = np.conj(2.0 * k * np.fft.fft(signal)[1:len(M) + 1] / len(pts))
    assert len(M) == 8
    assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()


def test_start_is_finite_on_degenerate_data():
    # collinear sensors leave half the moments undetermined (lstsq takes the
    # minimum norm); six sensors determine M_1..M_3 exactly; data equal to
    # H have M_1 = 0 and take the fallback start.  The first fit converges;
    # the six-sensor fit lands on the rod but, with no spare sensor, its
    # residual proves nothing, so it is not converged; the last misses
    rod = RodSpec(L=1.75, delta=0.05, center=(0.0, 0.0), angle=0.0, sigma0=2.0)
    bg = HarmonicBackground.linear((1.0, 0.0))
    x1 = np.array([-5.0, -4.0, -3.0, -2.0, 2.0, 3.0, 4.0, 5.0])
    collinear = simulate_measurements(rod, bg, np.stack([x1, np.zeros(8)], axis=1),
                                      source="asymptotic")
    full = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    six = SensorSet(points=POINTS[::11], values=full.values[::11], background=BG)
    flat = SensorSet(points=POINTS, values=BG.value(POINTS), background=BG)
    for data, spec in ((collinear, rod), (six, SPEC), (flat, None)):
        signal = data.values - data.background.value(data.points)
        start = inverse._start(data, signal)
        assert np.isfinite(start).all()
        fit = fit_rod(data)
        if spec is None:
            assert np.array_equal(start, [*data.center, 0.0, 1.5, 0.0, 0.0])
            assert not fit.converged
        else:
            assert fit.converged == (data is not six)
            assert endpoint_error(fit, spec) <= 1e-10


@pytest.mark.parametrize("sigma0, delta, error", [
    (2.0, 0.05, 0.2139), (2.0, 0.01, 0.1376), (10.0, 0.01, 1.790),
    (100.0, 0.01, 4.845), (100.0, 0.0025, 15.16)])
def test_bem_fits_land_where_the_angle_search_did(sigma0, delta, error):
    # the closed form's bias on BEM data (endpoint error over 2 delta) does
    # not depend on the start: the eight-angle start reached these minima
    spec = RodSpec(L=2.0, delta=delta, center=(0.3, -0.2), angle=0.4, sigma0=sigma0)
    fit = fit_rod(simulate_measurements(spec, BG, POINTS, source="bem"))
    assert fit.converged
    assert endpoint_error(fit, spec) / (2.0 * delta) == pytest.approx(error, rel=5e-4)


def _grid(n, spacing):
    g = spacing * (np.arange(n) - (n - 1) / 2.0)
    return np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)


_QUARTER = np.linspace(-np.pi / 4.0, np.pi / 4.0, 16)
QUARTER_ARC = 3.0 * np.stack([np.cos(_QUARTER), np.sin(_QUARTER)], axis=1)
GRID_ROD = RodSpec(L=0.6, delta=0.02, center=(0.5, 0.4), angle=0.3, sigma0=10.0)
ARC_ROD = RodSpec(L=1.0, delta=0.02, center=(0.2, -0.1), angle=0.7, sigma0=10.0)


@pytest.mark.parametrize("points, spec, source, error, moment_start", [
    (_grid(5, 1.0), GRID_ROD, "asymptotic", 0.0, True),
    (_grid(5, 1.0), GRID_ROD, "bem", 0.00800335, True),
    (QUARTER_ARC, ARC_ROD, "asymptotic", 0.0, False),
    (QUARTER_ARC, ARC_ROD, "bem", 0.0195713, False)])
def test_fits_off_a_circle_land_where_the_angle_search_did(points, spec, source,
                                                            error, moment_start):
    # a 5 x 5 grid has a sensor on its centroid, where the far-field series
    # has no finite terms, and the sensors within half the mean radius are
    # left out of the moment solve.  On a quarter arc to one side of the rod
    # the series diverges at the sensors, its start leaves more than
    # START_TOL of the signal, and the fit starts from the fallback.  Both
    # reach the endpoint errors that the eight-angle start reached
    bg = HarmonicBackground.linear((1.0, 0.5))
    data = simulate_measurements(spec, bg, points, source=source)
    start = inverse._start(data, data.values - bg.value(points))
    assert start[4:].any() == moment_start
    fit = fit_rod(data)
    assert fit.converged
    if error:
        assert endpoint_error(fit, spec) == pytest.approx(error, rel=1e-4)
    else:
        assert endpoint_error(fit, spec) <= 1e-10


def test_a_line_of_sensors_fits_the_rod_or_its_mirror_image():
    # on the line z = conj(z) + const the closed form of a rod equals that of
    # its mirror image with conjugate amplitudes, so the data tell them not
    # apart: the fit converges to one of the two
    spec = RodSpec(L=1.0, delta=0.02, center=(0.2, 0.1), angle=0.7, sigma0=10.0)
    mirror = RodSpec(L=1.0, delta=0.02, center=(0.2, -4.1), angle=-0.7, sigma0=10.0)
    pts = np.stack([np.linspace(-5.0, 5.0, 21), np.full(21, -2.0)], axis=1)
    fit = fit_rod(simulate_measurements(spec, HarmonicBackground.linear((1.0, 0.5)),
                                        pts, source="asymptotic"))
    assert fit.converged
    assert min(endpoint_error(fit, spec), endpoint_error(fit, mirror)) <= 1e-10


def test_strength_stderr_marks_undetermined_strengths():
    # at k = 2 (6) the rod-frame a has no transverse (axial) component, so
    # that strength is undetermined; every other one is exact on this data
    undetermined = {2: "strength_transverse", 6: "strength"}
    for k, spec, data in _k_pi_8_data():
        fit = fit_rod(data)
        for name in ("strength", "strength_transverse"):
            rel = getattr(fit, name + "_stderr") / abs(getattr(fit, name))
            if undetermined.get(k) == name:
                assert rel >= 0.5
            else:
                assert rel <= 1e-10


def test_strength_stderr_is_none_where_undefined():
    # no signal leaves J^T J singular; six sensors leave no residual dof
    flat = fit_rod(SensorSet(points=POINTS, values=BG.value(POINTS), background=BG))
    data = simulate_measurements(SPEC, BG, POINTS, source="asymptotic")
    six = fit_rod(SensorSet(points=POINTS[::11], values=data.values[::11],
                            background=BG))
    for fit in (flat, six):
        assert fit.strength_stderr is None
        assert fit.strength_transverse_stderr is None
    assert flat.residual_rel is None
