"""Built-in cross-check suite: every analytic identity the code must honor.

Each check compares a computed quantity against an independent reference
(closed form, analytic disc solution, quadrature of another route) and
records the measured margin next to its tolerance.  The CLI prints one
line per check; the test suite asserts on the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import a_delta_apply, f_sq_sum, f_sq_sum_cap_form
from .background import HarmonicBackground
from .geometry import BoundaryMesh, RodSpec, build_mesh
from .potentials import assemble_np, neumann_data, solve_density
from .solver import (ForwardSolution, disc_exterior_u, eval_field, lambda_of_sigma,
                     solve_forward, transmission_check)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tol)   # a NaN margin fails

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        s = f"[{status}] {self.name}: {self.measured:.3e} (tol {self.tol:.1e})"
        return f"{s}  {self.detail}" if self.detail else s


def check_mesh_closure(mesh: BoundaryMesh) -> list[CheckResult]:
    spec = mesh.spec
    w, nu, x = mesh.weights, mesh.normals, mesh.points
    perim_err = abs(w.sum() - spec.perimeter) / spec.perimeter
    closure = float(np.linalg.norm(w @ nu))
    area = 0.5 * float(np.dot(w, np.einsum("ij,ij->i", x, nu)))
    area_err = abs(area - spec.area) / spec.area
    return [
        CheckResult("mesh perimeter (relative)", perim_err, 1e-10),
        CheckResult("mesh closure |sum w*nu|", closure, 1e-8),
        CheckResult("mesh area (relative)", area_err, 1e-6),
    ]


def _suite_meshes() -> list[BoundaryMesh]:
    return [
        build_mesh(RodSpec(L=0.0, delta=1.0), n_cap=64),
        build_mesh(RodSpec(L=2.0, delta=0.1), n_cap=32, n_facade=64),
        build_mesh(RodSpec(L=2.0, delta=0.05, angle=0.3, center=(0.5, -0.2)),
                   n_cap=32, n_facade=96),
    ]


def run_validation() -> list[CheckResult]:
    checks: list[CheckResult] = []
    meshes = _suite_meshes()

    for mesh in meshes:
        checks.extend(check_mesh_closure(mesh))

    # NP column identity (uncorrected diagonal) and spectrum bound
    npms = [assemble_np(mesh) for mesh in meshes]
    for mesh, npm in zip(meshes, npms):
        col_err = float(np.abs(npm.raw_weighted_column_sums() - 0.5).max())
        checks.append(CheckResult("NP weighted column sums vs 1/2", col_err, 1e-3,
                                  f"mesh n={len(mesh)}"))
        ev = npm.eigenvalues()
        margin = float(max(np.abs(ev.real).max() - 0.5, 0.0))
        checks.append(CheckResult("NP spectrum bound overshoot", margin, 1e-3,
                                  f"mesh n={len(mesh)}"))

    # zero-total density for harmonic backgrounds, the quadratic one also
    # at high contrast, where the solve divides rounding by lam - 1/2
    bg_quad = HarmonicBackground.polynomial([0.0, 0.0, 0.0, 1.0, 0.0])
    for bg, sigma0 in ((HarmonicBackground.linear([1.0, 1.0]), 2.0), (bg_quad, 2.0),
                       (bg_quad, 1e12)):
        phi = solve_density(npms[1], lambda_of_sigma(sigma0), neumann_data(meshes[1], bg))
        rel = abs(phi.weighted_total()) / max(np.abs(phi.values).max(), 1e-300)
        checks.append(CheckResult("zero weighted total of density", rel, 1e-8,
                                  f"{'linear' if bg.is_linear else 'quadratic'} H, "
                                  f"sigma0={sigma0:g}"))

    # analytic disc oracle
    a = np.array([1.0, 0.0])
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear(a), n_cap=128)
    theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    pts = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u = eval_field(sol, pts)[0]
    exact = disc_exterior_u(a, 1.0, 2.0, pts)
    err = float(np.abs(u - exact).max() / np.abs(exact - pts @ a).max())
    checks.append(CheckResult("disc oracle (relative)", err, 1e-3))

    # axis averaging operator moments
    worst = 0.0
    for n in (0, 1, 2):
        for x1 in (0.0, 0.5, -0.5):
            got = a_delta_apply(lambda y, n=n: y**n, 1e-3, 2.0, x1)
            worst = max(worst, abs(got - 0.5 * x1**n))
    checks.append(CheckResult("axis averaging moments", worst, 0.05))

    # two routes to f1^2 + f2^2
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(100, 2))
    pts = pts[np.abs(pts[:, 1]) > 1e-3]
    gap = float(np.abs(f_sq_sum(pts, 2.0) - f_sq_sum_cap_form(pts, 2.0)).max())
    checks.append(CheckResult("gradient localisation identity", gap, 1e-12))

    # trace formula at offset points (facade)
    mesh = build_mesh(RodSpec(L=2.0, delta=0.1), n_cap=64, n_facade=256)
    npm, lam = assemble_np(mesh), lambda_of_sigma(mesh.spec.sigma0)
    bg = HarmonicBackground.linear([0.0, 1.0])
    phi = solve_density(npm, lam, neumann_data(mesh, bg))
    mask = (mesh.tag_mask("facade_top") | mesh.tag_mask("facade_bottom"))
    mask &= np.abs(mesh.points[:, 0]) < 0.7
    idx = np.flatnonzero(mask)[::8]
    # on the zero background the probe fluxes are d_nu S[phi] at x +- 5w nu
    rep = transmission_check(ForwardSolution(phi, HarmonicBackground((0.0,) * 5)), idx)
    kphi = npm.apply(phi.values)[idx]
    worst = float(max(np.abs(rep["flux_out"] - (0.5 * phi.values[idx] + kphi)).max(),
                      np.abs(rep["flux_in"] - (-0.5 * phi.values[idx] + kphi)).max())
                  / np.abs(phi.values).max())
    checks.append(CheckResult("trace formula at offset points", worst, 0.05))

    # flux transmission
    sol = solve_forward(RodSpec(L=0.0, delta=1.0, sigma0=2.0),
                        HarmonicBackground.linear([1.0, 0.0]), n_cap=512)
    rep = transmission_check(sol, idx=np.linspace(0, len(sol.mesh) - 1, 16).round().astype(int))
    checks.append(CheckResult("disc flux transmission", rep["max_mismatch"], 0.02))
    # on the trace-formula check's matrix: the rod is the same
    bg = HarmonicBackground.linear([1.0, 1.0])
    sol = ForwardSolution(solve_density(npm, lam, neumann_data(mesh, bg)), bg)
    # probe only the facade midsection, away from the caps
    mask = (sol.mesh.tag_mask("facade_top") | sol.mesh.tag_mask("facade_bottom"))
    mask &= np.abs(sol.mesh.points[:, 0]) < 0.5
    rep = transmission_check(sol, idx=np.flatnonzero(mask)[::16])
    checks.append(CheckResult("rod flux transmission (facade)", rep["max_mismatch"], 0.05))

    return checks
