"""Forward transmission solve: u = H + S[phi] with phi from the NP system.

Also carries the one choice of forward model (:func:`perturbation`), the
analytic disc solution (the only exact case, reached via L = 0), and
offset-point checks: flux transmission and trace-formula consistency.
It alone places the rod: world points enter the rod frame of the mesh and
the density through ``to_local``, and gradients leave it by one rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .asymptotics import AsymptoticModel, asymptotic_perturbation
from .background import HarmonicBackground
from .geometry import (BoundaryMesh, RodSpec, ValidationError, as_points, build_mesh,
                       lambda_of_sigma, mesh_counts, rotation_matrix, signed_distance, to_local)
from .potentials import (DensityVector, assemble_np, neumann_data, single_layer_field,
                         solve_density)

#: The smallest delta / L the BEM accepts.  Its two facade charge sheets,
#: 2 delta apart, cancel in S[phi], so a field of size delta comes out of
#: O(1) sums: the error floor is about 2.6e-17 L / delta of the field,
#: 2.6e-7 at this ratio, and it grows tenfold for each decade below.
DELTA_FLOOR = 1e-10

#: Node distances whose squares, which assembly forms, are normal floats: above,
#: they overflow; below, they lose digits (L = 2e-155, delta = 1e-158 was 5.6e-6 off).
R_RANGE = (float(np.sqrt(np.finfo(float).tiny)), float(np.sqrt(np.finfo(float).max)))

#: The forward models of :func:`perturbation`: the BEM and the closed form.
MODELS = ("bem", "asymptotic")


@dataclass(frozen=True)
class ForwardSolution:
    """Solved transmission problem for one rod and one background."""

    phi: DensityVector = field(repr=False)
    background: HarmonicBackground

    @property
    def mesh(self) -> BoundaryMesh:
        return self.phi.mesh

    @property
    def spec(self) -> RodSpec:
        return self.mesh.spec

    @property
    def lam(self) -> float:
        return lambda_of_sigma(self.spec.sigma0)


def solve_forward(spec: RodSpec, bg: HarmonicBackground,
                  n_cap: int | None = None,
                  n_facade: int | None = None) -> ForwardSolution:
    """Compose mesh build, NP assembly and the density solve.

    The mesh is ``build_mesh(spec, n_cap, n_facade)``: counts left out
    take the default rule, which is graded for a thin rod.  A rod with
    delta < DELTA_FLOOR L, a mesh whose node distances leave R_RANGE, a
    background whose normal derivative on the rod is not finite, and a
    mesh whose dense system does not fit in memory (assembly holds four
    (n/4, n/4) blocks), are refused with ValidationError.
    """
    if spec.delta < DELTA_FLOOR * spec.L:
        raise ValidationError(f"delta={spec.delta!r} is below the BEM's floor "
                              f"{DELTA_FLOOR:g} L = {DELTA_FLOOR * spec.L!r}, under which its "
                              "error passes 2.6e-7 of the field")
    n = 2 * sum(mesh_counts(spec, n_cap, n_facade)[:2])
    try:
        if 2 * n * n > np.iinfo(np.intp).max:   # bytes of the four (n/4)^2 blocks
            raise MemoryError
        mesh = build_mesh(spec, n_cap, n_facade)
        # the closest nodes are neighbours (a cap's are nearer than 2 delta)
        near = np.hypot(*np.diff(mesh.points, axis=0, append=mesh.points[:1]).T).min()
        if near < R_RANGE[0] or spec.L + 2.0 * spec.delta > R_RANGE[1]:
            raise ValidationError(f"L={spec.L!r}, delta={spec.delta!r}: its nodes are {near:.3g} "
                                  f"to {spec.L + 2.0 * spec.delta:.3g} apart, outside the range "
                                  f"{R_RANGE[0]:.3g} to {R_RANGE[1]:.3g} where their squared "
                                  "distances are normal floats")
        rhs = neumann_data(mesh, bg.in_frame(spec))
        if not np.isfinite(rhs.values).all():
            raise ValidationError(f"background {bg.coeffs}: its normal derivative on the rod "
                                  "is not finite")
        phi = solve_density(assemble_np(mesh), lambda_of_sigma(spec.sigma0), rhs)
    except MemoryError as exc:
        raise ValidationError(f"the dense system of n={n} nodes (delta="
                              f"{spec.delta!r}) does not fit in memory; raise delta "
                              "or lower solver.n_cap and n_facade") from exc
    return ForwardSolution(phi, bg)


def perturbation(spec: RodSpec, bg: HarmonicBackground, pts, model: str = "bem",
                 n_cap: int | None = None, n_facade: int | None = None):
    """The perturbation s = u - H (m,) of ``model`` on points (m, 2), its
    gradient, the near flags and the BEM solution (None for the closed form).

    'bem' flags points off a panel by less than half its length; 'asymptotic'
    flags those within 0.1 delta of the rod, and its model refuses a disc, where it
    is exactly zero.  Both form s itself in the rod frame, never u - H, which cancels
    digits.  A value that is not finite (r^2 overflows past about 1e154) is refused.
    """
    pts = as_points(pts)
    xl = to_local(spec, pts)
    if model == "bem":
        sol = solve_forward(spec, bg, n_cap=n_cap, n_facade=n_facade)
        s, gs, near = single_layer_field(sol.phi, xl)
    elif model == "asymptotic":
        s, gs = asymptotic_perturbation(AsymptoticModel.from_spec(spec, bg), xl)
        near, sol = signed_distance(spec, pts) < spec.delta * 0.1, None
    else:
        raise ValidationError(f"unknown forward model {model!r}, not one of {MODELS}")
    gs = gs @ rotation_matrix(spec.angle).T
    refuse_non_finite("u - H", pts, s, gs)
    return s, gs, near, sol


def refuse_non_finite(name: str, pts: NDArray, *columns: NDArray) -> None:
    """Raise ValidationError naming the first of the points (m, 2) at which
    a column, (m,) or (m, k), is not finite."""
    bad = ~np.isfinite(np.column_stack(columns)).all(axis=1)
    if bad.any():
        x1, x2 = pts[np.flatnonzero(bad)[0]].tolist()
        raise ValidationError(f"{name} is not finite at ({x1!r}, {x2!r})")


def eval_field(sol: ForwardSolution, x) -> tuple[NDArray, NDArray, NDArray]:
    """Total potential u = H + S[phi] (m,), its gradient (m, 2) and the near
    flags (m,) on world points (m, 2)."""
    x = as_points(x)
    s, g, near = single_layer_field(sol.phi, to_local(sol.spec, x))
    g = g @ rotation_matrix(sol.spec.angle).T
    return sol.background.value(x) + s, sol.background.grad(x) + g, near


def eval_u(sol: ForwardSolution, x) -> tuple[NDArray, NDArray]:
    """``(u, near)`` of :func:`eval_field`; perfbench's tracing.py and gen_refs.py name it."""
    u, _, near = eval_field(sol, x)
    return u, near


def eval_grad_u(sol: ForwardSolution, x) -> tuple[NDArray, NDArray]:
    """``(grad u, near)`` of :func:`eval_field`; perfbench's tracing.py and gen_refs.py name it."""
    _, g, near = eval_field(sol, x)
    return g, near


def transmission_check(sol: ForwardSolution, idx) -> dict:
    """Flux continuity report: exterior vs sigma0 * interior normal derivative.

    Normal derivatives are approximated at offset points x +- h*nu of the
    nodes ``idx``, with h five times the node's weight, avoiding
    on-boundary principal values.  A node whose h is not below the rod's thickness 2 delta is
    refused with ValidationError: its inner probe could leave the rod.
    """
    mesh, idx = sol.mesh, np.asarray(idx)
    h = 5.0 * mesh.weights[idx]
    wide = np.flatnonzero(h >= 2.0 * sol.spec.delta)
    if wide.size:
        raise ValidationError(f"node {idx[wide[0]]}: its probe step {h[wide[0]]:.3g} is not "
                              f"below the rod's thickness 2 delta = {2.0 * sol.spec.delta:.3g}")
    pts, nus = mesh.points[idx], mesh.normals[idx]
    bg = sol.background.in_frame(sol.spec)

    flux_out, flux_in = (
        np.einsum("ij,ij->i", bg.grad(x) + single_layer_field(sol.phi, x)[1], nus)
        for x in (pts + h[:, None] * nus, pts - h[:, None] * nus))

    scale = max(float(np.abs(flux_out).max()), float(np.abs(flux_in).max()), 1e-300)
    mismatch = np.abs(flux_out - sol.spec.sigma0 * flux_in) / scale
    return {"max_mismatch": float(mismatch.max()), "flux_out": flux_out, "flux_in": flux_in}


# ---------------------------------------------------------------------------
# Analytic disc oracle (independent of the Nystrom machinery)

def disc_exterior_u(a, radius: float, sigma0: float, x) -> NDArray:
    """Exact exterior potential for a disc at the origin in H = a.x.

    Separation of variables gives
    u = a.x - ((sigma0-1)/(sigma0+1)) * radius^2 * <a, x>/|x|^2.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    m = (sigma0 - 1.0) / (sigma0 + 1.0)
    return x @ a - m * radius**2 * (x @ a) / r2


def disc_interior_u(a, radius: float, sigma0: float, x) -> NDArray:
    """Exact interior potential: the uniform field 2/(sigma0+1) * a.x."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    return (2.0 / (sigma0 + 1.0)) * (x @ a)


def disc_exterior_grad(a, radius: float, sigma0: float, x) -> NDArray:
    """Gradient of :func:`disc_exterior_u` (dipole field differentiated)."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    m = (sigma0 - 1.0) / (sigma0 + 1.0)
    ax = x @ a
    dip = (a[..., :] * r2[..., None] - 2.0 * ax[..., None] * x) / (r2**2)[..., None]
    return a - m * radius**2 * dip

