"""Forward transmission solve: u = H + S[phi] with phi from the NP system.

Also carries the one choice of forward model (:func:`perturbation`), the
analytic disc solution (the only exact case, reached via L = 0), and
offset-point checks: flux transmission and trace-formula consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .asymptotics import AsymptoticModel, asymptotic_perturbation
from .background import HarmonicBackground
from .geometry import (BoundaryMesh, RodSpec, ValidationError, build_mesh,
                       lambda_of_sigma, mesh_counts, signed_distance)
from .potentials import (DensityVector, assemble_np, neumann_data, single_layer_field,
                         solve_density)

#: The smallest delta / L the BEM accepts.  Its two facade charge sheets,
#: 2 delta apart, cancel in S[phi], so a field of size delta comes out of
#: O(1) sums: the error floor is about 2.6e-17 L / delta of the field,
#: 2.6e-7 at this ratio, and it grows tenfold for each decade below.
DELTA_FLOOR = 1e-10


@dataclass(frozen=True)
class ForwardSolution:
    """Solved transmission problem for one rod and one background."""

    mesh: BoundaryMesh = field(repr=False)
    phi: DensityVector = field(repr=False)
    lam: float = 0.0
    background: HarmonicBackground = None

    @property
    def spec(self) -> RodSpec:
        return self.mesh.spec


def solve_forward(spec: RodSpec, bg: HarmonicBackground,
                  n_cap: int | None = None,
                  n_facade: int | None = None) -> ForwardSolution:
    """Compose mesh build, NP assembly and the density solve.

    The mesh is ``build_mesh(spec, n_cap, n_facade)``: counts left out
    take the default rule, which is graded for a thin rod.  A rod with
    delta < DELTA_FLOOR L, and a mesh whose dense system does not fit in
    memory (assembly holds four (n/4, n/4) blocks), are refused with
    ValidationError.
    """
    if spec.delta < DELTA_FLOOR * spec.L:
        raise ValidationError(f"delta={spec.delta!r} is below the BEM's floor "
                              f"{DELTA_FLOOR:g} L = {DELTA_FLOOR * spec.L!r}, under which its "
                              "error passes 2.6e-7 of the field")
    n = 2 * sum(mesh_counts(spec, n_cap, n_facade)[:2])
    lam = lambda_of_sigma(spec.sigma0)
    try:
        if 2 * n * n > np.iinfo(np.intp).max:   # bytes of the four (n/4)^2 blocks
            raise MemoryError
        mesh = build_mesh(spec, n_cap, n_facade)
        phi = solve_density(assemble_np(mesh), lam, neumann_data(mesh, bg))
    except MemoryError as exc:
        raise ValidationError(f"the dense system of n={n} nodes (delta="
                              f"{spec.delta!r}) does not fit in memory; raise delta "
                              "or lower solver.n_cap and n_facade") from exc
    return ForwardSolution(mesh=mesh, phi=phi, lam=lam, background=bg)


def perturbation(spec: RodSpec, bg: HarmonicBackground, pts, model: str = "bem",
                 n_cap: int | None = None, n_facade: int | None = None):
    """The perturbation s = u - H (m,) of ``model`` on points (m, 2), its
    gradient, the near flags and the BEM solution (None for the closed form).

    'bem' flags points off a panel by less than half its length; 'asymptotic'
    flags those within 0.1 delta of the rod, and refuses a disc, where it is
    exactly zero.  Both form s itself, never u - H, which cancels digits.
    A value that is not finite (r^2 overflows past about 1e154) is refused.
    """
    if model == "bem":
        sol = solve_forward(spec, bg, n_cap=n_cap, n_facade=n_facade)
        s, gs, near = single_layer_field(sol.mesh, sol.phi, pts)
    elif model == "asymptotic":
        if spec.L == 0.0:
            raise ValidationError("L = 0 (disc) has no rod asymptotic model")
        s, gs = asymptotic_perturbation(AsymptoticModel.from_spec(spec, bg), pts)
        near, sol = signed_distance(spec, pts) < spec.delta * 0.1, None
    else:
        raise ValueError(f"unknown forward model {model!r}")
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
    """Total potential u = H + S[phi], its gradient and the near flag."""
    x = np.asarray(x, dtype=float)
    s, g, near = single_layer_field(sol.mesh, sol.phi, x)
    return sol.background.value(x) + s, sol.background.grad(x) + g, near


def eval_u(sol: ForwardSolution, x) -> tuple[NDArray, NDArray]:
    """``(u, near)`` of :func:`eval_field`."""
    u, _, near = eval_field(sol, x)
    return u, near


def eval_grad_u(sol: ForwardSolution, x) -> tuple[NDArray, NDArray]:
    """``(grad u, near)`` of :func:`eval_field`."""
    _, g, near = eval_field(sol, x)
    return g, near


def transmission_check(sol: ForwardSolution, idx=None) -> dict:
    """Flux continuity report: exterior vs sigma0 * interior normal derivative.

    Normal derivatives are approximated at offset points x +- h*nu with
    h = 5 local spacings, avoiding on-boundary principal values.  The
    probes are the nodes ``idx``, or else 16 nodes spread evenly over the
    mesh.
    """
    mesh = sol.mesh
    if idx is None:
        idx = np.linspace(0, len(mesh) - 1, 16).round().astype(int)
    pts = mesh.points[idx]
    nus = mesh.normals[idx]
    h = 5.0 * mesh.weights[idx][:, None]

    g_out, _ = eval_grad_u(sol, pts + h * nus)
    g_in, _ = eval_grad_u(sol, pts - h * nus)
    flux_out = np.einsum("ij,ij->i", g_out, nus)
    flux_in = np.einsum("ij,ij->i", g_in, nus)

    sigma0 = sol.spec.sigma0
    scale = max(float(np.abs(flux_out).max()), float(np.abs(flux_in).max()), 1e-300)
    mismatch = np.abs(flux_out - sigma0 * flux_in) / scale
    return {
        "max_mismatch": float(mismatch.max()),
        "mismatch": mismatch,
        "flux_out": flux_out,
        "flux_in": flux_in,
        "probe_indices": idx,
        "scale": scale,
    }


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

