"""Single-layer potential and Neumann-Poincare operator on a boundary mesh.

Nystrom discretization with the bounded-kernel diagonal limit kappa/(4*pi).
A small diagonal correction enforces the exact discrete counterpart of the
column identity (the weighted integral of the kernel over the boundary is
1/2); the correction is a quadrature-error term of size O(h^2) and vanishes
identically on a disc, where the kernel is constant.

The stadium mesh maps onto itself under the rod-frame mirrors
R1: x1 -> -x1 and R2: x2 -> -x2, and the NP kernel is invariant under
isometries.  So the Nystrom matrix commutes with the group
{e, R1, R2, R1R2} and splits into four parity blocks of size n/4, one for
each pair of parities (p1, p2).  Assembly evaluates the kernel only on the
rows of one quarter arc, and the density solve runs four small LU solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .background import HarmonicBackground
from .geometry import BoundaryMesh, ValidationError, rotation_matrix, to_local, write_csv

#: evaluation points closer than this many local spacings to the boundary
#: get a proximity flag on the result.
NEAR_FACTOR = 2.0

#: byte budget of the scratch of field evaluation, three (chunk, n) float
#: arrays: memory is bounded by the chunk, not by the number of points.
FIELD_CHUNK_BYTES = 1 << 21

#: Character table of the mirror group.  Column g is the group element
#: (e, R1, R2, R1R2), row s the parity (p1, p2) in the order (+, +),
#: (-, +), (+, -), (-, -).  Element indices compose by XOR; the table is
#: symmetric and CHI @ CHI = 4 I.
CHI = np.array([[1.0, 1.0, 1.0, 1.0],
                [1.0, -1.0, 1.0, -1.0],
                [1.0, 1.0, -1.0, -1.0],
                [1.0, -1.0, -1.0, 1.0]])


class SolverError(RuntimeError):
    """Raised when the density system is singular or ill-conditioned."""


@dataclass(frozen=True)
class DensityVector:
    """Layer density sampled at the mesh nodes.

    ``residual`` is the relative residual ||(lam I - K) phi - b|| / ||b||
    of the solve that produced the density; None for data vectors.
    """

    values: NDArray
    mesh: BoundaryMesh = field(repr=False)
    residual: float | None = None

    def weighted_total(self) -> float:
        return float(np.dot(self.mesh.weights, self.values))


def _mirror_orbits(mesh: BoundaryMesh) -> NDArray:
    """Node indices of the quarter arc and of its three mirror images.

    Row g of the (4, n/4) result is g(q) for the elements (e, R1, R2,
    R1R2), where q is the quarter arc that starts at the middle of the
    right cap.  Nodes run counterclockwise, so each mirror reverses the
    index order: R1 is i -> (n_facade - 1 - i) mod n and R2 is
    i -> (2 n_facade + n_cap - 1 - i) mod n.
    """
    n, nc, nf = len(mesh), mesh.n_cap, mesh.n_facade
    if n != 2 * (nc + nf) or nc % 2 or nf % 2:
        raise ValidationError(
            f"mesh of {n} nodes does not match n_cap={nc}, n_facade={nf} "
            "on a mirror-symmetric stadium")
    q = np.arange(nf + nc // 2, nf + nc // 2 + n // 4) % n
    return np.stack([q, (nf - 1 - q) % n, (2 * nf + nc - 1 - q) % n,
                     (q + n // 2) % n])


def _check_mirror_symmetry(mesh: BoundaryMesh, orbits: NDArray) -> None:
    """Refuse a mesh whose nodes are not mirror images along each orbit."""
    spec = mesh.spec
    xl = to_local(spec, mesh.points)
    feat = np.column_stack([xl, mesh.normals @ rotation_matrix(spec.angle),
                            mesh.weights, mesh.curvatures])
    # x1 and nu1 have parity (-, +), x2 and nu2 (+, -), the scalars (+, +)
    flips = CHI[:, [1, 2, 1, 2, 0, 0]]
    gap = np.abs(feat[orbits] - flips[:, None, :] * feat[orbits[0]])
    # positions carry the rounding of the rigid motion, which grows with
    # the rod's length and its distance from the origin, not with delta
    scale = np.abs(feat).max(axis=0)
    scale[:2] = np.abs(xl).max() + np.abs(spec.center).max()
    scale[2:4] = 1.0
    if (gap > 1e-9 * scale).any():
        raise ValidationError(
            "mesh is not mirror-symmetric in the rod frame "
            f"(largest mismatch {gap.max():.2e})")


@dataclass(frozen=True)
class NpMatrix:
    """Nystrom matrix of the NP operator composed with weights, by parity block.

    The dense matrix is ``A[i, j] = k(x_i, x_j) * w_j`` with the NP kernel
    k(x, y) = <x - y, nu_x> / (2*pi*|x - y|^2) and diagonal kernel limit
    kappa/(4*pi) (plus the column-identity correction).  With
    ``A_g[a, b] = A[q_a, g(q_b)]`` on the quarter arc q, the parity blocks
    are ``blocks[s] = sum_g CHI[s, g] * A_g``.
    """

    blocks: NDArray                      # (4, n/4, n/4)
    orbits: NDArray = field(repr=False)  # (4, n/4), see _mirror_orbits
    mesh: BoundaryMesh = field(repr=False)
    diag_correction: NDArray = field(repr=False)

    @property
    def n(self) -> int:
        return self.orbits.size

    def split(self, values: NDArray) -> NDArray:
        """Parity parts (4, n/4) of a nodal vector, on the quarter arc."""
        return CHI @ values[self.orbits] / 4.0

    def join(self, parts: NDArray) -> NDArray:
        """Inverse of :meth:`split`."""
        out = np.empty(self.n)
        out[self.orbits] = CHI @ parts
        return out

    @property
    def matrix(self) -> NDArray:
        """Dense (n, n) matrix: ``A[h(q), g(q)] = A_{hg}``.  For tests."""
        parts = np.tensordot(CHI, self.blocks, axes=1) / 4.0
        dense = np.empty((self.n, self.n))
        for h in range(4):
            for g in range(4):
                dense[np.ix_(self.orbits[h], self.orbits[g])] = parts[h ^ g]
        return dense

    def apply(self, values: NDArray) -> NDArray:
        return self.join(np.einsum("sab,sb->sa", self.blocks, self.split(values)))

    def weighted_column_sums(self) -> NDArray:
        """Sum_i w_i k(x_i, x_j) for every column j; 1/2 in the continuum.

        Invariant along each orbit, and on the quarter arc equal to the
        weighted column sums of the sum of the four A_g.
        """
        wq = self.mesh.weights[self.orbits[0]]
        out = np.empty(self.n)
        out[self.orbits] = (wq @ self.blocks[0]) / wq
        return out

    def raw_weighted_column_sums(self) -> NDArray:
        """Column sums with the pure kappa/(4*pi) diagonal (no correction)."""
        return self.weighted_column_sums() - self.diag_correction * self.mesh.weights

    def eigenvalues(self) -> NDArray:
        """The union of the four block spectra."""
        return np.concatenate([np.linalg.eigvals(b) for b in self.blocks])


def assemble_np(mesh: BoundaryMesh) -> NpMatrix:
    """Assemble the parity blocks of the Nystrom NP matrix for ``mesh``.

    Raises ValidationError if the mesh is not mirror-symmetric.
    """
    orbits = _mirror_orbits(mesh)
    _check_mirror_symmetry(mesh, orbits)
    q = orbits[0]
    m = len(q)
    x1, x2 = mesh.points[q, 0, None], mesh.points[q, 1, None]
    nu1, nu2 = mesh.normals[q, 0, None], mesh.normals[q, 1, None]
    wq = mesh.weights[q]
    diag = np.arange(m)

    # rows on the quarter arc against the columns of each orbit: A_g.
    # The weights are equal along each orbit, so every A_g carries wq.
    parts = np.empty((4, m, m))
    d1, d2 = np.empty((m, m)), np.empty((m, m))
    for g, cols in enumerate(orbits):
        np.subtract(x1, mesh.points[cols, 0], out=d1)
        np.subtract(x2, mesh.points[cols, 1], out=d2)
        kern = parts[g]
        np.multiply(d1, nu1, out=kern)
        d1 *= d1
        d1 += np.square(d2)   # d1 now holds |x - y|^2
        d2 *= nu2
        kern += d2
        if g == 0:
            d1[diag, diag] = 1.0
        kern /= d1
        kern *= wq / (2.0 * np.pi)
        if g == 0:
            kern[diag, diag] = mesh.curvatures[q] * wq / (4.0 * np.pi)
    del d1, d2
    blocks = np.tensordot(CHI, parts, axes=1)
    del parts

    # diagonal entries lie in A_e alone, which enters every block with +1
    fix = 0.5 - (wq @ blocks[0]) / wq
    blocks[:, diag, diag] += fix
    diag_correction = np.empty(len(mesh))
    diag_correction[orbits] = fix / wq

    return NpMatrix(blocks=blocks, orbits=orbits, mesh=mesh,
                    diag_correction=diag_correction)


def neumann_data(mesh: BoundaryMesh, bg: HarmonicBackground) -> DensityVector:
    """Normal derivative of the background sampled at the mesh nodes."""
    g = bg.grad(mesh.points)
    return DensityVector(values=np.einsum("ij,ij->i", g, mesh.normals),
                         mesh=mesh)


def solve_density(np_matrix: NpMatrix, lam: float, rhs: DensityVector) -> DensityVector:
    """Solve ``(lam*I - K)[phi] = rhs`` for the nodal density.

    The contrast constant satisfies |lam| > 1/2 for any admissible
    conductivity, which keeps the system away from the NP spectrum.
    Each parity part of ``rhs`` is solved with its own block.
    """
    b = np_matrix.split(rhs.values)
    eye = np.eye(b.shape[1])
    phi = np.empty_like(b)
    r2 = 0.0
    for s, block in enumerate(np_matrix.blocks):
        try:
            lu = scipy.linalg.lu_factor(lam * eye - block, overwrite_a=True)
            phi[s] = scipy.linalg.lu_solve(lu, b[s])
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(f"density system is singular (lam={lam})") from exc
        r2 += float(np.sum((lam * phi[s] - block @ phi[s] - b[s]) ** 2))

    # ||r||^2 = 4 * sum_s ||r_s||^2 over the full vector; scale by the data
    # only: a near-singular system yields a huge phi whose backward error
    # looks tiny relative to phi itself
    scale = max(np.linalg.norm(rhs.values), 1e-300)
    residual = 2.0 * np.sqrt(r2) / scale
    if not np.isfinite(residual) or residual > 1e-10:
        cond = max(np.linalg.cond(lam * eye - block) for block in np_matrix.blocks)
        raise SolverError(
            f"density solve residual {residual:.2e} exceeds 1.0e-10 "
            f"(largest block condition estimate {cond:.2e}, lam={lam})")
    return DensityVector(values=np_matrix.join(phi), mesh=np_matrix.mesh,
                         residual=float(residual))


def _near_flags(mesh: BoundaryMesh, r2: NDArray) -> NDArray:
    """Rows of the squared distances ``r2`` (points, nodes) whose nearest
    node is closer than NEAR_FACTOR local spacings."""
    j = np.argmin(r2, axis=1)
    return np.sqrt(r2[np.arange(len(r2)), j]) < NEAR_FACTOR * mesh.weights[j]


def single_layer_field(mesh: BoundaryMesh, phi: DensityVector,
                       x) -> tuple[NDArray, NDArray, NDArray]:
    """Single-layer potential of ``phi``, its exact gradient and the near flag.

    ``near`` flags points closer to the boundary than NEAR_FACTOR local
    spacings, where midpoint quadrature degrades.  Each chunk of points
    forms d = x - y and r^2 = |d|^2 once, by direct subtraction (the GEMM
    expansion of r^2 cancels near the boundary).  Accepts a single point or
    an (m, 2) array; a point on a mesh node raises ValidationError.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    pw = phi.values * mesh.weights
    rows = max(1, FIELD_CHUNK_BYTES // (24 * len(mesh)))
    buf = np.empty((3, min(rows, len(pts)), len(mesh)))
    out = np.empty((len(pts), 3))   # 2 pi dS/dx1, 2 pi dS/dx2, 4 pi S
    near = np.empty(len(pts), dtype=bool)
    for s in range(0, len(pts), rows):
        p = pts[s:s + rows]
        scratch = d1, d2, r2 = buf[:, :len(p)]
        np.subtract(p[:, 0, None], mesh.points[:, 0], out=d1)
        np.subtract(p[:, 1, None], mesh.points[:, 1], out=d2)
        np.square(d1, out=r2)
        r2 += np.square(d2)
        hit = near[s:s + len(p)] = _near_flags(mesh, r2)
        if hit.any() and not r2[hit].all():
            i = s + np.flatnonzero(hit)[~r2[hit].all(axis=1)][0]
            raise ValidationError(f"evaluation point ({pts[i, 0]!r}, {pts[i, 1]!r}) "
                                  "lies on a mesh node, where the kernel is singular")
        scratch[:2] /= r2
        np.log(r2, out=r2)
        out[s:s + len(p)] = (scratch @ pw).T
    vals, grads = out[:, 2] / (4.0 * np.pi), out[:, :2] / (2.0 * np.pi)
    if np.ndim(x) == 1:
        return vals[0], grads[0], near[0]
    return vals, grads, near


def single_layer(mesh: BoundaryMesh, phi: DensityVector,
                 x) -> tuple[NDArray, NDArray]:
    """``(values, near)`` of :func:`single_layer_field`."""
    vals, _, near = single_layer_field(mesh, phi, x)
    return vals, near


def single_layer_grad(mesh: BoundaryMesh, phi: DensityVector,
                      x) -> tuple[NDArray, NDArray]:
    """``(grads, near)`` of :func:`single_layer_field`."""
    _, grads, near = single_layer_field(mesh, phi, x)
    return grads, near


def dump_density_csv(phi: DensityVector, path: str) -> None:
    mesh = phi.mesh
    write_csv(path, ["index", "x1", "x2", "phi"], np.arange(len(mesh)),
              mesh.points[:, 0], mesh.points[:, 1], phi.values)
