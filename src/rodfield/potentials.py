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
each pair of parities (p1, p2).  Assembly evaluates the kernel in the rod
frame, only on the rows of one quarter arc, and only where a cap node is
involved: facade pairs on one side are 0, and across the rod they are
the closed form's A_delta Lorentzian.  The Lorentzian is 2 delta wide,
narrower than a facade panel, so on the source panels next to a node's
twin it is integrated exactly against the panel's interpolant (product
quadrature, Helsing & Ojala 2008) instead of sampled at the nodes.  The
density solve factors a block only if the data has a part of its parity;
a linear background excites two of the four.

Outside the rod the field S[phi] is fixed by a few moments of the
density, so grids of many points far from the rod take S and grad S from
a multipole expansion about the node centroid (the far-field half of the
fast multipole method, Greengard & Rokhlin 1987) instead of a sum over
every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .background import HarmonicBackground
from .geometry import (GAUSS_NODES, PANEL_ORDER, BoundaryMesh, ValidationError,
                       rotation_matrix, to_local)

#: evaluation points closer than this many local spacings to the boundary
#: get a proximity flag on the result.
NEAR_FACTOR = 2.0

#: byte budget of the scratch of field evaluation, three (chunk, n) float
#: arrays: memory is bounded by the chunk, not by the number of points.
FIELD_CHUNK_BYTES = 1 << 21

#: Field points at least FAR_RATIO rho from the node centroid, rho the
#: largest node distance from it, may take the multipole expansion of
#: :func:`_multipole_field`, whose k-th term there is at most 2^-k of
#: sum_j |phi_j w_j| (over rho for the gradient): FAR_TERMS terms leave a
#: remainder below 2^-FAR_TERMS of that, and 48 already reached the
#: rounding of the direct sum.  The expansion has a fixed cost of about
#: 0.6 ms (its two loops of FAR_TERMS steps), the direct sum about 9 ns a
#: (point, node) pair, so it is used only where it replaces at least
#: FAR_MIN_PAIRS pairs, four times the break-even (one BLAS thread).
FAR_RATIO = 2.0
FAR_TERMS = 56
FAR_MIN_PAIRS = 1 << 18

#: A parity part of the data below this share of its norm is rounding of
#: the other parts, not data: for a linear background a.nu two of the four
#: parts are about 1e-16 of it.  Such a part is not solved (phi = 0); it
#: still enters the residual, which adds about this share to it, far
#: inside the 1e-10 gate.
SKIP_SHARE = 1e-13

#: Character table of the mirror group.  Column g is the group element
#: (e, R1, R2, R1R2), row s the parity (p1, p2) in the order (+, +),
#: (-, +), (+, -), (-, -).  Element indices compose by XOR; the table is
#: symmetric and CHI @ CHI = 4 I.
CHI = np.array([[1.0, 1.0, 1.0, 1.0],
                [1.0, -1.0, 1.0, -1.0],
                [1.0, 1.0, -1.0, -1.0],
                [1.0, -1.0, -1.0, 1.0]])


#: Facade panels within this many panels of a node's twin on the other side
#: take the product-quadrature weights of the Lorentzian.  Beyond, the
#: target is a panel length or more away, and the plain rule is off by
#: about 1e-11 of the panel's integral on a density constant over the
#: panel (3e-7 on its degree-7 Legendre mode); a reach of 2 gave the same
#: benchmark errors to 4 digits.
PRODUCT_REACH = 1

# The Lagrange basis on the panel's Gauss nodes: a moment vector
# m_k = int t^k f(t) dt over (-1, 1) gives the node weights m @ _VANDER_INV.
_VANDER_INV = np.linalg.inv(np.vander(GAUSS_NODES, increasing=True))
# The recurrence p_{k+1} = z p_k + c_k, c_k = int t^k dt, unrolled:
# p_k = z^k p_0 + sum_{j<k} z^j c_{k-1-j} = z^k p_0 + (z^j)_j @ _UNROLLED.
_UNROLLED = np.array([[(1 - (-1) ** (k - j)) / (k - j) if j < k else 0.0
                       for k in range(PANEL_ORDER)] for j in range(PANEL_ORDER)])
# Targets with |z| >= _FAR_Z take their Cauchy moments from a Gauss rule of
# three times the panel order, where the recurrence would amplify rounding
# by |z|^k: both agree with 30-digit quadrature to 1e-13.
_FAR_Z = 1.3
_FAR_NODES, _FAR_WEIGHTS = np.polynomial.legendre.leggauss(3 * PANEL_ORDER)
_FAR_POWERS = _FAR_WEIGHTS[:, None] * _FAR_NODES[:, None] ** np.arange(PANEL_ORDER)


def lorentzian_panel_weights(beta: float) -> NDArray:
    """Product-quadrature weights of the A_delta Lorentzian on equal panels.

    With panels of length h across a gap 2 delta, ``beta = 4 delta / h``.
    Entry [o + PRODUCT_REACH, i, j] is the integral of
    delta / (pi ((x - y)^2 + 4 delta^2)) against the Lagrange basis
    function of Gauss node j, over the panel o panels to the right of the
    one that holds x, where x sits at Gauss node i.  In panel coordinates
    that is Im(p_k(z)) / (2 pi) times the inverse Vandermonde, with the
    Cauchy moments p_k(z) = int t^k / (t - z) dt at z = t_i - 2 o + i beta
    (Helsing & Ojala 2008): p_0 = log(1 - z) - log(-1 - z) and
    p_{k+1} = z p_k + int t^k dt.
    """
    off = np.arange(-PRODUCT_REACH, PRODUCT_REACH + 1)
    z = (GAUSS_NODES - 2.0 * off[:, None] + 1j * beta)[..., None]
    zk = z ** np.arange(PANEL_ORDER)
    near = (np.log(1.0 - z) - np.log(-1.0 - z)) * zk + zk @ _UNROLLED
    far = (1.0 / (_FAR_NODES - z)) @ _FAR_POWERS
    p = np.where(np.abs(z) < _FAR_Z, near, far)
    return p.imag @ _VANDER_INV / (2.0 * np.pi)


def _facade_band(nf: int) -> tuple[NDArray, ...]:
    """Where the Lorentzian table goes in the orbit matrices.

    Facade nodes are counted by their bottom index k, 0..nf-1 in
    increasing x1, PANEL_ORDER to a panel.  Row a' of the quarter arc's
    facade part is the top node over bottom index nf-1-a'; the column of
    bottom index k is b' = nf-1-k in A_R2 for k >= nf/2 and b' = k in
    A_R1R2 otherwise, so a panel across x1 = 0 splits between the two.
    Returns the orbit, row and column in the facade part of each entry,
    and its row i and column (o + PRODUCT_REACH) * PANEL_ORDER + j in the
    table laid out as (PANEL_ORDER, (2 PRODUCT_REACH + 1) * PANEL_ORDER).
    """
    kr = np.arange(nf // 2, nf)[:, None]
    window = np.arange((2 * PRODUCT_REACH + 1) * PANEL_ORDER)
    kc = kr - kr % PANEL_ORDER - PRODUCT_REACH * PANEL_ORDER + window
    ok = (kc >= 0) & (kc < nf)
    kr, window = (np.broadcast_to(a, ok.shape)[ok] for a in (kr, window))
    kc = kc[ok]
    right = kc >= nf // 2
    return (np.where(right, 2, 3), nf - 1 - kr, np.where(right, nf - 1 - kc, kc),
            kr % PANEL_ORDER, window)


class SolverError(RuntimeError):
    """Raised when the density system is singular or ill-conditioned."""


@dataclass(frozen=True)
class DensityVector:
    """Layer density sampled at the mesh nodes.

    ``residual`` is the relative residual ||(lam I - K) phi - b|| / ||b||
    of the solve that produced the density and ``factored_blocks`` the
    number of parity blocks it factored; both None for data vectors.
    """

    values: NDArray
    mesh: BoundaryMesh = field(repr=False)
    residual: float | None = None
    factored_blocks: int | None = None

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


def _rod_frame(mesh: BoundaryMesh, orbits: NDArray) -> tuple[NDArray, NDArray]:
    """Rod-frame positions and normals of the mesh nodes.

    Refuses a mesh whose nodes are not mirror images along each orbit, or
    whose facade nodes on the quarter arc are off the side x2 = delta.
    """
    spec = mesh.spec
    xl = to_local(spec, mesh.points)
    nl = mesh.normals @ rotation_matrix(spec.angle)
    feat = np.column_stack([xl, nl, mesh.weights, mesh.curvatures])
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
    # assembly writes the facade pairs from x2 = +-delta and nu = (0, +-1)
    side = feat[orbits[0, mesh.n_cap // 2:], 1:4] - [spec.delta, 0.0, 1.0]
    if (np.abs(side) > 1e-9 * scale[1:4]).any():
        raise ValidationError(
            f"facade nodes are off the rod's sides x2 = +-{spec.delta!r} "
            f"(largest mismatch {np.abs(side).max():.2e})")
    return xl, nl


def _np_kernel(x: NDArray, nu: NDArray, y: NDArray, w: NDArray) -> NDArray:
    """k(x_a, y_b) * w_b for rows x, nu (r, 2) and columns y (..., c, 2).

    A pair with x = y gives NaN; the caller writes the diagonal.
    """
    d1 = x[:, 0, None] - y[..., None, :, 0]
    d2 = x[:, 1, None] - y[..., None, :, 1]
    with np.errstate(invalid="ignore"):
        return ((d1 * nu[:, 0, None] + d2 * nu[:, 1, None])
                / (d1 * d1 + d2 * d2) * (w / (2.0 * np.pi)))


@dataclass(frozen=True)
class NpMatrix:
    """Nystrom matrix of the NP operator composed with weights, by mirror orbit.

    The dense matrix is ``A[i, j] = k(x_i, x_j) * w_j`` with the NP kernel
    k(x, y) = <x - y, nu_x> / (2*pi*|x - y|^2) and diagonal kernel limit
    kappa/(4*pi) (plus the column-identity correction).  It is kept as the
    four orbit matrices ``A_g[a, b] = A[q_a, g(q_b)]`` on the quarter arc
    q, which give every entry: ``A[h(q), g(q)] = A_{hg}``.  The parity
    block s, ``sum_g CHI[s, g] * A_g``, is formed only where it is needed.
    """

    orbit_matrices: NDArray              # (4, n/4, n/4): A_e, A_R1, A_R2, A_R1R2
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

    def block(self, s: int) -> NDArray:
        """Parity block s, ``sum_g CHI[s, g] * A_g``."""
        return np.tensordot(CHI[s], self.orbit_matrices, axes=1)

    def apply_blocks(self, parts: NDArray) -> NDArray:
        """Each parity block applied to its own part: (4, n/4) -> (4, n/4)."""
        return np.einsum("sg,gas->sa", CHI, self.orbit_matrices @ parts.T)

    @property
    def matrix(self) -> NDArray:
        """Dense (n, n) matrix: ``A[h(q), g(q)] = A_{hg}``.  For tests."""
        dense = np.empty((self.n, self.n))
        for h in range(4):
            for g in range(4):
                dense[np.ix_(self.orbits[h], self.orbits[g])] = self.orbit_matrices[h ^ g]
        return dense

    def apply(self, values: NDArray) -> NDArray:
        return self.join(self.apply_blocks(self.split(values)))

    def weighted_column_sums(self) -> NDArray:
        """Sum_i w_i k(x_i, x_j) for every column j; 1/2 in the continuum.

        Invariant along each orbit, and on the quarter arc equal to the
        weighted column sums of the sum of the four A_g.
        """
        wq = self.mesh.weights[self.orbits[0]]
        out = np.empty(self.n)
        out[self.orbits] = (wq @ self.orbit_matrices).sum(axis=0) / wq
        return out

    def raw_weighted_column_sums(self) -> NDArray:
        """Column sums with the pure kappa/(4*pi) diagonal (no correction)."""
        return self.weighted_column_sums() - self.diag_correction * self.mesh.weights

    def eigenvalues(self) -> NDArray:
        """The union of the four block spectra."""
        return np.concatenate([np.linalg.eigvals(self.block(s)) for s in range(4)])


def assemble_np(mesh: BoundaryMesh) -> NpMatrix:
    """Assemble the orbit matrices of the Nystrom NP matrix for ``mesh``.

    The kernel is evaluated in the rod frame.  The quarter arc q holds
    n_cap/2 cap nodes and then n_facade/2 nodes of the top side, and so
    does each of its images.  Entries with a cap node on either end take
    the general kernel.  Facade pairs follow from the straight sides:
    on one side (x - y).nu_x = 0, so the pair is 0, and across the rod
    x2 - y2 = 2 delta gives the Lorentzian delta / (pi (t^2 + 4 delta^2))
    with t = x1 - y1, the kernel of the closed form's A_delta.  Source
    panels within PRODUCT_REACH panels of the row's twin panel take the
    weights of :func:`lorentzian_panel_weights`, written in one scatter;
    the others take the Lorentzian at the nodes times the Gauss weight.

    Raises ValidationError if the mesh is not mirror-symmetric or its
    facade nodes are off the sides x2 = +-delta.
    """
    orbits = _mirror_orbits(mesh)
    xl, nl = _rod_frame(mesh, orbits)
    q, mc = orbits[0], mesh.n_cap // 2
    m = len(q)
    wq = mesh.weights[q]
    diag = np.arange(m)

    # rows on the quarter arc against the columns of each orbit: A_g.
    # The weights are equal along each orbit, so every A_g carries wq.
    mats = np.zeros((4, m, m))
    mats[:, :mc] = _np_kernel(xl[q[:mc]], nl[q[:mc]], xl[orbits], wq)
    mats[:, mc:, :mc] = _np_kernel(xl[q[mc:]], nl[q[mc:]], xl[orbits[:, :mc]], wq[:mc])
    delta, nf = mesh.spec.delta, mesh.n_facade
    for g in (2, 3):   # the columns of R2 and R1R2 lie on the bottom side
        ff = mats[g, mc:, mc:]
        np.subtract(xl[q[mc:], 0, None], xl[orbits[g, mc:], 0], out=ff)
        ff *= ff
        ff += 4.0 * delta * delta
        np.divide(wq[mc:] * (delta / np.pi), ff, out=ff)
    if nf:
        h = mesh.spec.L / (nf // PANEL_ORDER)
        table = lorentzian_panel_weights(4.0 * delta / h)
        g, a, b, i, w = _facade_band(nf)
        mats[g, mc + a, mc + b] = table.transpose(1, 0, 2).reshape(PANEL_ORDER, -1)[i, w]
    mats[0, diag, diag] = mesh.curvatures[q] * wq / (4.0 * np.pi)

    # diagonal entries lie in A_e alone, which enters every block with +1
    fix = 0.5 - (wq @ mats).sum(axis=0) / wq
    mats[0, diag, diag] += fix
    diag_correction = np.empty(len(mesh))
    diag_correction[orbits] = fix / wq

    return NpMatrix(orbit_matrices=mats, orbits=orbits, mesh=mesh,
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
    Each parity part of ``rhs`` is solved with its own block; a part below
    SKIP_SHARE of the data gets phi = 0 and its block is not factored.
    """
    b = np_matrix.split(rhs.values)
    norms = np.linalg.norm(b, axis=1)
    live = np.flatnonzero(norms > SKIP_SHARE * np.linalg.norm(norms))
    phi = np.zeros_like(b)
    m = b.shape[1]
    diag = np.arange(m)
    # lam I - block is built in one C-ordered buffer; its transpose is
    # Fortran-ordered, so LAPACK factors it in place and lu_solve solves
    # the transposed system (trans=1)
    system = np.empty((m, m))
    for s in live:
        np.negative(np_matrix.orbit_matrices[0], out=system)
        for g in (1, 2, 3):
            (np.subtract if CHI[s, g] > 0 else np.add)(
                system, np_matrix.orbit_matrices[g], out=system)
        system[diag, diag] += lam
        try:
            lu = scipy.linalg.lu_factor(system.T, overwrite_a=True, check_finite=False)
            phi[s] = scipy.linalg.lu_solve(lu, b[s], trans=1, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(f"density system is singular (lam={lam})") from exc

    # ||r||^2 = 4 * sum_s ||r_s||^2 over the full vector, skipped parts
    # included (r_s = -b_s); scale by the data only: a near-singular
    # system yields a huge phi whose backward error looks tiny relative to
    # phi itself
    r = lam * phi - np_matrix.apply_blocks(phi) - b
    scale = max(np.linalg.norm(rhs.values), 1e-300)
    residual = 2.0 * np.linalg.norm(r) / scale
    if not np.isfinite(residual) or residual > 1e-10:
        blocks = lam * np.eye(m) - np.tensordot(CHI, np_matrix.orbit_matrices, axes=1)
        if not np.isfinite(blocks).all():
            raise SolverError(f"density system has non-finite entries (lam={lam})")
        raise SolverError(
            f"density solve residual {residual:.2e} exceeds 1.0e-10 "
            f"(largest block condition estimate {np.linalg.cond(blocks).max():.2e}, "
            f"lam={lam})")
    return DensityVector(values=np_matrix.join(phi), mesh=np_matrix.mesh,
                         residual=float(residual), factored_blocks=len(live))


def _near_flags(mesh: BoundaryMesh, r2: NDArray) -> NDArray:
    """Rows of the squared distances ``r2`` (points, nodes) whose nearest
    node is closer than NEAR_FACTOR local spacings."""
    j = np.argmin(r2, axis=1)
    return np.sqrt(r2[np.arange(len(r2)), j]) < NEAR_FACTOR * mesh.weights[j]


def _direct_field(mesh: BoundaryMesh, pw: NDArray,
                  pts: NDArray) -> tuple[NDArray, NDArray]:
    """Rows (2 pi dS/dx1, 2 pi dS/dx2, 4 pi S) and near flags of ``pts`` (m, 2)
    by the direct sum over every node, chunked to FIELD_CHUNK_BYTES."""
    rows = max(1, FIELD_CHUNK_BYTES // (24 * len(mesh)))
    buf = np.empty((3, min(rows, len(pts)), len(mesh)))
    out = np.empty((len(pts), 3))
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
        # einsum sums each row on its own, so a point's value does not
        # depend on the points that share its chunk (a BLAS gemv sums the
        # rows at its block edges in another order)
        out[s:s + len(p)] = np.einsum("krn,n->rk", scratch, pw)
    return out, near


def _multipole_field(mesh: BoundaryMesh, pw: NDArray, pts: NDArray,
                     c: NDArray, rho: float) -> NDArray:
    """Rows of :func:`_direct_field` at points at least FAR_RATIO rho from c.

    In complex notation 4 pi S = 2 Re F with F(z) = sum_j q_j log(z - y_j)
    and q_j = phi_j w_j, and 2 pi grad S = (Re F', -Im F').  With
    u = rho / (z - c), t_j = (y_j - c) / rho and the moments
    a_k = sum_j q_j t_j^k, F = a_0 log(z - c) - sum_k a_k u^k / k and
    rho F' = sum_k a_k u^(k+1), both summed by Horner's rule in u.
    """
    t = (mesh.points[:, 0] - c[0] + 1j * (mesh.points[:, 1] - c[1])) / rho
    moments = np.empty(FAR_TERMS + 1, dtype=complex)
    qt = pw.astype(complex)
    for k in range(FAR_TERMS + 1):
        moments[k] = qt.sum()
        qt *= t
    # column 0 sums rho F', column 1 the series of F
    coef = np.zeros((FAR_TERMS + 1, 2), dtype=complex)
    coef[:, 0] = moments
    coef[:-1, 1] = moments[1:] / np.arange(1, FAR_TERMS + 1)
    d = pts - c
    u = rho / (d[:, 0] + 1j * d[:, 1])
    acc = np.empty((2, len(u)), dtype=complex)
    acc[:] = coef[-1, :, None]
    for ck in coef[-2::-1]:
        acc *= u
        acc += ck[:, None]
    acc *= u
    out = np.empty((len(pts), 3))
    out[:, 0] = acc[0].real / rho
    out[:, 1] = -acc[0].imag / rho
    out[:, 2] = moments[0].real * np.log(np.square(d).sum(axis=1)) - 2.0 * acc[1].real
    return out


def single_layer_field(mesh: BoundaryMesh, phi: DensityVector,
                       x) -> tuple[NDArray, NDArray, NDArray]:
    """Single-layer potential of ``phi``, its exact gradient and the near flag.

    ``near`` flags points closer to the boundary than NEAR_FACTOR local
    spacings, where the composite Gauss-Legendre rule degrades.

    Points at least FAR_RATIO rho from the node centroid c, rho the
    largest node distance from c, take S and grad S from a multipole
    expansion about c (:func:`_multipole_field`) when together they
    replace at least FAR_MIN_PAIRS (point, node) pairs of the direct sum,
    and when rho >= NEAR_FACTOR max w: such a point is at least rho from
    every node, so none of them can be flagged.  Its truncation is below
    2^-FAR_TERMS of the sum of |phi_j w_j|; on the ``fieldmap`` benchmark
    grid it agreed with a long-double direct sum to 8e-16 of the largest
    |S| and |grad S| there, where the direct sum in double is off by up
    to 1.3e-14.  Every other point takes the direct sum: each chunk of
    points forms d = x - y and r^2 = |d|^2 once, by direct subtraction
    (the GEMM expansion of r^2 cancels near the boundary).
    Accepts a single point or an (m, 2) array; a point on a mesh node
    raises ValidationError.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    pw = phi.values * mesh.weights
    far = None
    if len(pts) * len(mesh) >= FAR_MIN_PAIRS:
        c = mesh.points.mean(axis=0)
        rho = float(np.sqrt(np.square(mesh.points - c).sum(axis=1).max()))
        # a far point is at least rho from every node
        if rho >= NEAR_FACTOR * mesh.weights.max():
            far = np.square(pts - c).sum(axis=1) >= (FAR_RATIO * rho) ** 2
            if np.count_nonzero(far) * len(mesh) < FAR_MIN_PAIRS:
                far = None
    if far is None:
        out, near = _direct_field(mesh, pw, pts)
    else:
        out = np.empty((len(pts), 3))   # 2 pi dS/dx1, 2 pi dS/dx2, 4 pi S
        near = np.zeros(len(pts), dtype=bool)
        out[far] = _multipole_field(mesh, pw, pts[far], c, rho)
        out[~far], near[~far] = _direct_field(mesh, pw, pts[~far])
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

