"""Single-layer potential and Neumann-Poincare operator on a boundary mesh.

Nystrom discretization with the bounded-kernel diagonal limit kappa/(4*pi).
A small correction enforces the exact discrete counterpart of the column
identity (the weighted integral of the kernel over the boundary is 1/2):
on the diagonal for a uniform mesh, and as a rank-one term on the even
parity block for a graded one, whose junction panels are far shorter
than the rest.  It is a quadrature-error term and vanishes identically on
a disc, where the kernel is constant.

The stadium mesh maps onto itself under the rod-frame mirrors
R1: x1 -> -x1 and R2: x2 -> -x2, and the NP kernel is invariant under
isometries.  So the Nystrom matrix commutes with the group
{e, R1, R2, R1R2} and splits into four parity blocks of size n/4, one for
each pair of parities (p1, p2), and only these are stored.  Assembly
evaluates the kernel in the rod frame on the rows of one quarter arc: its
nodes' mirror images are the sign flips of their coordinates, so one pass
over chunks of rows, with scratch bounded by NP_CHUNK_BYTES, forms the
differences once for all four orbit matrices and writes every entry, and
two butterflies turn those into the blocks in place.
On a top-side row the kernel's arithmetic is the closed form's: 0 against
its own side, and across the rod the node rule of the A_delta Lorentzian.
The Lorentzian is 2 delta wide, narrower than a long facade panel, so on
the source panels near a row that entry alone is overwritten: the
Lorentzian integrated exactly against the panel's interpolant (product
quadrature, Helsing & Ojala 2008) by :func:`lorentzian_weights`, which
``asymptotics.a_delta_apply`` also uses for A_delta; farther panels keep
the node rule, within 5e-12 of an entry there.  One routine serves equal
and graded panels.  The density solve factors a block only if the data
has a part of its parity; a linear background excites two of the four.

Outside the rod the field S[phi] is fixed by a few moments of the
density, so grids of many points far from the rod take S and grad S from
an expansion in the rod frame's Joukowski variable w (the far-field half
of the fast multipole method, Greengard & Rokhlin 1987, on the ellipses
|w| = const, confocal with the rod) instead of a sum over every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .background import HarmonicBackground
from .geometry import GAUSS_NODES, PANEL_ORDER, BoundaryMesh, ValidationError, as_points

#: An evaluation point closer to any node than this many times that node's
#: panel length gets a proximity flag on the result: off a panel by less
#: than half its length, the panel's Gauss rule degrades, even where the
#: nearest node sits on a shorter panel.
NEAR_FACTOR = 0.5

#: byte budget of the scratch of field evaluation, three (chunk, n) float
#: arrays: memory is bounded by the chunk, not by the number of points.
FIELD_CHUNK_BYTES = 1 << 21

#: byte budget of the scratch of one row chunk of each NP assembly pass:
#: :func:`_orbit_kernel`, :func:`_near_cross_panels` and the butterflies.
NP_CHUNK_BYTES = 1 << 19

#: Field points with |w| >= FAR_RATIO R, w of :func:`_joukowski` and R the
#: largest |w_j| of a node, may take the expansion of :func:`_multipole_field`,
#: whose k-th term there is at most 2^(1-k) of sum_j |q_j|, q_j the density
#: times the node weight (over |w| for dF/dw): FAR_TERMS terms leave a
#: remainder below 2^(1-FAR_TERMS) of that, and 48 already reached the
#: rounding of the direct sum.  Its fixed cost is about 0.25 ms at n = 272
#: and 0.33 ms at n = 768 and 800 (two loops of FAR_TERMS steps), and it
#: then takes 0.27 us a point, the direct sum 8.5 ns a (point, node) pair:
#: it breaks even at about 32,000 pairs at n = 272 and 38,000 at n = 768
#: and 800, and is used only where it replaces at least FAR_MIN_PAIRS
#: pairs, seven to eight times that.
FAR_RATIO = 2.0
FAR_TERMS = 56
FAR_MIN_PAIRS = 1 << 18

#: A parity part of the data below this share of its norm is rounding of
#: the other parts, not data: for a linear background a.nu two of the four
#: parts are about 1e-16 of it.  Such a part is not solved (phi = 0); it
#: still enters the residual, which adds about this share to it, far
#: inside SOLVE_RESIDUAL_TOL.
SKIP_SHARE = 1e-13

#: A density solve whose residual, relative to the data, passes this is refused.
SOLVE_RESIDUAL_TOL = 1e-10

#: Character table of the mirror group.  Column g is the group element
#: (e, R1, R2, R1R2), row s the parity (p1, p2) in the order (+, +),
#: (-, +), (+, -), (-, -).  Element indices compose by XOR; the table is
#: symmetric and CHI @ CHI = 4 I.
CHI = np.array([[1.0, 1.0, 1.0, 1.0],
                [1.0, -1.0, 1.0, -1.0],
                [1.0, 1.0, -1.0, -1.0],
                [1.0, -1.0, -1.0, 1.0]])


# The Lagrange basis on the panel's Gauss nodes: a moment vector
# m_k = int t^k f(t) dt over (-1, 1) gives the node weights m @ _VANDER_INV.
_VANDER_INV = np.linalg.inv(np.vander(GAUSS_NODES, increasing=True))
# The recurrence p_{k+1} = z p_k + c_k, c_k = int t^k dt, unrolled:
# p_k = z^k p_0 + sum_{j<k} z^j c_{k-1-j} = z^k p_0 + (z^j)_j @ _UNROLLED.
_UNROLLED = np.array([[(1 - (-1) ** (k - j)) / (k - j) if j < k else 0.0
                       for k in range(PANEL_ORDER)] for j in range(PANEL_ORDER)])
# Targets with |z| >= _FAR_Z take their weights from a Gauss rule of three
# times the panel order against the Lagrange basis at its nodes, where the
# recurrence would amplify rounding by |z|^k: both agree with 30-digit
# quadrature to 1e-13.
_FAR_Z = 1.3
_FAR_NODES, _FAR_WEIGHTS = np.polynomial.legendre.leggauss(3 * PANEL_ORDER)
_FAR_BASIS = (_FAR_WEIGHTS[:, None] * _FAR_NODES[:, None] ** np.arange(PANEL_ORDER)
              @ _VANDER_INV / (2.0 * np.pi))


def lorentzian_weights(z) -> NDArray:
    """Product-quadrature weights (..., PANEL_ORDER) of the Lorentzian
    beta / (2 pi ((t - s)^2 + beta^2)) against the Lagrange basis of the
    Gauss nodes of the panel (-1, 1), for a complex array z = s + i beta, beta > 0.

    That is Im(p_k(z)) / (2 pi) times the inverse Vandermonde, with the
    Cauchy moments p_k(z) = int t^k / (t - z) dt (Helsing & Ojala 2008):
    p_0 = log(1 - z) - log(-1 - z), p_{k+1} = z p_k + int t^k dt; far from
    the panel, the Lorentzian against the basis by a Gauss rule.  Both agree
    with 30-digit mpmath to 9.4e-15 at |s| < 4, 1e-8 < beta < 10, which at
    1 < |s| < 1.3, beta = 1.3e-8 is up to 1.2e-6 of a row's largest entry.
    Each target takes its own vector-matrix products, v[:, None] @ M: BLAS
    sums a lone row and a block of rows in different orders, and a
    target's weights must not depend on the targets that share its call.
    """
    near = np.abs(z) < _FAR_Z
    out = np.empty(z.shape + (PANEL_ORDER,))
    zn = z[near, None]
    zk = zn ** np.arange(PANEL_ORDER)
    p = ((np.log(1.0 - zn) - np.log(-1.0 - zn)) * zk).imag + (zk.imag[:, None] @ _UNROLLED)[:, 0]
    out[near] = (p[:, None] @ _VANDER_INV)[:, 0] / (2.0 * np.pi)
    zf = z[~near, None]
    t = np.square(_FAR_NODES - zf.real)
    t += zf.imag * zf.imag   # in place: a new broadcast sum took 0.2 ms more at n = 2064
    out[~near] = (np.divide(zf.imag, t, out=t)[:, None] @ _FAR_BASIS)[:, 0]
    return out


class SolverError(RuntimeError):
    """Raised where an admissible input gives no trustworthy answer: a
    singular or ill-conditioned density system, or data that cannot
    constrain the fitted rod.  The CLI exits 1 on it, and 2 on a
    ``ValidationError``, which refuses the input itself."""


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


def _orbit_kernel(mats: NDArray, x: NDArray, nu: NDArray, w: NDArray) -> None:
    """Write every entry of the orbit matrices ``mats`` (4, m, m) with the
    NP kernel, from the quarter arc's nodes x (m, 2), normals nu (m, 2) and
    weights w (m,) in the rod frame.

    The image g = 2 j2 + j1 (e, R1, R2, R1R2) of a node y is
    (flips[0, j1], flips[1, j2]), where flips[i, j] is y_i for j = 0 and
    -y_i for j = 1.  Each chunk of rows a forms d = x_a - g(y_b) from
    x_i - flips[i, j], and r^2 = |d|^2 from their squares, once for all
    four images.  The scratch is twelve (chunk, m) float arrays,
    NP_CHUNK_BYTES in all.  A pair with x_a = g(y_b) gives NaN; the caller
    writes the diagonal.  A top-side row has x2 = delta and nu = (0, 1):
    against its own side x2 - y2 = 0 gives exactly 0, and across the rod
    x2 - y2 = 2 delta gives the node rule of the A_delta Lorentzian.
    """
    m = len(x)
    rows = max(1, NP_CHUNK_BYTES // (96 * m))
    buf = np.empty((12, min(rows, m), m))
    flips = np.stack([x.T, -x.T], axis=1)
    w = w / (2.0 * np.pi)
    with np.errstate(invalid="ignore"):
        for s in range(0, m, rows):
            xs, ns = x[s:s + rows].T, nu[s:s + rows].T
            k = xs.shape[1]
            d, sq, den = buf[:, :k].reshape(3, 2, 2, k, m)
            np.subtract(xs[:, None, :, None], flips[:, :, None, :], out=d)
            np.square(d, out=sq)
            np.add(sq[1, :, None], sq[0], out=den)
            d *= np.multiply(ns[:, :, None], w, out=sq[:, 0])[:, None]
            num = np.add(d[1, :, None], d[0], out=sq)
            np.divide(num, den, out=mats[:, s:s + k].reshape(num.shape))


#: A source panel whose target z, in the panel's coordinates, has |z| at
#: least this keeps the node rule across the rod; a nearer one takes
#: :func:`lorentzian_weights`.  The node rule's weights are off by 2e-10
#: of themselves at |z| = 8, 3e-11 at 10 and 5e-12 at 12: at 8 the column
#: sums of a uniform mesh with panels 4 delta long moved its diagonal
#: correction by 2e-13, four times what a dense assembly allows.
CROSS_NEAR_Z = 12.0


def _near_cross_panels(mats: NDArray, x: NDArray, h: NDArray, mc: int, delta: float) -> None:
    """Overwrite the node rule across the rod where it is too coarse.  x
    (m, 2) is the quarter arc, its first mc nodes on the cap, and h (m - mc,)
    the panel lengths of its top-side nodes, x1 falling from the right
    junction to the middle.

    A top row's entries across the rod are the A_delta kernel
    delta / (pi (t^2 + 4 delta^2)), t the difference in x1, 2 delta wide.
    The row takes the whole bottom side, left to right, in a row buffer:
    its row of A_R1R2, then that of A_R2, reversed.  Each source panel
    (length h, centre c) whose target z = 2 (x1 - c) / h + 4 i delta / h
    has |z| < CROSS_NEAR_Z takes the product weights of
    :func:`lorentzian_weights` against its interpolant; farther out the
    Gauss rule is off by 5e-12 of an entry at most.  The buffers take
    NP_CHUNK_BYTES // 256 (row, panel) pairs at a time, 2,048 at the
    default budget: a pair holds PANEL_ORDER floats of the row buffer, its
    z and, where it is near, the temporaries of lorentzian_weights.
    """
    k, top = len(h), x[mc:, 0]
    # The Gauss nodes are symmetric, so a panel's end nodes give its centre
    panels = np.concatenate([-top, top[::-1]]).reshape(-1, PANEL_ORDER)
    centre = (panels[:, 0] + panels[:, -1]) / 2.0
    length = np.concatenate([h, h[::-1]])[::PANEL_ORDER]
    rows = max(1, NP_CHUNK_BYTES // (256 * len(centre)))
    buf = np.empty((min(rows, k), 2 * k))
    for s in range(0, k, rows):
        xr = top[s:s + rows, None]
        band = slice(mc + s, mc + s + len(xr))
        line = buf[:len(xr)]
        line[:, :k] = mats[3, band, mc:]
        line[:, k:] = mats[2, band, mc:][:, ::-1]
        z = (2.0 * (xr - centre) + 4j * delta) / length
        near = np.abs(z) < CROSS_NEAR_Z
        line.reshape(len(xr), -1, PANEL_ORDER)[near] = lorentzian_weights(z[near])
        mats[3, band, mc:] = line[:, :k]
        mats[2, band, mc:] = line[:, k:][:, ::-1]


@dataclass(frozen=True)
class NpMatrix:
    """Nystrom matrix of the NP operator composed with weights, by parity block.

    The dense matrix is ``A[i, j] = k(x_i, x_j) * w_j`` with the NP kernel
    k(x, y) = <x - y, nu_x> / (2*pi*|x - y|^2) and diagonal kernel limit
    kappa/(4*pi), plus the column-identity correction of
    :func:`assemble_np`: ``correction[j] * w_j`` is the deficit of column
    j's weighted sum that it made up, on the diagonal entry (uniform mesh)
    or spread over the column (graded).  The orbit matrices
    ``A_g[a, b] = A[q_a, g(q_b)]`` on the quarter arc q of ``mesh.orbits``
    give every entry, ``A[h(q), g(q)] = A_{hg}``; it is kept as the parity
    blocks ``B_s = sum_g chi_s(g) A_g``, chi_s the characters of the mirror
    group, which act on the parity parts of :meth:`split`.
    """

    blocks: NDArray   # (4, n/4, n/4): B_s for the parities (+, +), (-, +), (+, -), (-, -)
    mesh: BoundaryMesh = field(repr=False)
    correction: NDArray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.mesh)

    def split(self, values: NDArray) -> NDArray:
        """Parity parts (4, n/4) of a nodal vector, on the quarter arc."""
        return CHI @ values[self.mesh.orbits] / 4.0

    def join(self, parts: NDArray) -> NDArray:
        """Inverse of :meth:`split`."""
        out = np.empty(self.n)
        out[self.mesh.orbits] = CHI @ parts
        return out

    @property
    def matrix(self) -> NDArray:
        """Dense (n, n) matrix, :meth:`apply` on the unit vectors.  For tests."""
        return np.stack([self.apply(e) for e in np.eye(self.n)], axis=1)

    def apply(self, values: NDArray) -> NDArray:
        """The dense matrix times ``values``, each parity part by its block."""
        return self.join((self.blocks @ self.split(values)[:, :, None])[:, :, 0])

    def weighted_column_sums(self) -> NDArray:
        """Sum_i w_i k(x_i, x_j) for every column j; 1/2 in the continuum.

        Invariant along each orbit, and on the quarter arc equal to the
        weighted column sums of the (+, +) block, the sum of the four A_g.
        """
        wq = self.mesh.weights[self.mesh.orbits[0]]
        out = np.empty(self.n)
        out[self.mesh.orbits] = wq @ self.blocks[0] / wq
        return out

    def raw_weighted_column_sums(self) -> NDArray:
        """Column sums with the pure kappa/(4*pi) diagonal (no correction)."""
        return self.weighted_column_sums() - self.correction * self.mesh.weights

    def eigenvalues(self) -> NDArray:
        """The union of the four block spectra."""
        return np.linalg.eigvals(self.blocks).ravel()


def _orbit_matrices(mesh: BoundaryMesh) -> NDArray:
    """The orbit matrices (4, n/4, n/4) of ``mesh``, before the correction.

    The mesh is in the rod frame, so the matrices do not depend on where
    the rod is placed.  The quarter arc q holds n_cap/2 cap nodes and then
    n_facade/2 nodes of the top side, and so does each of its images, the
    exact sign flips of its coordinates.  :func:`_orbit_kernel` writes
    every entry with the general kernel, which on the straight sides is
    the closed form: 0 against the same side, and across the rod, with
    x2 - y2 = 2 delta, the node rule of the Lorentzian
    delta / (pi (t^2 + 4 delta^2)), t = x1 - y1, of the closed form's
    A_delta.  :func:`_near_cross_panels` then overwrites that node rule
    on the source panels near each top row by product weights, and the
    diagonal, which lies in A_e alone, takes kappa/(4*pi).  The weights
    are equal along each orbit, so every A_g carries wq.
    """
    q, mc = mesh.orbits[0], mesh.n_cap // 2
    xq, wq = mesh.points[q], mesh.weights[q]
    mats = np.empty((4, len(q), len(q)))
    _orbit_kernel(mats, xq, mesh.normals[q], wq)
    if mesh.n_facade:
        _near_cross_panels(mats, xq, mesh.panel_lengths[q[mc:]], mc, mesh.spec.delta)
    mats[0, np.arange(len(q)), np.arange(len(q))] = mesh.curvatures[q] * wq / (4.0 * np.pi)
    return mats


def assemble_np(mesh: BoundaryMesh) -> NpMatrix:
    """Assemble the parity blocks of the Nystrom NP matrix for ``mesh``.

    The kernel's weighted column sums are 1/2 in the continuum; the
    quadrature leaves a deficit fix_b in column b of the (+, +) block, the
    sum of the four A_g.  A uniform mesh adds fix_b to the diagonal entry,
    in A_e and so in every block.  A graded mesh's junction panels are far
    shorter than the rest, and that fails: it adds fix_b w_b / |Gamma| to
    every entry of column b of the (+, +) block, the only one it acts on.
    Either way every weighted column sum is 1/2 to rounding.
    """
    blocks, wq = _orbit_matrices(mesh), mesh.weights[mesh.orbits[0]]
    m = len(wq)
    # two butterflies (a, b) -> (a + b, a - b), over (0, 1) and (2, 3), then
    # (0, 2) and (1, 3), turn the orbit matrices into the blocks in place
    rows = max(1, NP_CHUNK_BYTES // (32 * m))
    buf = np.empty((4, min(rows, m), m))
    for s in range(0, m, rows):
        c = blocks[:, s:s + rows]
        t = buf[:, :c.shape[1]]   # A_e + A_R1, A_e - A_R1, A_R2 + A_R1R2, A_R2 - A_R1R2
        np.add(c[0::2], c[1::2], out=t[0::2])
        np.subtract(c[0::2], c[1::2], out=t[1::2])
        np.add(t[:2], t[2:], out=c[:2])
        np.subtract(t[:2], t[2:], out=c[2:])
    fix = 0.5 - wq @ blocks[0] / wq
    if mesh.graded:
        blocks[0] += fix * wq / wq.sum()
    else:
        blocks[:, np.arange(m), np.arange(m)] += fix
    correction = np.empty(len(mesh))
    correction[mesh.orbits] = fix / wq

    return NpMatrix(blocks=blocks, mesh=mesh, correction=correction)


def neumann_data(mesh: BoundaryMesh, bg: HarmonicBackground) -> DensityVector:
    """Normal derivative of the background ``bg``, taken in the rod frame
    (``HarmonicBackground.in_frame``), at the mesh nodes."""
    g = bg.grad(mesh.points)
    return DensityVector(values=np.einsum("ij,ij->i", g, mesh.normals),
                         mesh=mesh)


def solve_density(np_matrix: NpMatrix, lam: float, rhs: DensityVector) -> DensityVector:
    """Solve ``(lam*I - K)[phi] = rhs`` for the nodal density.

    The contrast constant satisfies |lam| > 1/2 for any admissible
    conductivity, which keeps the system away from the NP spectrum.
    Each parity part of ``rhs`` is solved with its own block; a part below
    SKIP_SHARE of the data gets phi = 0 and its block is not factored.

    The node weights w are a left eigenvector of K with eigenvalue 1/2
    (the column identity), and only the (+, +) block holds it: there
    w^T phi = w^T b / (lam - 1/2), about sigma0 w^T b.  Where w^T b is
    within the rounding bound of its sum, n eps sum w|b| over the n nodes,
    it is the rounding of a zero total, and the block is factored as
    lam I - K + (lam + 1/2) e wq^T / sum(wq), e the ones on the quarter arc,
    which moves the weights' eigenvalue to 2 lam and leaves every other
    one, and the zero-charge solution, as they were.  A total above that
    bound, a coarse mesh's quadrature error, is data: the block is solved
    as it stands.  Data ``rhs`` on another mesh than ``np_matrix`` are
    refused with ValidationError.
    """
    if rhs.mesh != np_matrix.mesh:
        raise ValidationError("rhs is on another mesh than np_matrix")
    b = np_matrix.split(rhs.values)
    norms = np.linalg.norm(b, axis=1)
    live = np.flatnonzero(norms > SKIP_SHARE * np.linalg.norm(norms))
    phi = np.zeros_like(b)
    blocks = np_matrix.blocks
    m = b.shape[1]
    diag = np.arange(m)
    wq = np_matrix.mesh.weights[np_matrix.mesh.orbits[0]]
    shift = abs(wq @ b[0]) <= b.size * np.finfo(float).eps * (wq @ np.abs(b[0]))
    # a skipped part leaves r_s = -b_s.  np.linalg.solve factors a copy, so
    # the unshifted lam I - block is still there for its part of the residual
    r = -b
    system = np.empty((m, m))
    for s in live:
        np.negative(blocks[s], out=system)
        system[diag, diag] += lam
        try:
            phi[s] = np.linalg.solve(
                system + (lam + 0.5) * wq / wq.sum() if s == 0 and shift else system, b[s])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"density system is singular (lam={lam})") from exc
        r[s] += system @ phi[s]

    # ||r||^2 = 4 * sum_s ||r_s||^2 over the full vector; scale by the data
    # only: a near-singular system yields a huge phi whose backward error
    # looks tiny relative to phi itself
    scale = max(np.linalg.norm(rhs.values), 1e-300)
    residual = 2.0 * np.linalg.norm(r) / scale
    if not np.isfinite(residual) or residual > SOLVE_RESIDUAL_TOL:
        raise SolverError(
            f"density solve residual {residual:.2e} exceeds {SOLVE_RESIDUAL_TOL:.1e} (largest "
            f"block condition estimate {np.linalg.cond(lam * np.eye(m) - blocks).max():.2e}, "
            f"lam={lam})")
    return DensityVector(values=np_matrix.join(phi), mesh=np_matrix.mesh,
                         residual=float(residual), factored_blocks=len(live))


def _near_flags(mesh: BoundaryMesh, r2: NDArray) -> NDArray:
    """Rows of the squared distances ``r2`` (points, nodes) with a node
    closer than NEAR_FACTOR times that node's panel length."""
    return (r2 < (NEAR_FACTOR * mesh.panel_lengths) ** 2).any(axis=1)


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
            x1, x2 = pts[i].tolist()
            raise ValidationError(f"evaluation point ({x1!r}, {x2!r}) "
                                  "lies on a mesh node, where the kernel is singular")
        scratch[:2] /= r2
        np.log(r2, out=r2)
        # einsum sums each row on its own, so a point's value does not
        # depend on the points that share its chunk (a BLAS gemv sums the
        # rows at its block edges in another order)
        out[s:s + len(p)] = np.einsum("krn,n->rk", scratch, pw)
    return out, near


def _joukowski(a: float, pts: NDArray) -> NDArray:
    """The exterior Joukowski variable w (m,) of rod-frame points (m, 2):
    z = a (w + 1/w) / 2 with |w| >= 1, the branch w = s + sqrt(s - 1)
    sqrt(s + 1), s = z / a.  The scratch is chunked to FIELD_CHUNK_BYTES."""
    w = np.empty(len(pts), dtype=complex)
    rows = max(1, FIELD_CHUNK_BYTES // 96)
    for i in range(0, len(pts), rows):
        s = np.ascontiguousarray(pts[i:i + rows]).view(complex)[:, 0] / a
        w[i:i + rows] = s + np.sqrt(s - 1.0) * np.sqrt(s + 1.0)
    return w


def _multipole_field(pw: NDArray, w: NDArray, nodes: NDArray, a: float) -> NDArray:
    """Rows of :func:`_direct_field` at points of Joukowski variable w
    (:func:`_joukowski`), |w| >= FAR_RATIO R, R the largest |w_j| of ``nodes``.

    In complex notation 4 pi S = 2 Re F with F(z) = sum_j q_j log(z - y_j),
    q_j = pw[j], and 2 pi grad S = (Re F', -Im F').  As
    z - y_j = (a/2) (w - w_j) (1 - 1/(w w_j)), with u = R / w
    and c_k = sum_j q_j ((w_j / R)^k + (1 / (w_j R))^k), Re F is
    Q log(a |w| / 2) - Re sum_k c_k u^k / k, Q = sum_j q_j, and
    R dF/dw = u (Q + sum_k c_k u^k), both summed by Horner's rule in u;
    dz/dw = (a/2) (1 - w^-2).  (a |w| / 2)^2 is |z|^2 to
    rounding, so S is not finite where the direct sum's r^2 overflows.
    The scratch is chunked to FIELD_CHUNK_BYTES.
    """
    R = np.abs(nodes).max()
    t = np.concatenate([nodes, 1.0 / nodes]) / R
    qt = np.concatenate([pw, pw]).astype(complex)
    # column 0 sums R dF/dw (its first coefficient Q), column 1 the series of F
    coef = np.zeros((FAR_TERMS + 1, 2), dtype=complex)
    for k in range(FAR_TERMS + 1):
        coef[k, 0] = qt.sum()
        qt *= t
    coef[:-1, 1] = coef[1:, 0] / np.arange(1, FAR_TERMS + 1)
    coef[0, 0] /= 2.0
    rot = 2.0 / (a * R)
    out = np.empty((len(w), 3))
    rows = max(1, FIELD_CHUNK_BYTES // 160)
    for i in range(0, len(w), rows):
        wc = w[i:i + rows]
        u = R / wc
        acc = np.repeat(coef[-1, :, None], len(u), axis=1)
        for ck in coef[-2::-1]:
            acc *= u
            acc += ck[:, None]
        acc *= u
        acc[0] *= rot / (1.0 - np.square(u / R))   # F', as 1/w = u / R
        out[i:i + rows, :2] = np.conj(acc[0]).view(float).reshape(-1, 2)   # Re F', -Im F'
        out[i:i + rows, 2] = (coef[0, 0].real * np.log(np.square(0.5 * a * np.abs(wc)))
                              - 2.0 * acc[1].real)
    return out


def single_layer_field(phi: DensityVector, x) -> tuple[NDArray, NDArray, NDArray]:
    """Single-layer potential of ``phi`` on its mesh, its exact gradient and
    the near flag, at points ``x`` in the rod frame, with the gradient in that frame.

    ``near`` flags points closer to a node than NEAR_FACTOR times that
    node's panel length, where the composite Gauss-Legendre rule degrades.

    Points with |w| >= FAR_RATIO R, w the rod frame's exterior Joukowski
    variable (:func:`_joukowski`, a = max(L/2, 1e-3 delta)) and R the largest
    |w_j| of a node, lie outside an ellipse confocal with the rod.  They
    take S and grad S from :func:`_multipole_field` when together they
    replace at least FAR_MIN_PAIRS (point, node) pairs of the direct sum,
    and when the gap between the ellipses |w| = R and |w| = FAR_RATIO R,
    confocal, so the difference of their major semi-axes ((a/2)(R - 1/(2R))
    at FAR_RATIO = 2), is at least NEAR_FACTOR times the longest panel:
    such a point is at least that gap from every node, so none can be
    flagged.  On the ``fieldmap`` benchmark grid the expansion agreed with
    a long-double direct sum to 4e-16 of the largest |S| and |grad S|
    there, where the direct sum in double is off by up to 6e-15.  Every
    other point takes
    the direct sum: each chunk of points forms d = x - y and r^2 = |d|^2
    once, by direct subtraction (the GEMM expansion of r^2 cancels near the
    boundary).
    Points are an (m, 2) array, values (m,), gradients (m, 2) and flags
    (m,); one point (2,) is a set of one.  A point on a mesh node raises
    ValidationError.
    """
    pts, mesh = as_points(x), phi.mesh
    pw = phi.values * mesh.weights
    far = None
    if len(pts) * len(mesh) >= FAR_MIN_PAIRS:
        a = max(mesh.spec.L / 2.0, 1e-3 * mesh.spec.delta)
        nodes = _joukowski(a, mesh.points)
        R = np.abs(nodes).max()
        # the gap between the ellipses |w| = R and |w| = FAR_RATIO R
        rho = FAR_RATIO * R
        if a * (rho + 1.0 / rho - R - 1.0 / R) / 2.0 >= NEAR_FACTOR * mesh.panel_lengths.max():
            w = _joukowski(a, pts)
            far = np.abs(w) >= FAR_RATIO * R
            if np.count_nonzero(far) * len(mesh) < FAR_MIN_PAIRS:
                far = None
    if far is None:
        out, near = _direct_field(mesh, pw, pts)
    else:
        out = np.empty((len(pts), 3))   # 2 pi dS/dx1, 2 pi dS/dx2, 4 pi S
        near = np.zeros(len(pts), dtype=bool)
        out[far] = _multipole_field(pw, w[far], nodes, a)
        del w   # before the direct sum's scratch is allocated
        out[~far], near[~far] = _direct_field(mesh, pw, pts[~far])
    return out[:, 2] / (4.0 * np.pi), out[:, :2] / (2.0 * np.pi), near


def single_layer(mesh: BoundaryMesh, phi: DensityVector,
                 x) -> tuple[NDArray, NDArray]:
    """``(values, near)`` of :func:`single_layer_field`; perfbench's tracing.py names
    it and reads ``mesh``, which must be ``phi.mesh``."""
    vals, _, near = single_layer_field(phi, x)
    return vals, near


def single_layer_grad(mesh: BoundaryMesh, phi: DensityVector,
                      x) -> tuple[NDArray, NDArray]:
    """``(grads, near)`` of :func:`single_layer_field`; perfbench's tracing.py names
    it and reads ``mesh``, which must be ``phi.mesh``."""
    _, grads, near = single_layer_field(phi, x)
    return grads, near

