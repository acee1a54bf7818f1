"""Stadium ("rod") geometry: specification, quadrature mesh, rigid motions.

The inclusion is a 2*delta-thick rectangle of length L capped by two
half-disks of radius delta.  In the rod's local frame the cap centres are
P = (-L/2, 0) and Q = (L/2, 0); the world placement is a rotation by
``angle`` followed by a translation by ``center``.

Quadrature: each smooth segment (two caps, two facade sides) is split
into equal panels carrying a Gauss-Legendre rule, so sums against the
node weights integrate segment-smooth functions to near machine
precision.  Panels abut the four curvature junctions; no node ever sits
on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

TAG_CAP_LEFT = "cap_left"
TAG_CAP_RIGHT = "cap_right"
TAG_FACADE_BOTTOM = "facade_bottom"
TAG_FACADE_TOP = "facade_top"
#: The segments of a mesh in node order, counterclockwise from the bottom
#: side's left end: n_facade, n_cap, n_facade and n_cap nodes.
SEGMENTS = (TAG_FACADE_BOTTOM, TAG_CAP_RIGHT, TAG_FACADE_TOP, TAG_CAP_LEFT)


class ValidationError(ValueError):
    """Raised when a rod specification or mesh request is invalid."""


@dataclass(frozen=True)
class RodSpec:
    """Geometric and material description of the rod inclusion.

    L: length of the straight segment (>= 0; L = 0 degenerates to a disc
       of radius delta, used as the analytic-oracle case).
    delta: half-thickness (> 0).
    center: world position of the geometric centre.
    angle: rotation of the rod axis, radians.
    sigma0: inclusion conductivity (> 0, != 1; background is 1).
    """

    L: float
    delta: float
    center: tuple[float, float] = (0.0, 0.0)
    angle: float = 0.0
    sigma0: float = 2.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.L) or self.L < 0:
            raise ValidationError(f"L must be >= 0, got {self.L}")
        if not np.isfinite(self.delta) or self.delta <= 0:
            raise ValidationError(f"delta must be > 0, got {self.delta}")
        if not np.isfinite(self.angle):
            raise ValidationError(f"angle must be finite, got {self.angle}")
        if not np.isfinite(self.sigma0) or self.sigma0 <= 0:
            raise ValidationError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.sigma0 == 1.0:
            raise ValidationError("sigma0 = 1 gives no contrast with the background")
        if len(self.center) != 2 or not np.isfinite(self.center).all():
            raise ValidationError(f"center must be a finite 2-vector, got {self.center}")

    @property
    def perimeter(self) -> float:
        return 2.0 * self.L + 2.0 * np.pi * self.delta

    @property
    def area(self) -> float:
        return 2.0 * self.delta * self.L + np.pi * self.delta**2

    def cap_centers_world(self) -> tuple[NDArray, NDArray]:
        """World coordinates of the cap centres P (left) and Q (right)."""
        half = np.array([self.L / 2.0, 0.0])
        return to_world(self, -half), to_world(self, half)


def lambda_of_sigma(sigma0: float) -> float:
    """Contrast constant (sigma0 + 1) / (2 (sigma0 - 1)); |lam| > 1/2."""
    if sigma0 <= 0:
        raise ValidationError(f"sigma0 must be > 0, got {sigma0}")
    if sigma0 == 1.0:
        raise ValidationError("sigma0 = 1: no contrast, no inclusion")
    return (sigma0 + 1.0) / (2.0 * (sigma0 - 1.0))


def rotation_matrix(angle: float) -> NDArray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def to_world(spec: RodSpec, x_local: NDArray) -> NDArray:
    """Map local-frame points (shape (..., 2)) to world coordinates."""
    x_local = np.asarray(x_local, dtype=float)
    return x_local @ rotation_matrix(spec.angle).T + np.asarray(spec.center)


def to_local(spec, x_world: NDArray) -> NDArray:
    """Inverse of :func:`to_world`.

    Reads only ``spec.center`` and ``spec.angle``, so any placed object
    (a RodSpec or an AsymptoticModel) gives its frame.
    """
    x_world = np.asarray(x_world, dtype=float)
    return (x_world - np.asarray(spec.center)) @ rotation_matrix(spec.angle)


@dataclass(frozen=True)
class BoundaryMesh:
    """Quadrature discretization of the rod boundary, counterclockwise.

    Nodes and weights form a composite Gauss-Legendre rule in arc length
    over each smooth segment, so weighted sums are high-order accurate
    boundary integrals.  Positions and normals are in world coordinates.
    """

    points: NDArray        # (n, 2)
    normals: NDArray       # (n, 2), unit outward
    curvatures: NDArray    # (n,)
    weights: NDArray       # (n,)
    spec: RodSpec = field(repr=False)
    n_cap: int = 0
    n_facade: int = 0

    def __len__(self) -> int:
        return len(self.weights)

    def tag_mask(self, tag: str) -> NDArray:
        """The nodes of segment ``tag``, one of SEGMENTS."""
        return np.repeat(np.array(SEGMENTS) == tag, [self.n_facade, self.n_cap] * 2)


#: Gauss-Legendre points per panel, and the rule on (-1, 1).
PANEL_ORDER = 8
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)


def _segment_rule(length: float, n_nodes: int) -> tuple[NDArray, NDArray]:
    """Composite Gauss-Legendre nodes/weights on (0, length).

    ``n_nodes`` is rounded up to a multiple of PANEL_ORDER so the panels
    are equal.
    """
    n_panels = -(-n_nodes // PANEL_ORDER)
    h = length / n_panels
    starts = h * np.arange(n_panels)
    s = (starts[:, None] + h * (GAUSS_NODES[None, :] + 1.0) / 2.0).ravel()
    w = np.broadcast_to(h * GAUSS_WEIGHTS / 2.0, (n_panels, PANEL_ORDER)).ravel().copy()
    return s, w


def build_mesh(spec: RodSpec, n_cap: int, n_facade: int = 0) -> BoundaryMesh:
    """Build the counterclockwise boundary mesh of the rod.

    Each cap carries ``n_cap`` nodes and each facade side ``n_facade``
    nodes (both rounded up to a multiple of PANEL_ORDER), distributed as
    equal Gauss-Legendre panels in arc length.  ``n_facade`` is ignored
    for the disc case L = 0.

    The half mesh, the bottom side left to right and then the right cap,
    is built once in the rod frame; the top side and the left cap are its
    point reflection x -> -x, node for node, so the mesh is symmetric under
    both mirrors exactly before the one rigid motion.
    """
    if n_cap < 8:
        raise ValidationError(f"n_cap must be >= 8, got {n_cap}")
    if spec.L > 0 and n_facade < 8:
        raise ValidationError(f"n_facade must be >= 8, got {n_facade}")

    L, d = spec.L, spec.delta
    s_cap, w_cap = _segment_rule(np.pi, n_cap)
    s_fac, w_fac = _segment_rule(L, n_facade) if L > 0 else (np.empty(0), np.empty(0))
    theta = s_cap - np.pi / 2.0
    nu_cap = np.column_stack([np.cos(theta), np.sin(theta)])
    half = np.concatenate([np.column_stack([s_fac - L / 2.0, np.full(len(s_fac), -d)]),
                           [L / 2.0, 0.0] + d * nu_cap])
    half_normals = np.concatenate([np.tile([0.0, -1.0], (len(s_fac), 1)), nu_cap])
    normals = np.concatenate([half_normals, -half_normals])
    return BoundaryMesh(points=to_world(spec, np.concatenate([half, -half])),
                        normals=normals @ rotation_matrix(spec.angle).T,
                        curvatures=np.tile(np.repeat([0.0, 1.0 / d],
                                                     [len(s_fac), len(s_cap)]), 2),
                        weights=np.tile(np.concatenate([w_fac, d * w_cap]), 2),
                        spec=spec, n_cap=len(s_cap), n_facade=len(s_fac))


def default_counts(spec: RodSpec) -> tuple[int, int]:
    """Default node counts: 32 per cap and L/(2 delta) per facade side.

    Facade panels are then 16 delta long, 8 times the gap between the
    sides.  The kernel across the gap, the A_delta Lorentzian, is
    integrated exactly against each panel's interpolant (see
    ``potentials.assemble_np``), so the panels only have to resolve the
    density, not the 2 delta width of the kernel.
    """
    n_cap = 32
    if spec.L == 0.0:
        return n_cap, 0
    n_facade = max(32, int(np.ceil(spec.L / (2.0 * spec.delta))))
    return n_cap, n_facade


def signed_distance(spec: RodSpec, x: NDArray) -> NDArray:
    """Signed distance to the rod boundary (negative inside)."""
    xl = to_local(spec, np.atleast_2d(np.asarray(x, dtype=float)))
    t = np.clip(xl[..., 0], -spec.L / 2.0, spec.L / 2.0)
    seg = np.stack([t, np.zeros_like(t)], axis=-1)
    d = np.linalg.norm(xl - seg, axis=-1) - spec.delta
    return d if np.asarray(x).ndim > 1 else d[0]


#: Rows formatted at a time by :func:`write_csv`: the cells it holds at
#: once are bounded by the block, not by the table.
CSV_BLOCK_ROWS = 256


def _distinct(col: NDArray):
    """The sorted distinct bit patterns of a float column and their text,
    or None unless they number fewer than half the column and fit in a
    block.  Bits, not values, so -0.0 and 0.0 keep their own text.

    A column no longer than a block, or whose first block repeats no
    value, is never sorted: it would not pay, and the first int64 sort in
    a process pages in about 0.5 MB of numpy's sort code.
    """
    if len(col) <= CSV_BLOCK_ROWS:
        return None
    if 2 * len(set(col[:CSV_BLOCK_ROWS].view(np.int64).tolist())) >= CSV_BLOCK_ROWS:
        return None
    bits = np.unique(col.view(np.int64))
    if 2 * len(bits) >= len(col) or len(bits) > CSV_BLOCK_ROWS:
        return None
    return bits, np.array(list(map(repr, bits.view(float).tolist())), dtype=object)


def _blocks(col: NDArray):
    """The CSV cells of one column, a list per block of CSV_BLOCK_ROWS rows.

    Floats by repr, integers and strings as themselves, flags as 0/1.  A
    float column with few distinct values (a lattice coordinate) has each
    formatted once.
    """
    if col.dtype == bool:
        col = col.astype(np.int8)
    is_float = col.dtype.kind == "f"
    if is_float:
        col = col.astype(float, copy=False)
    distinct = _distinct(col) if is_float else None
    for start in range(0, len(col), CSV_BLOCK_ROWS):
        block = col[start:start + CSV_BLOCK_ROWS]
        if distinct is not None:
            bits, text = distinct
            yield text[np.searchsorted(bits, block.view(np.int64))].tolist()
        else:
            yield list(map(repr if is_float else str, block.tolist()))


def write_csv(path: str, header, *columns) -> None:
    """Write equal-length columns under ``header``.

    One header line, then one line per row, each ended by CRLF.  Floats
    are written as their repr (shortest round-trip form), integers and
    strings as themselves, and boolean flags as 0/1.  No cell is quoted,
    so a string cell must not hold a comma, a quote or a line break.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for block in zip(*(_blocks(np.asarray(c)) for c in columns)):
            f.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
