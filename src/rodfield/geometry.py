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

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

TAG_CAP_LEFT = "cap_left"
TAG_CAP_RIGHT = "cap_right"
TAG_FACADE_BOTTOM = "facade_bottom"
TAG_FACADE_TOP = "facade_top"

MESH_CSV_HEADER = ["x1", "x2", "nu1", "nu2", "kappa", "weight", "tag"]


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
        if not np.isfinite(self.sigma0) or self.sigma0 <= 0:
            raise ValidationError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.sigma0 == 1.0:
            raise ValidationError("sigma0 = 1 gives no contrast with the background")
        if len(self.center) != 2:
            raise ValidationError(f"center must be a 2-vector, got {self.center}")

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
class BoundaryNode:
    position: NDArray
    normal: NDArray
    curvature: float
    weight: float
    tag: str


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
    tags: NDArray          # (n,) str
    spec: RodSpec = field(repr=False)
    n_cap: int = 0
    n_facade: int = 0

    def __len__(self) -> int:
        return len(self.weights)

    def node(self, i: int) -> BoundaryNode:
        return BoundaryNode(self.points[i], self.normals[i],
                            float(self.curvatures[i]), float(self.weights[i]),
                            str(self.tags[i]))

    def tag_mask(self, tag: str) -> NDArray:
        return self.tags == tag


#: Gauss-Legendre points per panel.
PANEL_ORDER = 8


def _segment_rule(length: float, n_nodes: int) -> tuple[NDArray, NDArray]:
    """Composite Gauss-Legendre nodes/weights on (0, length).

    ``n_nodes`` is rounded up to a multiple of PANEL_ORDER so the panels
    are equal.
    """
    n_panels = -(-n_nodes // PANEL_ORDER)
    xi, wi = np.polynomial.legendre.leggauss(PANEL_ORDER)
    h = length / n_panels
    starts = h * np.arange(n_panels)
    s = (starts[:, None] + h * (xi[None, :] + 1.0) / 2.0).ravel()
    w = np.broadcast_to(h * wi / 2.0, (n_panels, PANEL_ORDER)).ravel().copy()
    return s, w


def build_mesh(spec: RodSpec, n_cap: int, n_facade: int = 0) -> BoundaryMesh:
    """Build the counterclockwise boundary mesh of the rod.

    Each cap carries ``n_cap`` nodes and each facade side ``n_facade``
    nodes (both rounded up to a multiple of PANEL_ORDER), distributed as
    equal Gauss-Legendre panels in arc length.  ``n_facade`` is ignored
    for the disc case L = 0.
    """
    if n_cap < 8:
        raise ValidationError(f"n_cap must be >= 8, got {n_cap}")
    if spec.L > 0 and n_facade < 8:
        raise ValidationError(f"n_facade must be >= 8, got {n_facade}")

    L, d = spec.L, spec.delta
    P = np.array([-L / 2.0, 0.0])
    Q = np.array([L / 2.0, 0.0])

    pts, nrm, kap, wts, tags = [], [], [], [], []

    s_cap, w_cap = _segment_rule(np.pi, n_cap)
    n_cap = len(s_cap)

    def cap(center: NDArray, theta0: float, tag: str) -> None:
        theta = theta0 + s_cap
        nu = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts.append(center + d * nu)
        nrm.append(nu)
        kap.append(np.full(n_cap, 1.0 / d))
        wts.append(d * w_cap)
        tags.append(np.full(n_cap, tag))

    if L == 0.0:
        cap(Q, -np.pi / 2.0, TAG_CAP_RIGHT)
        cap(P, np.pi / 2.0, TAG_CAP_LEFT)
        n_facade = 0
    else:
        s_fac, w_fac = _segment_rule(L, n_facade)
        n_facade = len(s_fac)

        def facade(y2: float, reverse: bool, tag: str) -> None:
            x1 = -L / 2.0 + s_fac
            w = w_fac
            if reverse:
                x1, w = x1[::-1], w[::-1]
            p = np.stack([x1, np.full(n_facade, y2)], axis=1)
            nu = np.tile([0.0, np.sign(y2)], (n_facade, 1))
            pts.append(p)
            nrm.append(nu)
            kap.append(np.zeros(n_facade))
            wts.append(w.copy())
            tags.append(np.full(n_facade, tag))

        facade(-d, False, TAG_FACADE_BOTTOM)
        cap(Q, -np.pi / 2.0, TAG_CAP_RIGHT)
        facade(d, True, TAG_FACADE_TOP)
        cap(P, np.pi / 2.0, TAG_CAP_LEFT)

    points = np.concatenate(pts)
    normals = np.concatenate(nrm)
    R = rotation_matrix(spec.angle)
    points = points @ R.T + np.asarray(spec.center)
    normals = normals @ R.T

    return BoundaryMesh(points=points, normals=normals,
                        curvatures=np.concatenate(kap),
                        weights=np.concatenate(wts),
                        tags=np.concatenate(tags),
                        spec=spec, n_cap=n_cap, n_facade=n_facade)


def default_counts(spec: RodSpec) -> tuple[int, int]:
    """Default node counts: resolve the delta-scale kernel variation."""
    n_cap = 32
    if spec.L == 0.0:
        return n_cap, 0
    n_facade = max(32, int(np.ceil(spec.L / spec.delta)))
    return n_cap, n_facade


def signed_distance(spec: RodSpec, x: NDArray) -> NDArray:
    """Signed distance to the rod boundary (negative inside)."""
    xl = to_local(spec, np.atleast_2d(np.asarray(x, dtype=float)))
    t = np.clip(xl[..., 0], -spec.L / 2.0, spec.L / 2.0)
    seg = np.stack([t, np.zeros_like(t)], axis=-1)
    d = np.linalg.norm(xl - seg, axis=-1) - spec.delta
    return d if np.asarray(x).ndim > 1 else d[0]


def write_csv(path: str, header, *columns) -> None:
    """Write equal-length columns under ``header``.

    Floats are written as their repr (shortest round-trip form), integers
    and strings as themselves, and boolean flags as 0/1.
    """
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*(c.astype(int).tolist() if c.dtype == bool else c.tolist()
                          for c in cols)))


def dump_mesh_csv(mesh: BoundaryMesh, path: str) -> None:
    write_csv(path, MESH_CSV_HEADER, mesh.points[:, 0], mesh.points[:, 1],
              mesh.normals[:, 0], mesh.normals[:, 1], mesh.curvatures,
              mesh.weights, mesh.tags)
