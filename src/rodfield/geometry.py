"""Stadium ("rod") geometry: specification, quadrature mesh, rigid motions.

The inclusion is a 2*delta-thick rectangle of length L capped by two
half-disks of radius delta.  In the rod's local frame the cap centres are
P = (-L/2, 0) and Q = (L/2, 0); the world placement is a rotation by
``angle`` followed by a translation by ``center``.  The mesh stays in the
rod frame: ``solver`` alone places the rod.

Quadrature: each smooth segment (two caps, two facade sides) is split
into panels carrying a Gauss-Legendre rule, so sums against the node
weights integrate segment-smooth functions to near machine precision.
Panels abut the four curvature junctions; no node ever sits on one.  One
rule, :func:`panels`, lays them out.  The uniform mesh has equal panels on
each segment, from node counts per cap and per facade side.  The graded
mesh refines them into both sides of each cap junction, where the field of
a thin rod localises, and grows like log(L/delta), not like L/delta.
:func:`build_mesh` takes the uniform mesh for given counts, and by
default the one with fewer nodes.
"""

from __future__ import annotations

import math
import numbers
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


def _finite(v) -> bool:
    """Whether ``v`` is a finite real number; None, a string and a bool are not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class RodSpec:
    """Geometric and material description of the rod inclusion.

    L: length of the straight segment (>= 0; L = 0 degenerates to a disc
       of radius delta, used as the analytic-oracle case).
    delta: half-thickness (> 0).
    center: world position of the geometric centre, two finite reals.
    angle: rotation of the rod axis, radians.
    sigma0: inclusion conductivity (> 0, != 1; background is 1).
    """

    L: float
    delta: float
    center: tuple[float, float] = (0.0, 0.0)
    angle: float = 0.0
    sigma0: float = 2.0

    def __post_init__(self) -> None:
        if not (_finite(self.L) and self.L >= 0):
            raise ValidationError(f"L must be a finite real number >= 0, got {self.L!r}")
        if not (_finite(self.delta) and self.delta > 0):
            raise ValidationError(f"delta must be a finite real number > 0, got {self.delta!r}")
        if not _finite(self.angle):
            raise ValidationError(f"angle must be a finite real number, got {self.angle!r}")
        lambda_of_sigma(self.sigma0)
        c = self.center
        if not ((isinstance(c, (tuple, list)) or np.ndim(c) == 1) and len(c) == 2
                and all(map(_finite, c))):
            raise ValidationError(f"center must be two finite real numbers, got {c!r}")

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
    """Contrast constant (sigma0 + 1) / (2 (sigma0 - 1)); |lam| > 1/2.  The
    numerator is halved: doubling sigma0 - 1 overflows above about 9e307.
    Its refusals are the only contrast check: :class:`RodSpec` makes them here."""
    if not (_finite(sigma0) and sigma0 > 0):
        raise ValidationError(f"sigma0 must be a finite real number > 0, got {sigma0!r}")
    if sigma0 == 1.0:
        raise ValidationError("sigma0 = 1 gives no contrast with the background")
    return 0.5 * (sigma0 + 1.0) / (sigma0 - 1.0)


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

    A value of ``spec``, the node counts and the rule: the arrays are
    computed from them once, at construction, and are read-only, so a mesh
    made by ``dataclasses.replace`` is rebuilt and checked like any other.
    Each cap carries ``n_cap`` nodes and each facade side ``n_facade``
    nodes in Gauss-Legendre panels, so weighted sums are high-order
    accurate boundary integrals.  The panels are :func:`panels` of
    :func:`_rule`: the uniform rule rounds both counts up to a multiple of
    PANEL_ORDER, and the ``graded`` rule ignores them; ``n_cap`` and
    ``n_facade`` then hold its own.  ``n_facade`` is ignored for the disc
    case L = 0.  Positions and normals are in the rod frame, whatever
    ``spec.center`` and ``spec.angle``, and ``panel_lengths`` holds the arc
    length of each node's panel.

    The half mesh, the bottom side left to right and then the right cap,
    is built once, each segment's second half the mirror image of its
    first; the top side and the left cap are its point reflection x -> -x,
    node for node, so the mesh is symmetric under both mirrors exactly.
    Row g of ``orbits`` (4, n/4) is g(q) for the elements (e, R1, R2, R1R2)
    of that mirror group, q the quarter arc that starts at the middle of
    the right cap, and ``points[orbits[g]]`` are the sign flips of
    ``points[q]``, bit for bit.  Nodes run counterclockwise, so each mirror
    reverses the index order: R1 is i -> (n_facade - 1 - i) mod n and R2
    is i -> (2 n_facade + n_cap - 1 - i) mod n.
    """

    spec: RodSpec
    n_cap: int = 0
    n_facade: int = 0
    graded: bool = False
    points: NDArray = field(init=False, repr=False, compare=False)      # (n, 2)
    normals: NDArray = field(init=False, repr=False, compare=False)     # (n, 2), unit outward
    curvatures: NDArray = field(init=False, repr=False, compare=False)  # (n,)
    weights: NDArray = field(init=False, repr=False, compare=False)     # (n,)
    panel_lengths: NDArray = field(init=False, repr=False, compare=False)  # (n,)
    orbits: NDArray = field(init=False, repr=False, compare=False)      # (4, n/4)

    def __post_init__(self) -> None:
        spec = self.spec
        L, d = spec.L, spec.delta
        rule = _rule(spec, self.n_cap, self.n_facade, self.graded)
        (s_cap, w_cap, h_cap), (s_fac, w_fac, h_fac) = map(_panel_rule, panels(spec, *rule))
        nc, nf = len(s_cap), len(s_fac)
        # the side's right half and the cap's upper half are the mirror
        # images of the other halves, so that R1 and R2 are exact too
        theta = s_cap[:nc // 2] - np.pi / 2.0
        nu_cap = np.column_stack([np.cos(theta), np.sin(theta)])
        nu_cap = np.concatenate([nu_cap, nu_cap[::-1] * [1.0, -1.0]])
        x1 = s_fac[:nf // 2] - L / 2.0
        x1 = np.concatenate([x1, -x1[::-1]])
        half = np.concatenate([np.column_stack([x1, np.full(nf, -d)]), [L / 2.0, 0.0] + d * nu_cap])
        half_normals = np.concatenate([np.tile([0.0, -1.0], (nf, 1)), nu_cap])
        n = 2 * (nc + nf)
        q = np.arange(nf + nc // 2, nf + nc // 2 + n // 4) % n
        object.__setattr__(self, "n_cap", nc)
        object.__setattr__(self, "n_facade", nf)
        for name, value in (
                ("points", np.concatenate([half, -half])),
                ("normals", np.concatenate([half_normals, -half_normals])),
                ("curvatures", np.tile(np.repeat([0.0, 1.0 / d], [nf, nc]), 2)),
                ("weights", np.tile(np.concatenate([w_fac, d * w_cap]), 2)),
                ("panel_lengths", np.tile(np.concatenate([h_fac, d * h_cap]), 2)),
                ("orbits", np.stack([q, (nf - 1 - q) % n, (2 * nf + nc - 1 - q) % n,
                                     (q + n // 2) % n]))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def rule(self) -> str:
        """The panel rule, 'graded' or 'uniform'."""
        return "graded" if self.graded else "uniform"

    def tag_mask(self, tag: str) -> NDArray:
        """The nodes of segment ``tag``, one of SEGMENTS."""
        return np.repeat(np.array(SEGMENTS) == tag, [self.n_facade, self.n_cap] * 2)


#: Gauss-Legendre points per panel, and the rule on (-1, 1).
PANEL_ORDER = 8
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)


def _panel_rule(lengths: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """Composite Gauss-Legendre nodes, weights and panel lengths, per node,
    of panels of the given lengths, laid end to end from 0."""
    starts = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    s = (starts[:, None] + lengths[:, None] * (GAUSS_NODES + 1.0) / 2.0).ravel()
    return s, (lengths[:, None] * GAUSS_WEIGHTS / 2.0).ravel(), np.repeat(lengths, PANEL_ORDER)


#: The graded rule.  A cap has GRADED_CAP_PANELS equal panels, and the one
#: at each junction is halved GRADED_HALVINGS times toward it.  A facade
#: side's first panel at each junction is GRADED_FIRST delta long; the
#: panels double toward the middle while shorter than GRADED_LONGEST L, and
#: equal panels no longer than that fill the middle.  The error is set by
#: the first panel at a junction, not by the middle ones: against delta/16
#: and L/32 these values have 16-20% fewer nodes and a smaller worst error
#: off a refined mesh.
GRADED_CAP_PANELS = 4
GRADED_HALVINGS = 4
GRADED_FIRST = 1.0 / 32.0
GRADED_LONGEST = 1.0 / 16.0


def _rule(spec: RodSpec, n_cap: int, n_facade: int,
          graded: bool) -> tuple[int, int, float, int, int]:
    """The arguments of :func:`panels` after ``spec``.  The uniform rule
    rounds the node counts up to whole panels and neither halves nor
    doubles; the graded rule takes the GRADED_* constants and ignores the
    counts."""
    if not graded:
        if n_cap < 8:
            raise ValidationError(f"n_cap must be >= 8, got {n_cap}")
        if spec.L > 0 and n_facade < 8:
            raise ValidationError(f"n_facade must be >= 8, got {n_facade}")
        return -(-n_cap // PANEL_ORDER), 0, 0.0, 0, -(-n_facade // PANEL_ORDER) if spec.L > 0 else 0
    if spec.L == 0.0:
        return GRADED_CAP_PANELS, GRADED_HALVINGS, 0.0, 0, 0
    first, longest = GRADED_FIRST * spec.delta, GRADED_LONGEST * spec.L
    steps = max(0, math.ceil(math.log2(longest / first)))
    return (GRADED_CAP_PANELS, GRADED_HALVINGS, first, steps,
            math.ceil((spec.L - 2.0 * first * (2**steps - 1)) / longest))


def panels(spec: RodSpec, n_cap: int, halvings: int, first: float, steps: int,
           n_mid: int) -> tuple[NDArray, NDArray]:
    """Panel lengths of a cap, in angle from junction to junction: ``n_cap``
    equal panels, the one at each junction halved ``halvings`` times toward
    it.  Then of a facade side, left to right (empty for L = 0): ``steps``
    panels doubling from ``first`` at each junction, and ``n_mid`` equal
    panels between.  Both are symmetric, so the mesh keeps its mirror
    orbits.  At L = 2 the graded rule gives a cap 12 panels, and a side 36
    at delta = 0.002, 38 at 0.001 and 52 at 1e-5: n = 768, 800 and 1,024.
    """
    h = np.pi / n_cap
    end = h / 2.0 ** np.concatenate([[halvings], np.arange(halvings, 0, -1)])
    cap = np.concatenate([end, np.full(n_cap - 2, h), end[::-1]]) if n_cap > 1 else end
    if n_mid == 0:
        return cap, np.empty(0)
    grown = first * 2.0 ** np.arange(steps)
    middle = (spec.L - 2.0 * grown.sum()) / n_mid
    return cap, np.concatenate([grown, np.full(n_mid, middle), grown[::-1]])


def mesh_counts(spec: RodSpec, n_cap: int | None = None,
                n_facade: int | None = None) -> tuple[int, int, bool]:
    """The node counts per cap and per facade side of
    ``build_mesh(spec, n_cap, n_facade)`` and whether it is graded, without
    building it.

    Given counts take the uniform rule, and a count left out its
    :func:`default_counts` value.  With both left out the mesh is graded
    where that has fewer nodes than the uniform default, which at L/delta
    >~ 705 it has (delta <~ 0.0028 at L = 2).
    """
    may_grade = n_cap is None and n_facade is None
    if n_cap is None or n_facade is None:
        dc, df = default_counts(spec)
        n_cap, n_facade = dc if n_cap is None else n_cap, df if n_facade is None else n_facade
    rules = [_rule(spec, n_cap, n_facade, graded) for graded in (False, True)[:1 + may_grade]]
    counts = [(PANEL_ORDER * (c + 2 * h), PANEL_ORDER * (2 * s + m)) for c, h, _, s, m in rules]
    best = min(counts, key=sum)  # the uniform rule on a tie
    return (*best, best is not counts[0])


def build_mesh(spec: RodSpec, n_cap: int | None = None,
               n_facade: int | None = None) -> BoundaryMesh:
    """The counterclockwise boundary mesh of the rod; see :class:`BoundaryMesh`
    and, for the rule and the counts, :func:`mesh_counts`."""
    return BoundaryMesh(spec, *mesh_counts(spec, n_cap, n_facade))


def default_counts(spec: RodSpec) -> tuple[int, int]:
    """Default node counts of the uniform rule: 32 per cap and L/(2 delta)
    per facade side.

    Facade panels are then 16 delta long, 8 times the gap between the
    sides.  The kernel across the gap, the A_delta Lorentzian, is
    integrated exactly against each panel's interpolant (see
    ``potentials.assemble_np``), so the panels only have to resolve the
    density, not the 2 delta width of the kernel.  A delta for which
    L/(2 delta) overflows is refused.
    """
    n_cap = 32
    if spec.L == 0.0:
        return n_cap, 0
    n_facade = spec.L / (2.0 * spec.delta)
    if not np.isfinite(n_facade):
        raise ValidationError(f"L/(2 delta) overflows at delta={spec.delta!r}, L={spec.L!r}")
    return n_cap, max(32, int(np.ceil(n_facade)))


def signed_distance(spec: RodSpec, x: NDArray) -> NDArray:
    """Signed distance to the rod boundary (negative inside)."""
    xl = to_local(spec, np.atleast_2d(np.asarray(x, dtype=float)))
    t = np.clip(xl[..., 0], -spec.L / 2.0, spec.L / 2.0)
    seg = np.stack([t, np.zeros_like(t)], axis=-1)
    return np.linalg.norm(xl - seg, axis=-1) - spec.delta
