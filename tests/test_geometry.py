"""Mesh construction and coordinate-frame invariants."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfield import RodSpec, ValidationError, build_mesh, to_local, to_world
from rodfield.cli import CSV_BLOCK_ROWS, write_csv
from rodfield.geometry import (SEGMENTS, TAG_CAP_LEFT, TAG_CAP_RIGHT, TAG_FACADE_BOTTOM,
                               BoundaryMesh,
                               TAG_FACADE_TOP, _segment_rule, default_counts, mesh_counts,
                               rotation_matrix, signed_distance)


def test_spec_validation():
    with pytest.raises(ValidationError):
        RodSpec(L=-1.0, delta=0.1)
    with pytest.raises(ValidationError):
        RodSpec(L=2.0, delta=0.0)
    with pytest.raises(ValidationError):
        RodSpec(L=2.0, delta=0.1, sigma0=-3.0)
    with pytest.raises(ValidationError):
        RodSpec(L=2.0, delta=0.1, sigma0=1.0)
    # a NaN centre was accepted: the closed form then gave NaN silently and
    # the BEM solve died in a LinAlgError
    for center in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(ValidationError, match="center"):
            RodSpec(L=2.0, delta=0.1, center=center)


def test_perimeter_and_area():
    spec = RodSpec(L=2.0, delta=0.1)
    assert spec.perimeter == pytest.approx(2 * 2.0 + 2 * np.pi * 0.1)
    assert spec.area == pytest.approx(2 * 0.1 * 2.0 + np.pi * 0.1**2)
    disc = RodSpec(L=0.0, delta=1.0)
    assert disc.perimeter == pytest.approx(2 * np.pi)
    assert disc.area == pytest.approx(np.pi)


def test_cap_centers_world():
    spec = RodSpec(L=2.0, delta=0.1, center=(1.0, -1.0), angle=np.pi / 2)
    P, Q = spec.cap_centers_world()
    assert np.allclose(P, [1.0, -2.0], atol=1e-14)
    assert np.allclose(Q, [1.0, 0.0], atol=1e-14)
    assert np.linalg.norm(P - Q) == pytest.approx(spec.L)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-np.pi, np.pi), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_frame_round_trip(cx, cy, angle, x1, x2):
    spec = RodSpec(L=2.0, delta=0.1, center=(cx, cy), angle=angle)
    x = np.array([[x1, x2]])
    assert np.allclose(to_local(spec, to_world(spec, x)), x, atol=1e-12)
    assert np.allclose(to_world(spec, to_local(spec, x)), x, atol=1e-12)


def test_rotation_matrix_orthonormal():
    R = rotation_matrix(0.7)
    assert np.allclose(R @ R.T, np.eye(2), atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_mesh_quadrature_invariants():
    # [DERIVED] closed-curve identities: sum w = perimeter, sum w*nu = 0,
    # contour area formula
    for spec in (RodSpec(L=2.0, delta=0.1),
                 RodSpec(L=1.0, delta=0.05, center=(0.4, 0.2), angle=1.1),
                 RodSpec(L=0.0, delta=1.0)):
        mesh = build_mesh(spec, n_cap=32, n_facade=64)
        assert mesh.weights.sum() == pytest.approx(spec.perimeter, rel=1e-12)
        assert np.linalg.norm(mesh.weights @ mesh.normals) < 1e-12
        area = 0.5 * np.dot(mesh.weights,
                            np.einsum("ij,ij->i",
                                      mesh.points - np.asarray(spec.center),
                                      mesh.normals))
        assert area == pytest.approx(spec.area, rel=1e-10)


def test_mesh_normals_unit_outward():
    spec = RodSpec(L=2.0, delta=0.1)
    mesh = build_mesh(spec, n_cap=32, n_facade=64)
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-14)
    # outward: stepping along the normal increases the signed distance
    d0 = signed_distance(spec, mesh.points)
    d1 = signed_distance(spec, mesh.points + 1e-3 * mesh.normals)
    assert np.all(d1 > d0)


def test_mesh_curvature_by_tag():
    spec = RodSpec(L=2.0, delta=0.1)
    mesh = build_mesh(spec, n_cap=32, n_facade=64)
    caps = mesh.tag_mask("cap_left") | mesh.tag_mask("cap_right")
    assert np.allclose(mesh.curvatures[caps], 1.0 / spec.delta)
    assert np.allclose(mesh.curvatures[~caps], 0.0)


def test_mesh_counts_round_up():
    mesh = build_mesh(RodSpec(L=2.0, delta=0.1), n_cap=20, n_facade=30)
    # counts round up to full panels
    assert mesh.n_cap % 8 == 0 and mesh.n_cap >= 20
    assert mesh.n_facade % 8 == 0 and mesh.n_facade >= 30
    assert len(mesh) == 2 * mesh.n_cap + 2 * mesh.n_facade


def test_disc_mesh_has_no_facade():
    mesh = build_mesh(RodSpec(L=0.0, delta=1.0), n_cap=32, n_facade=64)
    assert not (mesh.tag_mask("facade_top") | mesh.tag_mask("facade_bottom")).any()
    r = np.linalg.norm(mesh.points, axis=1)
    assert np.allclose(r, 1.0, atol=1e-14)


def loop_build_mesh(spec, n_cap, n_facade=0):
    """Reference: the mesh built segment by segment, each cap and side on
    its own, with a tag per node, as ``build_mesh`` once was."""
    L, d = spec.L, spec.delta
    P = np.array([-L / 2.0, 0.0])
    Q = np.array([L / 2.0, 0.0])
    pts, nrm, kap, wts, tags = [], [], [], [], []
    s_cap, w_cap, _ = _segment_rule(np.pi, n_cap)
    n_cap = len(s_cap)

    def cap(center, theta0, tag):
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
        s_fac, w_fac, _ = _segment_rule(L, n_facade)
        n_facade = len(s_fac)

        def facade(y2, reverse, tag):
            x1 = -L / 2.0 + s_fac
            w = w_fac
            if reverse:
                x1, w = x1[::-1], w[::-1]
            pts.append(np.stack([x1, np.full(n_facade, y2)], axis=1))
            nrm.append(np.tile([0.0, np.sign(y2)], (n_facade, 1)))
            kap.append(np.zeros(n_facade))
            wts.append(w.copy())
            tags.append(np.full(n_facade, tag))

        facade(-d, False, TAG_FACADE_BOTTOM)
        cap(Q, -np.pi / 2.0, TAG_CAP_RIGHT)
        facade(d, True, TAG_FACADE_TOP)
        cap(P, np.pi / 2.0, TAG_CAP_LEFT)

    return dict(points=to_world(spec, np.concatenate(pts)),
                normals=np.concatenate(nrm) @ rotation_matrix(spec.angle).T,
                curvatures=np.concatenate(kap), weights=np.concatenate(wts),
                tags=np.concatenate(tags), n_cap=n_cap, n_facade=n_facade)


MESH_CASES = {
    "disc": (RodSpec(L=0.0, delta=0.7, center=(0.3, 0.1)), (32, 64)),
    "default": (RodSpec(L=2.0, delta=0.01), default_counts(RodSpec(L=2.0, delta=0.01))),
    "placed": (RodSpec(L=1.5, delta=0.05, center=(-7.3, 2.9), angle=2.2), (32, 48)),
    "uneven_counts": (RodSpec(L=2.0, delta=0.1, angle=-0.4), (13, 21)),
}


@pytest.mark.parametrize("name", MESH_CASES)
def test_mesh_matches_segment_by_segment_build(name):
    spec, counts = MESH_CASES[name]
    mesh, ref = build_mesh(spec, *counts), loop_build_mesh(spec, *counts)
    n = len(ref["weights"])
    assert len(mesh) == n and (mesh.n_cap, mesh.n_facade) == (ref["n_cap"], ref["n_facade"])
    # the half mesh is built as before; its reflection differs in rounding
    for key in ("points", "normals"):
        assert np.array_equal(getattr(mesh, key)[:n // 2], ref[key][:n // 2])
    extent = np.abs(ref["points"]).max()
    assert np.abs(mesh.points - ref["points"]).max() <= 1e-15 * extent
    assert np.abs(mesh.normals - ref["normals"]).max() <= 1e-15
    assert np.array_equal(mesh.curvatures, ref["curvatures"])
    assert np.array_equal(mesh.weights, ref["weights"])
    for tag in SEGMENTS:
        assert np.array_equal(mesh.tag_mask(tag), ref["tags"] == tag)
    assert not mesh.tag_mask("no_such_segment").any()


@pytest.mark.parametrize("name", MESH_CASES)
def test_unplaced_mesh_is_its_own_point_reflection(name):
    spec = dataclasses.replace(MESH_CASES[name][0], center=(0.0, 0.0), angle=0.0)
    mesh = build_mesh(spec, *MESH_CASES[name][1])
    half = len(mesh) // 2
    # exact, though the rotation by angle 0 may leave a zero component of
    # a facade normal with either sign
    assert np.array_equal(mesh.points[half:], -mesh.points[:half])
    assert np.array_equal(mesh.normals[half:], -mesh.normals[:half])


#: Column g is the sign that mirror g of (e, R1, R2, R1R2) puts on the
#: rod-frame (x1, x2) and (nu1, nu2).
MIRROR_SIGNS = np.array([[1.0, -1.0, 1.0, -1.0],
                         [1.0, 1.0, -1.0, -1.0]])


@pytest.mark.parametrize("name", MESH_CASES)
def test_orbits_are_mirror_images(name):
    spec, counts = MESH_CASES[name]
    mesh = build_mesh(spec, *counts)
    orbits = mesh.orbits
    assert orbits.shape == (4, len(mesh) // 4)
    assert np.array_equal(np.sort(orbits, axis=None), np.arange(len(mesh)))
    xl = to_local(spec, mesh.points)
    nl = mesh.normals @ rotation_matrix(spec.angle)
    # positions carry the rounding of the rigid motion, which grows with
    # the rod's size and its distance from the origin
    scale = np.abs(xl).max() + np.abs(spec.center).max()
    for g in range(4):
        flip = MIRROR_SIGNS[:, g]
        assert np.abs(xl[orbits[g]] - flip * xl[orbits[0]]).max() <= 1e-14 * scale
        assert np.abs(nl[orbits[g]] - flip * nl[orbits[0]]).max() <= 1e-14
        assert np.array_equal(mesh.weights[orbits[g]], mesh.weights[orbits[0]])
        assert np.array_equal(mesh.curvatures[orbits[g]], mesh.curvatures[orbits[0]])
    for tag, side in ((TAG_FACADE_TOP, 1.0), (TAG_FACADE_BOTTOM, -1.0)):
        facade = mesh.tag_mask(tag)
        assert np.abs(xl[facade, 1] - side * spec.delta).max(initial=0.0) <= 1e-14 * scale
        assert np.abs(nl[facade] - [0.0, side]).max(initial=0.0) <= 1e-14


#: graded meshes: the thin_rod benchmark rods, one far below the uniform
#: rule's reach, and a placed short rod with an odd number of facade panels
GRADED_CASES = {
    "thin_rod_0.002": (RodSpec(L=2.0, delta=0.002, angle=0.4), 960),
    "thin_rod_0.001": (RodSpec(L=2.0, delta=0.001, angle=0.4), 992),
    "delta_1e-5": (RodSpec(L=2.0, delta=1e-5, center=(0.1, -0.2), angle=0.3), 1216),
    "delta_1e-7": (RodSpec(L=2.0, delta=1e-7), 1424),
    "odd_panels": (RodSpec(L=1.0, delta=0.05, center=(-7.3, 2.9), angle=2.2), 784),
}


@pytest.mark.parametrize("name", GRADED_CASES)
def test_graded_mesh(name):
    spec, n = GRADED_CASES[name]
    mesh = BoundaryMesh(spec, graded=True)
    assert len(mesh) == n and mesh.rule == "graded"
    assert (mesh.n_cap, mesh.n_facade) == (96, n // 2 - 96)
    assert mesh.weights.sum() == pytest.approx(spec.perimeter, rel=1e-13)
    assert np.linalg.norm(mesh.weights @ mesh.normals) < 1e-12 * spec.perimeter
    # each panel's nodes share its length, which sums its weights
    h = mesh.panel_lengths.reshape(-1, 8)
    assert np.array_equal(h, np.repeat(h[:, :1], 8, axis=1))
    assert np.allclose(h[:, 0], mesh.weights.reshape(-1, 8).sum(axis=1), rtol=1e-14, atol=0)
    # a side's panels: delta/16 at each junction, doubling, none over L/32
    side = h[:mesh.n_facade // 8, 0]
    assert side[0] == side[-1] == spec.delta / 16.0
    assert side.max() <= spec.L / 32.0 * (1.0 + 1e-12)
    assert np.array_equal(side, side[::-1])
    xl = to_local(spec, mesh.points)
    scale = np.abs(xl).max() + np.abs(spec.center).max()
    nl = mesh.normals @ rotation_matrix(spec.angle)
    for g in range(4):
        flip = MIRROR_SIGNS[:, g]
        assert np.abs(xl[mesh.orbits[g]] - flip * xl[mesh.orbits[0]]).max() <= 1e-14 * scale
        assert np.abs(nl[mesh.orbits[g]] - flip * nl[mesh.orbits[0]]).max() <= 1e-14
        assert np.array_equal(mesh.weights[mesh.orbits[g]], mesh.weights[mesh.orbits[0]])


@pytest.mark.parametrize("delta, rule", [(0.1, "uniform"), (0.0025, "uniform"),
                                         (0.0022, "graded"), (0.001, "graded")])
def test_default_mesh_takes_the_rule_with_fewer_nodes(delta, rule):
    # the rules cross at L / delta of about 900; given counts stay uniform
    spec = RodSpec(L=2.0, delta=delta)
    uniform, graded = build_mesh(spec, *default_counts(spec)), BoundaryMesh(spec, graded=True)
    mesh = build_mesh(spec)
    assert mesh.rule == rule and len(mesh) == min(len(uniform), len(graded))
    assert mesh_counts(spec) == (mesh.n_cap, mesh.n_facade, mesh.graded)
    assert build_mesh(spec, n_cap=32).rule == build_mesh(spec, n_facade=64).rule == "uniform"


def test_default_counts_scale_with_slenderness():
    nc1, nf1 = default_counts(RodSpec(L=2.0, delta=0.1))
    nc2, nf2 = default_counts(RodSpec(L=2.0, delta=0.01))
    assert nf2 > nf1
    assert nc1 >= 8 and nc2 >= 8


def test_signed_distance_signs():
    spec = RodSpec(L=2.0, delta=0.1)
    d = signed_distance(spec, np.array([[0.0, 0.0], [0.0, 0.3], [3.0, 0.0]]))
    assert d[0] < 0.0
    assert d[1] == pytest.approx(0.2, abs=1e-12)
    assert d[2] == pytest.approx(2.0 - 0.1, abs=1e-12)


def loop_csv(path, header, floats, ints, strs, flags):
    """Reference: the per-row loop the CSV dumps used before ``write_csv``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i in range(len(flags)):
            w.writerow([ints[i]] + [repr(float(c[i])) for c in floats]
                       + [str(strs[i]), int(flags[i])])


def test_write_csv_matches_row_loop(tmp_path):
    x = np.array([-0.0, 1e-320, 1e300, -1e300, 0.1, 1.0 / 3.0, -2.5e-7, 0.0])
    y = np.linspace(-3.0, 3.0, len(x))
    ints = np.arange(len(x))
    tags = np.full(len(x), "cap_left")
    flags = x > 0.0
    header = ["index", "x", "y", "tag", "flag"]
    loop_csv(tmp_path / "loop.csv", header, (x, y), ints, tags, flags)
    write_csv(str(tmp_path / "new.csv"), header, ints, x, y, tags, flags)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def csv_writer_reference(path, header, *columns):
    """Reference: ``csv.writer`` over the rows, as ``write_csv`` once was."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*(c.astype(int).tolist() if c.dtype == bool else c.tolist()
                          for c in map(np.asarray, columns))))


def test_write_csv_matches_csv_writer_across_blocks(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 37
    rng = np.random.default_rng(7)
    # few distinct values, -0.0 next to 0.0: each keeps its own text
    lattice = rng.choice([-0.0, 0.0, 0.5, -1.25, 1.0 / 3.0], size=n)
    special = rng.choice([np.nan, np.inf, -np.inf, 1e-320, -0.0, 2.5], size=n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    values[:6] = [np.nan, np.inf, -np.inf, 1e-320, -0.0, 0.0]
    ints = np.arange(n) - n // 2
    flags = values > 0.0
    tags = rng.choice(["cap_left", "facade_top"], size=n)
    header = ["lattice", "special", "values", "index", "flag", "tag"]
    cols = (lattice, special, values, ints, flags, tags)
    for rows in (n, CSV_BLOCK_ROWS, 1, 0):
        for case in (cols, cols[:1], cols[2:3], cols[4:5]):
            part = [c[:rows] for c in case]
            csv_writer_reference(tmp_path / "ref.csv", header[:len(part)], *part)
            write_csv(str(tmp_path / "new.csv"), header[:len(part)], *part)
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes()), (rows, len(part))
