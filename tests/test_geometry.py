"""Mesh construction and coordinate-frame invariants."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfield import RodSpec, ValidationError, build_mesh, to_local, to_world
from rodfield.geometry import (CSV_BLOCK_ROWS, default_counts, rotation_matrix,
                               signed_distance, write_csv)


def test_spec_validation():
    with pytest.raises(ValidationError):
        RodSpec(L=-1.0, delta=0.1)
    with pytest.raises(ValidationError):
        RodSpec(L=2.0, delta=0.0)
    with pytest.raises(ValidationError):
        RodSpec(L=2.0, delta=0.1, sigma0=-3.0)
    with pytest.raises(ValidationError):
        RodSpec(L=2.0, delta=0.1, sigma0=1.0)


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
    # few distinct values, -0.0 next to 0.0: formatted once per bit pattern
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
