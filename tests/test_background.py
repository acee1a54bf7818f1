"""Harmonic background potentials: exactness and harmonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfield import HarmonicBackground

coef = st.floats(-2.0, 2.0)


def test_linear_constructor():
    bg = HarmonicBackground.linear((2.0, -1.0))
    assert bg.is_linear
    assert np.allclose(bg.linear_part, [2.0, -1.0])
    x = np.array([[1.0, 3.0]])
    assert bg.value(x)[0] == pytest.approx(-1.0)
    assert np.allclose(bg.grad(x), [[2.0, -1.0]])
    assert np.allclose(bg.hessian(x), 0.0)


def test_linear_value_is_finite_where_squares_overflow():
    # with c3 = 0, c3 x1^2 would be 0 * inf = nan once |x| passes 1.35e154,
    # where H itself is finite
    x = np.array([[1e200, -3.0], [-3.0, 1e300], [1e200, 1e200]])
    assert np.array_equal(HarmonicBackground.linear((1.0, 0.5)).value(x),
                          [1e200, 5e299, 1.5e200])


def test_polynomial_length_check():
    with pytest.raises(ValueError):
        HarmonicBackground.polynomial((1.0, 2.0))


@pytest.mark.parametrize("a", [(1.0,), (1.0, 0.5, 7.0), ((1.0, 0.5),)])
def test_linear_length_check(a):
    with pytest.raises(ValueError):
        HarmonicBackground.linear(a)


@given(coef, coef, coef, coef, coef, st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_harmonicity(c0, c1, c2, c3, c4, x1, x2):
    bg = HarmonicBackground.polynomial((c0, c1, c2, c3, c4))
    h = bg.hessian(np.array([x1, x2]))
    assert abs(h[0, 0] + h[1, 1]) < 1e-12


def test_grad_matches_finite_differences():
    bg = HarmonicBackground.polynomial((0.5, 1.0, -2.0, 0.7, 0.3))
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(20, 2))
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (bg.value(x + e) - bg.value(x - e)) / (2 * eps)
        assert np.allclose(bg.grad(x)[:, j], fd, atol=1e-8)


@given(st.floats(-np.pi, np.pi), coef, coef, coef, coef)
@settings(max_examples=40, deadline=None)
def test_rotated_composition(angle, c1, c2, c3, c4):
    bg = HarmonicBackground.polynomial((0.2, c1, c2, c3, c4))
    rot = bg.rotated(angle)
    ca, sa = np.cos(angle), np.sin(angle)
    R = np.array([[ca, -sa], [sa, ca]])
    x = np.array([[0.7, -1.3], [2.0, 0.4]])
    assert np.allclose(rot.value(x), bg.value(x @ R.T), atol=1e-10)
