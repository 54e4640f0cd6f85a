"""Tangent fields: evaluation, Jacobians, Lie brackets, transport."""

from __future__ import annotations

import numpy as np
import pytest

from subcart.expr import compile_vector, parse
from subcart.field import FieldError, TangentField, lie_bracket
from subcart.flow import transport_vector
from subcart.space import SubcartesianSpace

from conftest import make_field, punctured_plane

BRACKET_TOL = 1e-6

SAMPLE_POINTS = [(0.7, -0.3), (1.2, 0.5), (-0.8, 1.1), (0.1, 0.9)]


def at(f: TangentField, p) -> np.ndarray:
    """The field's value at p as an ndarray, for the arithmetic below."""
    return np.array(f.value([float(v) for v in p]))


def fd_bracket(x: TangentField, y: TangentField, p, h: float = 1e-6) -> np.ndarray:
    """[X,Y](p) = (DY)X - (DX)Y via central-difference Jacobians."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    jx = np.zeros((n, n))
    jy = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jx[:, j] = (at(x, p + e) - at(x, p - e)) / (2 * h)
        jy[:, j] = (at(y, p + e) - at(y, p - e)) / (2 * h)
    return jy @ at(x, p) - jx @ at(y, p)


def test_an_odd_power_past_2_53_keeps_its_sign():
    # Python's float ** reads 2^53 + 1 as the even 2^53, which gave [1.0] at -1
    f = make_field("odd", ["x1^9007199254740993"], 1)
    assert f.value([-1.0]) == [-1.0]
    assert f.value([1.0]) == [1.0]
    with pytest.raises(OverflowError):  # which the CLI reports as bad input
        f.value([-2.0])


def test_field_basics():
    f = make_field("rot", ["-x2", "x1"], 2)
    assert f.dim == 2
    assert f.value([3.0, 4.0]) == [-4.0, 3.0]
    assert all(type(v) is float for v in f.value([3.0, 4.0]))
    with pytest.raises(FieldError):
        TangentField("empty", [])


def test_apply_directional_derivative():
    f = make_field("rot", ["-x2", "x1"], 2)
    r2 = parse("x1^2+x2^2", 2)
    d = f.apply(r2)
    vals = compile_vector([d])
    for p in SAMPLE_POINTS:
        assert abs(vals(p)[0]) <= 1e-14


def test_bracket_known_pairs():
    n = 2
    ddx = make_field("ddx", ["1", "0"], n)
    xddy = make_field("xddy", ["0", "x1"], n)
    b = lie_bracket(ddx, xddy)
    for p in SAMPLE_POINTS:
        assert np.allclose(at(b, p), [0.0, 1.0], atol=1e-15)
    rot = make_field("rot", ["-x2", "x1"], n)
    rad = make_field("rad", ["x1", "x2"], n)
    c = lie_bracket(rot, rad)
    for p in SAMPLE_POINTS:
        assert np.allclose(at(c, p), [0.0, 0.0], atol=1e-15)
    xddx = make_field("xddx", ["x1"], 1)
    d = lie_bracket(xddx, make_field("ddx", ["1"], 1))
    assert np.allclose(at(d, [2.0]), [-1.0])


def test_bracket_matches_finite_differences():
    x = make_field("x", ["x1*x2", "x2^2-x1"], 2)
    y = make_field("y", ["sin(x1)", "x1+cos(x2)"], 2)
    b = lie_bracket(x, y)
    for p in SAMPLE_POINTS:
        assert np.linalg.norm(at(b, p) - fd_bracket(x, y, p)) <= BRACKET_TOL


def test_bracket_antisymmetry_and_dim_check():
    x = make_field("x", ["x2", "x1^2"], 2)
    y = make_field("y", ["x1", "1"], 2)
    b1 = lie_bracket(x, y)
    b2 = lie_bracket(y, x)
    for p in SAMPLE_POINTS:
        assert np.allclose(at(b1, p), -at(b2, p), atol=1e-14)
    with pytest.raises(FieldError):
        lie_bracket(x, make_field("z", ["1"], 1))


def test_scaled_leibniz_identity():
    # [fX, Y] = f[X,Y] - (Y.f) X
    f = parse("x1^2+1", 2)
    x = make_field("x", ["x2", "1"], 2)
    y = make_field("y", ["x1", "x2"], 2)
    lhs = lie_bracket(x.scaled(f), y)
    base = lie_bracket(x, y)
    yf = compile_vector([y.apply(f)])
    fv = compile_vector([f])
    for p in SAMPLE_POINTS:
        rhs = fv(p)[0] * at(base, p) - yf(p)[0] * at(x, p)
        assert np.allclose(at(lhs, p), rhs, atol=1e-13)


def test_scaled_label_and_numeric_factor():
    x = make_field("x", ["1", "0"], 2)
    s = x.scaled(2.0)
    assert np.allclose(at(s, [0.0, 0.0]), [2.0, 0.0])
    assert s.label == "(2.0)*x"


def test_pushforward_along_rotation():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    ddx = make_field("ddx", ["1", "0"], 2)
    t = 0.5
    image, vec = transport_vector(pp, rot, t, [1.0, 0.0], ddx.value([1.0, 0.0]))
    assert np.allclose(image, [np.cos(t), np.sin(t)], atol=1e-9)
    # the flow is the rotation matrix, so the carried vector is its first column
    assert np.allclose(vec, [np.cos(t), np.sin(t)], atol=1e-8)
