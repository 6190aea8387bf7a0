"""6D spatial algebra: rotation maps, transforms, cross products, inertia."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torquesense.spatial import (
    Transform,
    cross3,
    exp_so3,
    log_so3,
    skew,
)

from reference_spatial import (
    apply,
    compose,
    cross_force,
    cross_motion,
    force_matrix,
    inverse,
    motion_matrix,
    rotation_about_axis,
    spatial_inertia,
    transform_force,
    transform_motion,
    transform_motion_inv,
)

finite3 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3)


def random_transform(seed):
    r = np.random.default_rng(seed)
    return Transform(exp_so3(r.normal(size=3)), r.normal(size=3))


@given(finite3, finite3)
def test_cross3_matches_numpy(a, b):
    assert np.allclose(cross3(np.array(a), np.array(b)), np.cross(a, b))


@given(finite3, finite3)
def test_skew_is_cross_operator(v, u):
    v, u = np.array(v), np.array(u)
    assert np.allclose(skew(v) @ u, np.cross(v, u))
    assert np.allclose(skew(v), -skew(v).T)


def test_rotation_about_axis_oracle():
    # quarter turn about z maps x-axis to y-axis
    R = rotation_about_axis([0.0, 0.0, 1.0], np.pi / 2)
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    # scipy reference on a generic axis/angle
    scipy_rot = pytest.importorskip("scipy.spatial.transform").Rotation
    axis = np.array([1.0, 2.0, -0.5])
    axis /= np.linalg.norm(axis)
    angle = 0.7
    ref = scipy_rot.from_rotvec(axis * angle).as_matrix()
    assert np.allclose(rotation_about_axis(axis, angle), ref, atol=1e-12)


@settings(max_examples=50)
@given(finite3)
def test_exp_so3_is_rotation(w):
    R = exp_so3(np.array(w))
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
    assert np.isclose(np.linalg.det(R), 1.0, atol=1e-9)


def test_exp_log_round_trip():
    r = np.random.default_rng(3)
    for _ in range(50):
        w = r.normal(size=3)
        w *= min(1.0, 3.0 / np.linalg.norm(w))  # keep angle below pi
        assert np.allclose(log_so3(exp_so3(w)), w, atol=1e-9)


def test_exp_so3_small_angle():
    w = np.array([1e-14, -2e-14, 1e-14])
    assert np.allclose(exp_so3(w), np.eye(3) + skew(w), atol=1e-20)
    assert np.allclose(log_so3(np.eye(3)), 0.0)


def test_exp_so3_rejects_an_angle_that_overflows():
    # finite components whose squares overflow: math.sin(inf) used to
    # raise "ValueError: math domain error"
    with pytest.raises(FloatingPointError, match="overflows"):
        exp_so3(np.array([1e160, 0.0, -1e160]))
    assert np.all(np.isfinite(exp_so3(np.array([1e150, 0.0, 0.0]))))


def test_exp_so3_closed_form_matches_rodrigues():
    # the closed form on floats against the matrix form of
    # rotation_about_axis, from far below the series threshold to just
    # short of a half turn
    r = np.random.default_rng(11)
    for angle in np.geomspace(1e-14, np.pi - 1e-6, 200):
        axis = r.normal(size=3)
        axis /= np.linalg.norm(axis)
        assert np.max(np.abs(exp_so3(angle * axis)
                             - rotation_about_axis(axis, angle))) <= 1e-15


def test_transform_compose_inverse_apply():
    A = random_transform(1)
    B = random_transform(2)
    p = np.array([0.3, -1.2, 2.0])
    # composition agrees with homogeneous-matrix composition
    assert np.allclose(compose(A, B).homogeneous(), A.homogeneous() @ B.homogeneous())
    assert np.allclose(apply(compose(A, B), p), apply(A, apply(B, p)))
    inv = inverse(A)
    assert np.allclose(compose(A, inv).homogeneous(), np.eye(4), atol=1e-12)
    assert np.allclose(apply(inv, apply(A, p)), p, atol=1e-12)


def test_transform_functions_match_matrices():
    H = random_transform(4)
    r = np.random.default_rng(5)
    v = r.normal(size=6)
    f = r.normal(size=6)
    assert np.allclose(transform_motion(H, v), motion_matrix(H) @ v, atol=1e-12)
    assert np.allclose(transform_force(H, f), force_matrix(H) @ f, atol=1e-12)
    assert np.allclose(transform_motion_inv(H, transform_motion(H, v)), v,
                       atol=1e-12)


def test_power_invariance_under_transforms():
    # f . v is frame independent when both are mapped by the same transform
    H = random_transform(6)
    r = np.random.default_rng(7)
    for _ in range(20):
        v = r.normal(size=6)
        f = r.normal(size=6)
        power_b = f @ v
        power_a = transform_force(H, f) @ transform_motion(H, v)
        assert abs(power_a - power_b) < 1e-12 * max(1.0, abs(power_b))


def test_force_matrix_is_inverse_transpose_of_motion_matrix():
    H = random_transform(8)
    assert np.allclose(force_matrix(H),
                       np.linalg.inv(motion_matrix(H)).T, atol=1e-12)


def test_cross_duality():
    # v x* f is the force-space dual of v x: (v x m) . f = -m . (v x* f)
    r = np.random.default_rng(9)
    for _ in range(20):
        v, m, f = r.normal(size=6), r.normal(size=6), r.normal(size=6)
        assert np.isclose(cross_motion(v, m) @ f, -(m @ cross_force(v, f)),
                          atol=1e-12)
    # self-annihilation: v x v = 0
    v = r.normal(size=6)
    assert np.allclose(cross_motion(v, v), 0.0, atol=1e-12)


def test_spatial_inertia_energy_oracle():
    # kinetic energy of a rigid body: 1/2 m |v_com|^2 + 1/2 w . I_com w
    mass, com = 2.5, np.array([0.1, -0.2, 0.3])
    I_com = np.diag([0.2, 0.3, 0.4])
    I = spatial_inertia(mass, com, I_com)
    assert np.allclose(I, I.T)
    assert np.all(np.linalg.eigvalsh(I) > 0.0)
    r = np.random.default_rng(10)
    v = r.normal(size=6)
    v_com = v[:3] + np.cross(v[3:], com)
    ke_ref = 0.5 * mass * v_com @ v_com + 0.5 * v[3:] @ I_com @ v[3:]
    assert np.isclose(0.5 * v @ I @ v, ke_ref, rtol=1e-12)
