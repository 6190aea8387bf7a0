"""Rigid-body dynamics against independent oracles.

Closed-form oracles: 1-link pendulum torque, symbolic (sympy) 2-link
Lagrangian, potential-energy gradients, finite-difference Jacobians and
a numeric power-balance check along the exact flow.
"""

import numpy as np
import pytest

from chains import pendulum_urdf, two_link_arm_urdf
from torquesense.dynamics import (
    com_position,
    com_velocity,
    compute_dynamics_terms,
    coriolis_bias,
    crba,
    forward_dynamics,
    forward_kinematics,
    frame_jacobian,
    frame_transform,
    generalized_rnea,
    rnea,
)
from torquesense.model import parse_model
from torquesense.models import desk_biped
from torquesense.spatial import Transform, exp_so3, log_so3, transform_motion_inv

from reference_dynamics import link_states, mechanical_energy


def static_accel(model, base_pose):
    a = np.zeros(model.nv)
    a[:3] = -base_pose.R.T @ model.gravity
    return a


def random_state(model, seed, base_motion=True):
    r = np.random.default_rng(seed)
    pose = Transform(exp_so3(0.3 * r.normal(size=3)), r.normal(size=3))
    s = r.uniform(-1.0, 1.0, model.ndof)
    nu = r.normal(size=model.nv)
    if not base_motion:
        nu[:6] = 0.0
    return pose, s, nu


def test_pendulum_closed_form():
    mass, length = 1.3, 0.7
    model = parse_model(pendulum_urdf(mass=mass, length=length))
    pose = Transform()
    inertia = mass * length ** 2 + 1e-6  # point mass plus the tiny rod term
    for theta in (0.0, 0.4, -1.1, 2.0):
        for theta_dot, theta_dd in ((0.0, 0.0), (1.7, 0.0), (0.9, -2.5)):
            s = np.array([theta])
            nu = np.zeros(model.nv)
            nu[6] = theta_dot
            accel = static_accel(model, pose)
            accel[6] = theta_dd
            tau = rnea(model, pose, s, nu, accel)
            expected = inertia * theta_dd + mass * 9.81 * length * np.cos(theta)
            assert abs(tau[0] - expected) < 1e-9 * max(1.0, abs(expected))


def test_two_link_symbolic_lagrangian():
    sympy = pytest.importorskip("sympy")
    m1, m2, l1, l2 = 1.2, 0.7, 0.6, 0.4
    i1, i2 = m1 * l1 ** 2 / 12.0, m2 * l2 ** 2 / 12.0
    g = 9.81

    t = sympy.symbols("t")
    q1, q2 = sympy.Function("q1")(t), sympy.Function("q2")(t)
    # planar chain in the x-z plane, angles measured from +x toward +z
    x1 = l1 / 2 * sympy.cos(q1)
    z1 = l1 / 2 * sympy.sin(q1)
    x2 = l1 * sympy.cos(q1) + l2 / 2 * sympy.cos(q1 + q2)
    z2 = l1 * sympy.sin(q1) + l2 / 2 * sympy.sin(q1 + q2)
    T = (m1 * (x1.diff(t) ** 2 + z1.diff(t) ** 2) / 2
         + m2 * (x2.diff(t) ** 2 + z2.diff(t) ** 2) / 2
         + i1 * q1.diff(t) ** 2 / 2
         + i2 * (q1.diff(t) + q2.diff(t)) ** 2 / 2)
    V = g * (m1 * z1 + m2 * z2)
    L = T - V
    taus = [sympy.simplify(L.diff(q.diff(t)).diff(t) - L.diff(q))
            for q in (q1, q2)]
    syms = sympy.symbols("a1 a2 v1 v2 p1 p2")
    subs = list(zip(
        [q1.diff(t, 2), q2.diff(t, 2), q1.diff(t), q2.diff(t), q1, q2], syms))
    fns = [sympy.lambdify(syms, tau.subs(subs), "numpy") for tau in taus]

    model = parse_model(two_link_arm_urdf(m1=m1, m2=m2, l1=l1, l2=l2))
    pose = Transform()
    r = np.random.default_rng(11)
    for _ in range(10):
        p = r.uniform(-2.0, 2.0, 2)
        v = r.uniform(-3.0, 3.0, 2)
        a = r.uniform(-5.0, 5.0, 2)
        nu = np.zeros(model.nv)
        nu[6:] = v
        accel = static_accel(model, pose)
        accel[6:] = a
        tau = rnea(model, pose, s=p, nu=nu, accel=accel)
        ref = np.array([fn(a[0], a[1], v[0], v[1], p[0], p[1]) for fn in fns])
        assert np.allclose(tau, ref, rtol=1e-9, atol=1e-9)


def test_forward_inverse_round_trip():
    model = desk_biped()
    pose, s, nu = random_state(model, 21)
    r = np.random.default_rng(22)
    accel = r.normal(size=model.nv)
    wrenches = [("left_sole", r.normal(size=6)), ("right_sole", r.normal(size=6))]
    full = generalized_rnea(model, pose, s, nu, accel, wrenches)
    # forward dynamics treats the base as unactuated: remove the base
    # wrench by adding it as an extra external wrench at the base link
    wrenches2 = wrenches + [(model.links[0].name, full[:6])]
    back = forward_dynamics(model, pose, s, nu, full[6:], wrenches2)
    assert np.allclose(back, accel, atol=1e-8)


def test_rnea_linear_in_acceleration():
    model = desk_biped()
    pose, s, nu = random_state(model, 31)
    r = np.random.default_rng(32)
    a1, a2 = r.normal(size=model.nv), r.normal(size=model.nv)
    f0 = generalized_rnea(model, pose, s, nu, np.zeros(model.nv))
    f1 = generalized_rnea(model, pose, s, nu, a1) - f0
    f2 = generalized_rnea(model, pose, s, nu, a2) - f0
    f12 = generalized_rnea(model, pose, s, nu, 2.0 * a1 + a2) - f0
    assert np.allclose(f12, 2.0 * f1 + f2, atol=1e-10)


def test_mass_matrix_spd_and_matches_rnea_columns():
    model = desk_biped()
    pose, s, _ = random_state(model, 41)
    nu = np.zeros(model.nv)
    M = crba(model, s)
    assert np.allclose(M, M.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(M)) > 0.0
    # column i of M is the zero-velocity, zero-gravity RNEA of unit accel e_i
    zero_g = generalized_rnea(model, pose, s, nu, np.zeros(model.nv))
    for i in range(model.nv):
        e = np.zeros(model.nv)
        e[i] = 1.0
        col = generalized_rnea(model, pose, s, nu, e) - zero_g
        assert np.allclose(col, M[:, i], atol=1e-10)


def test_coriolis_bias_zero_at_rest():
    model = desk_biped()
    pose, s, _ = random_state(model, 51)
    c = coriolis_bias(model, pose, s, np.zeros(model.nv))
    assert np.allclose(c, 0.0, atol=1e-12)


def test_gravity_bias_matches_potential_gradient():
    # at zero velocity the joint bias is dV/ds (finite-difference oracle)
    model = desk_biped()
    pose, s, _ = random_state(model, 61)
    nu = np.zeros(model.nv)
    terms = compute_dynamics_terms(model, pose, s, nu)
    h = 1e-6
    for j in range(model.ndof):
        sp, sm = s.copy(), s.copy()
        sp[j] += h
        sm[j] -= h
        dV = (mechanical_energy(model, pose, sp, nu)
              - mechanical_energy(model, pose, sm, nu)) / (2.0 * h)
        assert abs(terms.bias[6 + j] - dV) < 1e-6 * max(1.0, abs(dV))
    # base force rows carry the total weight in base coordinates
    assert np.allclose(terms.bias[:3], -model.total_mass * pose.R.T @ model.gravity,
                       atol=1e-9)


def test_frame_jacobian_against_finite_differences():
    model = desk_biped()
    pose, s, _ = random_state(model, 71)
    h = 1e-7
    for frame in ("right_sole", "waist_imu", "torso_push"):
        J = frame_jacobian(model, pose, s, frame)
        H0 = frame_transform(model, pose, s, frame)
        for j in range(model.ndof):
            sp, sm = s.copy(), s.copy()
            sp[j] += h
            sm[j] -= h
            Hp = frame_transform(model, pose, sp, frame)
            Hm = frame_transform(model, pose, sm, frame)
            lin = H0.R.T @ (Hp.p - Hm.p) / (2.0 * h)
            ang = log_so3(H0.R.T @ Hp.R) / h / 2.0 - log_so3(H0.R.T @ Hm.R) / h / 2.0
            col = np.concatenate([lin, ang])
            assert np.allclose(col, J[:, 6 + j], atol=1e-6)


def test_frame_jacobian_consistent_with_link_velocities():
    model = desk_biped()
    pose, s, nu = random_state(model, 81)
    world, vels = link_states(model, pose, s, nu)
    for frame in ("left_sole", "right_foot_ft", "waist_imu"):
        idx, offset = model.frame(frame)
        v_frame = transform_motion_inv(offset, vels[idx])
        J = frame_jacobian(model, pose, s, frame)
        assert np.allclose(J @ nu, v_frame, atol=1e-12)


def test_power_balance_along_exact_flow():
    # with the base held fixed, dE/dt equals tau . sdot; differentiate the
    # energy along the true flow with a 4th-order stencil and tiny RK4 steps
    model = desk_biped()
    pose, s0, _ = random_state(model, 91)
    r = np.random.default_rng(92)
    sdot0 = 0.5 * r.normal(size=model.ndof)
    tau = 2.0 * r.normal(size=model.ndof)

    def joint_accel(s, sdot):
        nu = np.zeros(model.nv)
        nu[6:] = sdot
        M = crba(model, s)
        bias = generalized_rnea(model, pose, s, nu, static_accel(model, pose))
        return np.linalg.solve(M[6:, 6:], tau - bias[6:])

    def rk4(s, sdot, h, n_sub):
        for _ in range(n_sub):
            k1v = joint_accel(s, sdot)
            k2v = joint_accel(s + h / 2 * sdot, sdot + h / 2 * k1v)
            k3v = joint_accel(s + h / 2 * (sdot + h / 2 * k1v), sdot + h / 2 * k2v)
            k4v = joint_accel(s + h * (sdot + h / 2 * k2v), sdot + h * k3v)
            s = s + h * sdot + h * h / 6 * (k1v + k2v + k3v)
            sdot = sdot + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        return s, sdot

    def energy(s, sdot):
        nu = np.zeros(model.nv)
        nu[6:] = sdot
        return mechanical_energy(model, pose, s, nu)

    h = 1e-4
    energies = {}
    for steps in (-2, -1, 1, 2):
        ss, sds = rk4(s0, sdot0, np.sign(steps) * h, abs(steps) * 4)
        energies[steps] = energy(ss, sds)
    dE = (8.0 * (energies[1] - energies[-1])
          - (energies[2] - energies[-2])) / (12.0 * (4 * h))
    expected = tau @ sdot0
    assert abs(dE - expected) < 1e-8 * max(1.0, abs(expected))


def test_com_velocity_matches_finite_difference():
    model = desk_biped()
    pose, s, nu = random_state(model, 101)
    h = 1e-7
    Rp = pose.R @ exp_so3(h * nu[3:6])
    Rm = pose.R @ exp_so3(-h * nu[3:6])
    pp = pose.p + pose.R @ (h * nu[:3])
    pm = pose.p - pose.R @ (h * nu[:3])
    cp = com_position(model, Transform(Rp, pp), s + h * nu[6:])
    cm = com_position(model, Transform(Rm, pm), s - h * nu[6:])
    assert np.allclose((cp - cm) / (2.0 * h),
                       com_velocity(model, pose, s, nu), atol=1e-6)


def test_zero_gravity_static_torques_vanish():
    model = parse_model(pendulum_urdf(), gravity=(0.0, 0.0, 0.0))
    pose = Transform()
    s = np.array([0.7])
    full = generalized_rnea(model, pose, s, np.zeros(model.nv),
                            np.zeros(model.nv))
    assert np.allclose(full, 0.0, atol=1e-12)


def test_base_only_model():
    doc = """
<robot name="solo">
  <link name="base">
    <inertial><mass value="2"/><inertia ixx="0.1" iyy="0.1" izz="0.1"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="base"/></joint>
</robot>"""
    model = parse_model(doc)
    assert model.ndof == 0
    pose = Transform()
    M = crba(model, np.zeros(0))
    assert np.allclose(M, model.links[0].spatial_inertia())
    full = generalized_rnea(model, pose, np.zeros(0), np.zeros(6),
                            static_accel(model, pose))
    assert np.allclose(full[:3], [0.0, 0.0, 2.0 * 9.81], atol=1e-12)


def test_forward_kinematics_chain_composition():
    model = desk_biped()
    pose, s, _ = random_state(model, 111)
    world = forward_kinematics(model, pose, s)
    for link in model.links[1:]:
        # child world transform = parent world transform * joint transform
        rel = world[link.parent].inverse() * world[link.index]
        recomposed = world[link.parent] * rel
        assert np.allclose(recomposed.homogeneous(),
                           world[link.index].homogeneous(), atol=1e-12)
