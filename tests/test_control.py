"""Balancer, torque PI loop, position baseline and the control config."""

import dataclasses

import numpy as np
import pytest

import reference_dynamics as ref
from chains import pendulum, serial_leg
from torquesense import control
from torquesense.control import (
    MODES,
    WIRING,
    ControlConfig,
    TorquePI,
    high_level_balancer,
    position_pd,
    rnea_torque_feedback,
)
from torquesense.dynamics import com_position, forward_pass
from torquesense.model import desk_biped
from torquesense.plant import Plant, ScenarioConfig
from torquesense.spatial import Transform, exp_so3, log_so3


def standing_setup():
    model = desk_biped()
    pose = Transform(p=np.array([0.0, 0.0, 0.5]))
    s = np.zeros(model.ndof)
    nu = np.zeros(model.nv)
    return model, pose, s, nu


def balancer_at_rest():
    model, pose, s, nu = standing_setup()
    com = com_position(forward_pass(model, pose, s, nu))
    tau_d = high_level_balancer(model, pose, s, nu, com, np.zeros(3),
                                np.zeros(3), posture_ref=s)
    return model, tau_d


def test_mode_lists():
    assert len(MODES) == 7
    assert "PositionControl" in MODES
    assert [m for m in MODES if WIRING[m].friction_nets] == [
        "Feedforward-PINN", "RNEA-PINN", "UKF-PINN"]


def test_config_validation():
    # the mode is the one setting; the gains are the same in every mode
    assert [f.name for f in dataclasses.fields(ControlConfig)] == ["mode"]
    with pytest.raises(ValueError, match="mode"):
        ControlConfig(mode="MagicMode")
    with pytest.raises(TypeError, match="low_rate"):
        ControlConfig(low_rate=500.0)  # the torque loop runs every plant step


NAN, INF = float("nan"), float("inf")


# the gains, rates and limits are module constants: a config that sets
# one, to any value, is rejected when it is built
@pytest.mark.parametrize("field, value", [
    ("high_rate", NAN), ("high_rate", INF), ("current_limit", -1.0),
    ("current_limit", 0.0), ("force_reg", -1.0), ("force_reg", 0.0),
    ("comp_cutoff", -1.0), ("comp_cutoff", NAN), ("integral_limit", -1.0),
    ("kp_posture", -1.0), ("kd_posture", NAN), ("kp_torque", NAN),
    ("kd_pos", INF), ("ki_torque", "30"), ("kp_torque", 0.52),
])
def test_control_fields_are_checked_at_construction(field, value):
    assert hasattr(control, field.upper())
    with pytest.raises(TypeError,
                       match=rf"unexpected keyword argument '{field}'"):
        ControlConfig(**{field: value})


def test_balancer_requires_contact():
    # the balancer distributes the base wrench over the model's soles
    model, pose, s, nu = standing_setup()
    model.sole_frames = ()
    with pytest.raises(RuntimeError, match="the model has no soles"):
        high_level_balancer(model, pose, s, nu, np.zeros(3), np.zeros(3),
                            np.zeros(3), posture_ref=s)


def test_balancer_mirror_symmetry():
    # symmetric robot, symmetric state: left/right torques mirror exactly
    model, tau_d = balancer_at_rest()
    ji = model.joint_names.index
    assert abs(tau_d[ji("left_hip_pitch")] - tau_d[ji("right_hip_pitch")]) < 1e-9
    assert abs(tau_d[ji("left_ankle_pitch")] - tau_d[ji("right_ankle_pitch")]) < 1e-9
    # roll joints see mirrored moments
    assert abs(tau_d[ji("left_hip_roll")] + tau_d[ji("right_hip_roll")]) < 1e-9


def balancer_oracle(model, pose, s, nu, com_ref, com_vel_ref, com_acc_ref,
                    posture_ref):
    """The balancer from the per-link recursions of reference_dynamics.

    The bias is the RNEA at the static proper acceleration and the
    contact Jacobians are built one frame at a time.
    """
    accel = np.zeros(model.nv)
    accel[:3] = -pose.R.T @ model.gravity
    bias = ref.generalized_rnea(model, pose, s, nu, accel)
    jacobians = [ref.frame_jacobian(model, pose, s, f)
                 for f in ("left_sole", "right_sole")]
    com = com_position(forward_pass(model, pose, s, nu))
    com_vel = ref.com_velocity(model, pose, s, nu)
    acc_world = (com_acc_ref + control.KP_COM * (com_ref - com)
                 + control.KD_COM * (com_vel_ref - com_vel))
    extra = np.concatenate([
        model.total_mass * (pose.R.T @ acc_world),
        control.KP_ATT * log_so3(pose.R.T) - control.KD_ATT * nu[3:6]])
    A = np.hstack([J[:, :6].T for J in jacobians])
    f = A.T @ np.linalg.solve(A @ A.T + control.FORCE_REG * np.eye(6),
                              bias[:6] + extra)
    tau_d = bias[6:].copy()
    for k, J in enumerate(jacobians):
        tau_d -= J[:, 6:].T @ f[6 * k:6 * k + 6]
    tau_d += (control.KP_POSTURE * (posture_ref - s)
              - control.KD_POSTURE * nu[6:])
    return tau_d


def test_balancer_matches_the_recursion_oracle():
    # asymmetric standing states: a tilted, moving base, bent joints and
    # CoM references off the current CoM
    model = desk_biped()
    r = np.random.default_rng(7)
    for _ in range(3):
        pose = Transform(exp_so3(0.1 * r.normal(size=3)),
                         np.array([0.0, 0.0, 0.5]) + 0.02 * r.normal(size=3))
        s = 0.3 * r.normal(size=model.ndof)
        nu = 0.5 * r.normal(size=model.nv)
        com_ref, com_vel_ref, com_acc_ref = 0.02 * r.normal(size=(3, 3))
        com_ref = com_ref + [0.0, 0.0, 0.45]
        posture_ref = 0.1 * r.normal(size=model.ndof)
        args = (model, pose, s, nu, com_ref, com_vel_ref, com_acc_ref,
                posture_ref)
        expected = balancer_oracle(*args)
        tau_d = high_level_balancer(*args)
        # the 6x6 system A A^T + reg I is well conditioned (~3), so the
        # 1e-16 differences between the recursions and the batched pass
        # stay at rounding level, while a wrong frame, sign or stacking
        # order errs by O(1)
        assert np.max(np.abs(tau_d - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_balancer_gravity_compensation_holds_the_plant():
    # at zero tracking error the commanded torques are statics: applied
    # open loop to a stiction-free plant they hold the standing pose
    scen = ScenarioConfig(
        noise={"quantize": False, "current_std": 0.0, "ft_force_std": 0.0,
               "ft_torque_std": 0.0, "imu_acc_std": 0.0, "imu_gyro_std": 0.0},
        joints={"default": {"friction": {"coulomb": 0.0, "breakaway": 0.0,
                                         "viscous": 2.0}}})
    plant = Plant(scen)
    state = plant.initial_state()
    com0 = state.com.copy()
    currents = None
    for k in range(500):
        if k % 10 == 0:   # 100 Hz statics refresh, as in the real stack
            tau_d = high_level_balancer(
                plant.model, state.base_pose(), state.s,
                np.concatenate([state.base_twist, state.sdot]),
                com0, np.zeros(3), np.zeros(3), posture_ref=np.zeros(plant.n))
            currents = tau_d / (plant.reduction * plant.k_t)
        state, _ = plant.step(state, currents)
    assert np.linalg.norm(state.com - com0) < 0.01
    assert np.max(np.abs(state.sdot)) < 0.5


def test_rnea_feedback_static_accuracy():
    # settle the plant briefly, then inverse dynamics from true state and
    # true FT wrenches reproduces the true joint torque within 2% of range
    plant = Plant(ScenarioConfig())
    state = plant.initial_state()
    for _ in range(400):
        state, _ = plant.step(state, np.zeros(plant.n))
    accel = np.concatenate([state.base_prop_acc, state.joint_acc])
    # FT k sits at sole k, so the sole wrenches are the FT readings
    est = rnea_torque_feedback(plant.model, state.s,
                               np.concatenate([state.base_twist, state.sdot]),
                               accel, state.contact_wrenches)
    scale = max(1.0, np.max(np.abs(state.tau)))
    assert np.max(np.abs(est - state.tau)) < 0.02 * scale


def turned_ft_leg():
    """The serial leg with FT frames off their links' origins and turned,
    at the foot and at the shin, in that order."""
    model = serial_leg()
    model.add_frame("foot_ft", "foot", Transform(exp_so3([0.3, -0.2, 0.5]),
                                                 [0.04, -0.01, -0.05]))
    model.add_frame("shin_ft", "shin", Transform(exp_so3([-0.4, 0.1, 0.2]),
                                                 [0.01, 0.02, -0.1]))
    model.ft_frames = ("foot_ft", "shin_ft")
    return model


@pytest.mark.parametrize("make_model", [desk_biped, turned_ft_leg],
                         ids=["desk_biped", "turned_ft_leg"])
def test_rnea_feedback_matches_the_recursion_oracle(make_model):
    # the feedback maps each FT wrench through its frame's Jacobian; the
    # oracle moves it onto its link and runs the per-link recursion, so a
    # wrong frame, sign or stacking order errs by O(1).  The oracle runs
    # at a random base pose, which the feedback does not read: with nu
    # and the proper acceleration in base coordinates the joint rows are
    # the same at any pose
    model = make_model()
    r = np.random.default_rng(5)
    k = len(model.ft_frames)
    for _ in range(4):
        pose = Transform(exp_so3(0.3 * r.normal(size=3)), r.normal(size=3))
        s = r.uniform(-1.0, 1.0, model.ndof)
        nu, accel = r.normal(size=(2, model.nv))
        ft = np.hstack([50.0 * r.normal(size=(k, 3)),
                        5.0 * r.normal(size=(k, 3))])
        expected = ref.generalized_rnea(model, pose, s, nu, accel,
                                        zip(model.ft_frames, ft))[6:]
        est = rnea_torque_feedback(model, s, nu, accel, ft)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(est - expected)) <= 1e-10 * scale


def test_rnea_feedback_zero_gravity_static():
    model = pendulum(gravity=(0.0, 0.0, 0.0))
    est = rnea_torque_feedback(model, np.zeros(1), np.zeros(model.nv),
                               np.zeros(model.nv), np.zeros((0, 6)))
    assert np.allclose(est, 0.0, atol=1e-12)


def test_torque_pi_feedforward_only():
    pi = TorquePI(2, dt=1e-3)
    tau_d = np.array([3.0, -5.0])
    assert np.array_equal(pi(tau_d), tau_d)
    assert np.array_equal(pi.integral, np.zeros(2))


def test_torque_pi_zero_error_leaves_no_integral():
    pi = TorquePI(1, dt=1e-3)
    tau_d = np.array([4.0])
    for _ in range(5):
        tau = pi(tau_d, tau_feedback=tau_d)
    assert np.array_equal(pi.integral, [0.0])
    assert np.array_equal(tau, tau_d)


def test_torque_pi_proportional_action_and_compensation():
    pi = TorquePI(1, dt=1e-3)
    tau = pi(np.array([2.0]), tau_feedback=np.array([1.0]),
             tau_f_comp=np.array([0.7]))
    # one tick of unit error: integral 1 * 1e-3 * KI_TORQUE = 0.03, so
    # tau_cmd = 2 + KP_TORQUE * (2 - 1) + 0.03 = 2.55; plus compensation
    # 0.7
    assert (control.KP_TORQUE, control.KI_TORQUE) == (0.52, 30.0)
    assert np.allclose(pi.integral, [0.03])
    assert np.allclose(tau, [3.25])


def test_torque_pi_anti_windup():
    # a held 500 N.m error winds the integral up to its clamp and no
    # further; the command is the torque, unclipped (the controller's
    # output stage clips the currents)
    pi = TorquePI(1, dt=1e-3)
    for _ in range(10_000):
        tau = pi(np.array([500.0]), tau_feedback=np.array([0.0]))
    assert pi.integral[0] == control.INTEGRAL_LIMIT
    assert tau[0] == 500.0 + control.KP_TORQUE * 500.0 + control.INTEGRAL_LIMIT
    for _ in range(10_000):
        tau = pi(np.array([-500.0]), tau_feedback=np.array([0.0]))
    assert pi.integral[0] == -control.INTEGRAL_LIMIT


def test_position_pd_law():
    tau = position_pd(np.array([0.1, 0.0]), np.array([0.0, 0.0]),
                      np.array([0.0, 0.5]))
    assert np.allclose(tau, [control.KP_POS * 0.1, -control.KD_POS * 0.5])
    # a 10 rad error commands 9 kN.m: the law itself has no limit
    assert position_pd([10.0], [0.0], [0.0])[0] == control.KP_POS * 10.0
