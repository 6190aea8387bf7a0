"""Cascaded balancing control stack and its mode switchboard.

Two rates: a center-of-mass balancer producing desired joint torques
at `HIGH_RATE` (100 Hz; its period must be a whole multiple of the
plant step), and the estimators with a PI torque loop producing the
torque command once per plant step (1 kHz at the default 1 ms step).
Every law here returns joint torques; the controller's one output
stage (`experiments.Controller.tick`) divides them by N k_t and clips
the currents to `CURRENT_LIMIT`.  How
each mode closes the loop, its torque feedback, friction feedforward
and output law, is its row of `WIRING`; no other module tells the modes
apart.  The gains, rates and limits below are the same in every mode.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import (com_position, com_velocity, forward_pass,
                       frame_jacobian, static_proper_accel)
from .spatial import Transform, log_so3


# A mode's loop: the PI loop's torque `feedback` ("filter", "rnea", None),
# `friction_nets` for the feedforward and the filter, and the `balancer`
# driving the PI loop (else a stiff position PD holds the posture).
Wiring = namedtuple("Wiring", "feedback friction_nets balancer",
                    defaults=(None, False, True))


WIRING = {
    "Feedforward": Wiring(),
    "RNEA-NoComp": Wiring(feedback="rnea"),
    "UKF-NoComp": Wiring(feedback="filter"),
    "Feedforward-PINN": Wiring(friction_nets=True),
    "RNEA-PINN": Wiring(feedback="rnea", friction_nets=True),
    "UKF-PINN": Wiring(feedback="filter", friction_nets=True),
    "PositionControl": Wiring(balancer=False),
}
MODES = tuple(WIRING)

KP_TORQUE = 0.52        # dimensionless, on torque error
KI_TORQUE = 30.0        # 1/s
INTEGRAL_LIMIT = 4.0    # N*m
CURRENT_LIMIT = 10.0    # A
KP_COM = 60.0           # 1/s^2
KD_COM = 15.0           # 1/s
KP_ATT = 80.0           # N*m/rad
KD_ATT = 20.0           # N*m*s/rad
FORCE_REG = 1e-6        # wrench-distribution regularization
KP_POSTURE = 20.0       # N*m/rad, joint-space posture task
KD_POSTURE = 2.0        # N*m*s/rad
COMP_CUTOFF = 8.0       # Hz, smoothing on friction feedforward
KP_POS = 900.0          # N*m/rad (position baseline)
KD_POS = 30.0           # N*m*s/rad
HIGH_RATE = 100.0       # Hz, balancer; torque loop runs every plant step


@dataclass
class ControlConfig:
    """The control mode, one of `MODES`; an unknown mode is rejected."""
    mode: str = "UKF-PINN"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown control mode {self.mode!r}")


def high_level_balancer(model, base_pose, s, nu, com_ref, com_vel_ref,
                        com_acc_ref, posture_ref):
    """Desired joint torques realizing a CoM/attitude PD, run at `HIGH_RATE`.

    The attitude PD holds the base upright (world-aligned).

    Solves the base-wrench balance for the model's sole wrenches
    (regularized least squares over the stacked sole Jacobians) and maps
    them to joint torques through joint-space statics.  A joint-space
    posture PD toward `posture_ref` stabilizes the joints the contact
    Jacobians cannot see (e.g. torso joints).  With zero tracking error
    this returns exact gravity-compensation torques.
    """
    if not model.sole_frames:
        raise RuntimeError("controller inactive: the model has no soles")
    fp = forward_pass(model, base_pose, s, nu)
    # the coordinate-acceleration bias, gravity included, and the
    # stacked (k, 6, nv) contact Jacobians
    bias = fp.inverse_dynamics(static_proper_accel(fp))
    J = frame_jacobian(fp, model.sole_frames)
    com = com_position(fp)
    com_vel = com_velocity(fp)

    # desired net wrench change on the base rows, base frame
    acc_world = (np.asarray(com_acc_ref, float)
                 + KP_COM * (np.asarray(com_ref, float) - com)
                 + KD_COM * (np.asarray(com_vel_ref, float) - com_vel))
    R = base_pose.R
    extra = np.zeros(6)
    extra[:3] = model.total_mass * (R.T @ acc_world)
    att_err = log_so3(R.T)                    # body-frame attitude error
    extra[3:] = KP_ATT * att_err - KD_ATT * nu[3:6]

    w_des = bias[:6] + extra
    # the base rows of the stacked J^T; column 6 k + i is row i of J_k
    A = J[:, :, :6].reshape(-1, 6).T
    # damped least squares keeps the distribution unique and bounded;
    # its minimiser (A^T A + reg I)^-1 A^T w is A^T (A A^T + reg I)^-1 w,
    # a 6x6 solve
    f = A.T @ np.linalg.solve(A @ A.T + FORCE_REG * np.eye(6), w_des)
    tau_d = bias[6:] - J[:, :, 6:].reshape(-1, model.ndof).T @ f
    tau_d += KP_POSTURE * (np.asarray(posture_ref, float) - s) \
        - KD_POSTURE * nu[6:]
    return tau_d


def rnea_torque_feedback(model, s, nu, proper_accel, ft_readings):
    """Joint torques from inverse dynamics with FT wrenches as the only
    external forces, at the identity base pose like the filter's pass
    (`ukf`): `nu` and `proper_accel` are in base coordinates.

    `ft_readings` rows follow the model's `ft_frames`, each in its frame's
    coordinates, and enter as -J^T f as in the balancer.  Unmeasured
    contacts are invisible to this estimate; they show up as joint-torque
    error instead, the failure mode the filter-based feedback avoids.
    """
    fp = forward_pass(model, Transform(), s, nu)
    J = frame_jacobian(fp, model.ft_frames)[:, :, 6:].reshape(-1, model.ndof)
    return fp.inverse_dynamics(proper_accel)[6:] - J.T @ np.ravel(ft_readings)


class TorquePI:
    """PI loop on torque error with anti-windup, run each plant step; it
    returns the torque command, which the controller's output stage
    turns into clipped currents."""

    def __init__(self, n, dt):
        self.dt = dt
        self.integral = np.zeros(n)

    def __call__(self, tau_d, tau_feedback=None, tau_f_comp=None):
        """Torque command; feedback/compensation may each be omitted."""
        tau_d = np.asarray(tau_d, dtype=float)
        if tau_feedback is None:
            tau_cmd = tau_d
        else:
            err = tau_d - np.asarray(tau_feedback, dtype=float)
            self.integral = np.minimum(
                np.maximum(self.integral + err * self.dt * KI_TORQUE,
                           -INTEGRAL_LIMIT), INTEGRAL_LIMIT)
            tau_cmd = tau_d + KP_TORQUE * err + self.integral
        return tau_cmd if tau_f_comp is None else tau_cmd + np.asarray(tau_f_comp, float)


def position_pd(s_des, s_meas, sdot_meas):
    """Torques of the stiff per-joint position controller (the compliance
    baseline).

    Feedback must be collocated with the actuator (motor-side encoder
    mapped to the joint side): closing a stiff PD on the joint encoder
    through the elastic transmission excites the transmission resonance.
    """
    return KP_POS * (np.asarray(s_des, float) - np.asarray(s_meas, float)) \
        - KD_POS * np.asarray(sdot_meas, float)
