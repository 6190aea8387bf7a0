"""Cascaded balancing control stack and its configuration switchboard.

Two rates: a center-of-mass balancer producing desired joint torques
at `ControlConfig.high_rate` (100 Hz by default; its period must be a
whole multiple of the plant step), and the estimators with a PI torque
loop producing current commands once per plant step (1 kHz at the
default 1 ms step).  How each mode closes the loop, its torque
feedback, friction feedforward and output law, is its row of `WIRING`;
no other module tells the modes apart.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (com_position, com_velocity, forward_pass,
                       frame_jacobian, static_proper_accel)
from .spatial import log_so3


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


def needs_friction_nets(mode):
    """Whether `mode` runs trained friction nets (see `Wiring`)."""
    return WIRING[mode].friction_nets


@dataclass
class ControlConfig:
    """Gains and rates; identical across all torque modes by design."""
    mode: str = "UKF-PINN"
    kp_torque: float = 0.52         # dimensionless, on torque error
    ki_torque: float = 30.0         # 1/s
    integral_limit: float = 4.0     # N*m
    current_limit: float = 10.0     # A
    kp_com: float = 60.0            # 1/s^2
    kd_com: float = 15.0            # 1/s
    kp_att: float = 80.0            # N*m/rad
    kd_att: float = 20.0            # N*m*s/rad
    force_reg: float = 1e-6         # wrench-distribution regularization
    kp_posture: float = 20.0        # N*m/rad, joint-space posture task
    kd_posture: float = 2.0         # N*m*s/rad
    comp_cutoff: float = 8.0        # Hz, smoothing on friction feedforward
    kp_pos: float = 900.0           # N*m/rad (position baseline)
    kd_pos: float = 30.0            # N*m*s/rad
    high_rate: float = 100.0        # Hz, balancer; torque loop runs every plant step

    def __post_init__(self):
        """Reject an unknown mode, and any numeric field that is not a
        finite number, positive for the current limit, the wrench
        regularization and the balancer rate, nonnegative otherwise."""
        if self.mode not in MODES:
            raise ValueError(f"unknown control mode {self.mode!r}")
        for f in fields(self)[1:]:  # every field after the mode is a number
            value = getattr(self, f.name)
            positive = f.name in ("current_limit", "force_reg", "high_rate")
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and (value > 0.0 if positive else value >= 0.0)):
                what = "positive" if positive else "nonnegative"
                raise ValueError(f"ControlConfig.{f.name} must be {what} "
                                 f"and finite, got {value!r}")


def high_level_balancer(model, base_pose, s, nu, com_ref, com_vel_ref,
                        com_acc_ref, config, posture_ref):
    """Desired joint torques realizing a CoM/attitude PD at 100 Hz.

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
                 + config.kp_com * (np.asarray(com_ref, float) - com)
                 + config.kd_com * (np.asarray(com_vel_ref, float) - com_vel))
    R = base_pose.R
    extra = np.zeros(6)
    extra[:3] = model.total_mass * (R.T @ acc_world)
    att_err = log_so3(R.T)                    # body-frame attitude error
    extra[3:] = config.kp_att * att_err - config.kd_att * nu[3:6]

    w_des = bias[:6] + extra
    # the base rows of the stacked J^T; column 6 k + i is row i of J_k
    A = J[:, :, :6].reshape(-1, 6).T
    # damped least squares keeps the distribution unique and bounded;
    # its minimiser (A^T A + reg I)^-1 A^T w is A^T (A A^T + reg I)^-1 w,
    # a 6x6 solve
    f = A.T @ np.linalg.solve(A @ A.T + config.force_reg * np.eye(6), w_des)
    tau_d = bias[6:] - J[:, :, 6:].reshape(-1, model.ndof).T @ f
    tau_d += config.kp_posture * (np.asarray(posture_ref, float) - s) \
        - config.kd_posture * nu[6:]
    return tau_d


def rnea_torque_feedback(model, base_pose, s, nu, proper_accel, ft_readings):
    """Joint torques from inverse dynamics with FT wrenches as the only
    external forces.

    `ft_readings` rows follow the model's `ft_frames`.  Unmeasured
    contacts are invisible to this estimate; they show up as joint-torque
    error instead, the failure mode the filter-based feedback avoids.
    """
    fp = forward_pass(model, base_pose, s, nu)
    wrenches = fp.link_wrenches(zip(model.ft_frames, ft_readings))
    return fp.inverse_dynamics(proper_accel, wrenches)[6:]


class _CurrentOutput:
    """Maps torques to current commands clipped to the current limit.

    `saturation_events` counts the calls whose commands were clipped.
    """

    def __init__(self, config, gear_torque):
        self.config = config
        self.gear_torque = np.asarray(gear_torque, dtype=float)
        self.saturation_events = 0

    def _currents(self, tau):
        limit = self.config.current_limit
        currents = tau / self.gear_torque
        # np.minimum(np.maximum(.)) and .any() are np.clip and np.any
        # without their Python wrappers
        clipped = np.minimum(np.maximum(currents, -limit), limit)
        if (clipped != currents).any():
            self.saturation_events += 1
        return clipped


class TorquePI(_CurrentOutput):
    """PI loop on torque error with anti-windup, emitting currents each plant step."""

    def __init__(self, n, config, gear_torque, dt):
        super().__init__(config, gear_torque)
        self.dt = dt
        self.integral = np.zeros(n)

    def __call__(self, tau_d, tau_feedback=None, tau_f_comp=None):
        """Current commands; feedback/compensation may each be omitted."""
        cfg = self.config
        tau_d = np.asarray(tau_d, dtype=float)
        if tau_feedback is None:
            tau_cmd = tau_d
        else:
            err = tau_d - np.asarray(tau_feedback, dtype=float)
            self.integral = np.minimum(
                np.maximum(self.integral + err * self.dt * cfg.ki_torque,
                           -cfg.integral_limit), cfg.integral_limit)
            tau_cmd = tau_d + cfg.kp_torque * err + self.integral
        total = tau_cmd if tau_f_comp is None else tau_cmd + np.asarray(tau_f_comp, float)
        return self._currents(total)


class PositionPD(_CurrentOutput):
    """Stiff per-joint position controller (the compliance baseline).

    Feedback must be collocated with the actuator (motor-side encoder
    mapped to the joint side): closing a stiff PD on the joint encoder
    through the elastic transmission excites the transmission resonance.
    """

    def __call__(self, s_des, s_meas, sdot_meas):
        cfg = self.config
        tau = cfg.kp_pos * (np.asarray(s_des, float) - np.asarray(s_meas, float)) \
            - cfg.kd_pos * np.asarray(sdot_meas, float)
        return self._currents(tau)
