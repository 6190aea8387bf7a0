"""Cascaded balancing control stack and its configuration switchboard.

Two rates: a center-of-mass balancer producing desired joint torques
at `ControlConfig.high_rate` (100 Hz by default; its period must be a
whole multiple of the plant step), and the estimators with a PI torque
loop producing current commands once per plant step (1 kHz at the
default 1 ms step).  The torque feedback source and the friction
feedforward are wired per mode:

    Feedforward        no torque feedback, no friction compensation
    RNEA-NoComp        rigid-body inverse-dynamics feedback
    UKF-NoComp         filter torque estimate as feedback
    Feedforward-PINN   no feedback, learned friction feedforward
    RNEA-PINN          inverse-dynamics feedback + friction feedforward
    UKF-PINN           filter feedback + friction feedforward
    PositionControl    stiff per-joint position PD baseline
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (compute_dynamics_terms, com_position, com_velocity,
                       forward_pass, generalized_rnea)
from .spatial import log_so3

MODES = ("Feedforward", "RNEA-NoComp", "UKF-NoComp", "Feedforward-PINN",
         "RNEA-PINN", "UKF-PINN", "PositionControl")

TORQUE_MODES = tuple(m for m in MODES if m != "PositionControl")


def needs_friction_nets(mode):
    """Whether `mode` runs trained friction nets.

    The *-PINN modes compensate friction with them and the UKF modes
    feed their output to the torque filter.
    """
    return mode.endswith("PINN") or mode.startswith("UKF")


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
        if self.mode not in MODES:
            raise ValueError(f"unknown control mode {self.mode!r}")
        for name in ("kp_torque", "ki_torque", "kp_com", "kd_com",
                     "kp_att", "kd_att", "kp_pos", "kd_pos"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"gain {name} must be nonnegative")
        if self.high_rate <= 0.0:
            raise ValueError(f"ControlConfig.high_rate must be positive, "
                             f"got {self.high_rate}")


def high_level_balancer(model, base_pose, s, nu, com_ref, com_vel_ref,
                        com_acc_ref, contact_frames, config,
                        attitude_ref=None, posture_ref=None):
    """Desired joint torques realizing a CoM/attitude PD at 100 Hz.

    Solves the base-wrench balance for the contact wrenches (regularized
    least squares over the stacked contact Jacobians) and maps them to
    joint torques through joint-space statics.  A joint-space posture PD
    toward `posture_ref` stabilizes the joints the contact Jacobians
    cannot see (e.g. torso joints).  With zero tracking error this
    returns exact gravity-compensation torques.
    """
    if len(contact_frames) == 0:
        raise RuntimeError("controller inactive: no feet in contact")
    fp = forward_pass(model, base_pose, s, nu)
    terms = compute_dynamics_terms(model, base_pose, s, nu,
                                   contact_frames=tuple(contact_frames), fp=fp)
    com = com_position(model, base_pose, s, fp=fp)
    com_vel = com_velocity(model, base_pose, s, nu, fp=fp)

    # desired net wrench change on the base rows, base frame
    acc_world = (np.asarray(com_acc_ref, float)
                 + config.kp_com * (np.asarray(com_ref, float) - com)
                 + config.kd_com * (np.asarray(com_vel_ref, float) - com_vel))
    R = base_pose.R
    extra = np.zeros(6)
    extra[:3] = model.total_mass * (R.T @ acc_world)
    R_ref = np.eye(3) if attitude_ref is None else attitude_ref
    att_err = log_so3(R.T @ R_ref)            # body-frame attitude error
    extra[3:] = config.kp_att * att_err - config.kd_att * nu[3:6]

    w_des = terms.bias[:6] + extra
    A = np.hstack([terms.jacobians[f].T[:6] for f in contact_frames])
    # damped least squares keeps the distribution unique and bounded
    AtA = A.T @ A + config.force_reg * np.eye(A.shape[1])
    f = np.linalg.solve(AtA, A.T @ w_des)
    tau_d = terms.bias[6:].copy()
    for k, frame in enumerate(contact_frames):
        tau_d -= terms.jacobians[frame].T[6:] @ f[6 * k:6 * k + 6]
    if posture_ref is not None:
        tau_d += config.kp_posture * (np.asarray(posture_ref, float) - s) \
            - config.kd_posture * nu[6:]
    return tau_d


def rnea_torque_feedback(model, base_pose, s, nu, proper_accel, ft_readings):
    """Joint torques from inverse dynamics with FT wrenches as the only
    external forces.

    Unmeasured contacts are invisible to this estimate; they show up as
    joint-torque error instead, which is exactly the failure mode the
    filter-based feedback avoids.
    """
    wrenches = [(name, w) for name, w in ft_readings.items()]
    return generalized_rnea(model, base_pose, s, nu, proper_accel, wrenches)[6:]


class TorquePI:
    """PI loop on torque error with anti-windup, emitting currents each plant step."""

    def __init__(self, n, config, gear_torque, dt):
        self.config = config
        self.gear_torque = np.asarray(gear_torque, dtype=float)
        self.dt = dt
        self.integral = np.zeros(n)
        self.saturation_events = 0

    def reset(self):
        self.integral[:] = 0.0

    def __call__(self, tau_d, tau_feedback=None, tau_f_comp=None):
        """Current commands; feedback/compensation may each be omitted."""
        cfg = self.config
        tau_d = np.asarray(tau_d, dtype=float)
        if tau_feedback is None:
            tau_cmd = tau_d
        else:
            err = tau_d - np.asarray(tau_feedback, dtype=float)
            self.integral = np.clip(self.integral + err * self.dt
                                    * cfg.ki_torque,
                                    -cfg.integral_limit, cfg.integral_limit)
            tau_cmd = tau_d + cfg.kp_torque * err + self.integral
        total = tau_cmd if tau_f_comp is None else tau_cmd + np.asarray(tau_f_comp, float)
        currents = total / self.gear_torque
        clipped = np.clip(currents, -cfg.current_limit, cfg.current_limit)
        if np.any(clipped != currents):
            self.saturation_events += 1
        return clipped


class PositionPD:
    """Stiff per-joint position controller (the compliance baseline).

    Feedback must be collocated with the actuator (motor-side encoder
    mapped to the joint side): closing a stiff PD on the joint encoder
    through the elastic transmission excites the transmission resonance.
    """

    def __init__(self, config, gear_torque):
        self.config = config
        self.gear_torque = np.asarray(gear_torque, dtype=float)
        self.saturation_events = 0

    def __call__(self, s_des, s_meas, sdot_meas):
        cfg = self.config
        tau = cfg.kp_pos * (np.asarray(s_des, float) - np.asarray(s_meas, float)) \
            - cfg.kd_pos * np.asarray(sdot_meas, float)
        currents = tau / self.gear_torque
        clipped = np.clip(currents, -cfg.current_limit, cfg.current_limit)
        if np.any(clipped != currents):
            self.saturation_events += 1
        return clipped


class RateScheduler:
    """Deterministic scheduler of the balancer on plant ticks.

    Fires on every `high_every`-th tick, starting with the first; the
    balancer period must be a whole multiple of the plant step, which
    is checked at construction.
    """

    def __init__(self, plant_dt, high_rate):
        self.plant_dt = plant_dt
        high_dt = 1.0 / high_rate
        self.high_every = int(round(high_dt / plant_dt))
        if self.high_every < 1 or not np.isclose(self.high_every * plant_dt,
                                                 high_dt):
            raise ValueError(
                f"ControlConfig.high_rate ({high_rate:g} Hz, period "
                f"{high_dt:g} s) must have a period that is a whole "
                f"multiple of the plant step ({plant_dt:g} s)")
        self.tick = 0

    def due(self):
        """Whether the balancer runs on the current tick, then advance."""
        high = self.tick % self.high_every == 0
        self.tick += 1
        return high
