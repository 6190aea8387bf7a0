"""Actuator parameters and the Stribeck-Coulomb-Viscous friction model.

All torques are joint-side N*m.  The friction model is used both as
plant ground truth and as the physics prior for the learned friction
estimator.  Parameter fields are scalars for one joint or equal-length
arrays for several; validation and scaling treat both alike, and
indexing an array set gives one joint's scalar set.
"""

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class MotorParams:
    """Torque constant k_t (N*m/A), reduction ratio R (>=1), motor inertia J_m (kg*m^2)."""
    k_t: float
    reduction: float
    motor_inertia: float

    def __post_init__(self):
        if np.any(np.asarray(self.k_t) <= 0.0):
            raise ValueError(f"torque constant must be positive, got {self.k_t}")
        if np.any(np.asarray(self.reduction) < 1.0):
            raise ValueError(f"reduction ratio must be >= 1, got {self.reduction}")
        if np.any(np.asarray(self.motor_inertia) <= 0.0):
            raise ValueError(f"motor inertia must be positive, got {self.motor_inertia}")


@dataclass(frozen=True)
class ScvParams:
    """Stribeck-Coulomb-Viscous parameters.

    coulomb: Coulomb level F_c (N*m); breakaway: static level F_s >= F_c;
    stribeck_vel: Stribeck velocity v_s (rad/s); viscous: k_v (N*m*s/rad).
    """
    coulomb: float
    breakaway: float
    stribeck_vel: float
    viscous: float

    def __post_init__(self):
        c, b = np.asarray(self.coulomb), np.asarray(self.breakaway)
        if np.any(c < 0.0) or np.any(b < c):
            raise ValueError(
                f"need breakaway >= coulomb >= 0, got F_s={self.breakaway}, F_c={self.coulomb}")
        if np.any(np.asarray(self.stribeck_vel) <= 0.0):
            raise ValueError(f"Stribeck velocity must be positive, got {self.stribeck_vel}")
        if np.any(np.asarray(self.viscous) < 0.0):
            raise ValueError(f"viscous coefficient must be nonnegative, got {self.viscous}")

    def __getitem__(self, j):
        """Joint j's scalar parameters from a per-joint array set."""
        return ScvParams(*(float(getattr(self, f.name)[j]) for f in fields(self)))

    def scaled(self, factor):
        """Friction parameters with all magnitude levels scaled by `factor`."""
        if factor <= 0.0:
            raise ValueError(f"friction scaling must be positive, got {factor}")
        return ScvParams(self.coulomb * factor, self.breakaway * factor,
                         self.stribeck_vel, self.viscous * factor)


def scv_friction(params, v, smoothing=0.0):
    """SCV friction torque at velocity `v` (odd in velocity).

    tau_F = (F_c + (F_s - F_c) * exp(-(v/v_s)^2)) * sign(v) + k_v * v

    With `smoothing` > 0 the sign step becomes tanh(v/smoothing), which
    fixed-step integrators need: the exact discontinuity makes stuck
    joints chatter about zero velocity instead of settling.  Converges
    to the exact law as `smoothing` -> 0.
    """
    v = np.asarray(v, dtype=float)
    level = params.coulomb + (params.breakaway - params.coulomb) * np.exp(-(v / params.stribeck_vel) ** 2)
    step = np.sign(v) if smoothing == 0.0 else np.tanh(v / smoothing)
    out = level * step + params.viscous * v
    return out if out.ndim else float(out)
