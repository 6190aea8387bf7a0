"""The Stribeck-Coulomb-Viscous friction model and its parameters.

All torques are joint-side N*m.  The friction model is used both as
plant ground truth and as the physics prior for the learned friction
estimator.  Parameter fields are scalars for one joint or equal-length
arrays for several; validation treats both alike, and
indexing an array set gives one joint's scalar set.
"""

from dataclasses import dataclass, fields

import numpy as np


def _require(value, ok, what):
    """Raise ValueError `what` unless every entry of `value` is finite
    and passes `ok`."""
    v = np.asarray(value, dtype=float)
    if not (np.isfinite(v).all() and ok(v).all()):
        raise ValueError(f"{what}, got {value}")


@dataclass(frozen=True)
class ScvParams:
    """Stribeck-Coulomb-Viscous parameters.

    coulomb: Coulomb level F_c (N*m); breakaway: static level F_s >= F_c;
    stribeck_vel: Stribeck velocity v_s (rad/s); viscous: k_v (N*m*s/rad).
    All finite.
    """
    coulomb: float
    breakaway: float
    stribeck_vel: float
    viscous: float

    def __post_init__(self):
        _require(self.coulomb, lambda c: c >= 0.0,
                 "Coulomb level must be nonnegative and finite")
        _require(self.breakaway, lambda b: b >= self.coulomb,
                 f"breakaway level must be finite and >= the Coulomb "
                 f"level ({self.coulomb})")
        _require(self.stribeck_vel, lambda v: v > 0.0,
                 "Stribeck velocity must be positive and finite")
        _require(self.viscous, lambda v: v >= 0.0,
                 "viscous coefficient must be nonnegative and finite")

    def __getitem__(self, j):
        """Joint j's scalar parameters from a per-joint array set."""
        return ScvParams(*(float(getattr(self, f.name)[j]) for f in fields(self)))


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
