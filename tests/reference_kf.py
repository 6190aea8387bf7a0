"""Stepwise reference for the encoder filter.

`make_kf`, `kf_predict` and `kf_update` run the constant-acceleration
filter one covariance step at a time.  `torquesense.kf.filter_trace`,
which precomputes the gains, must reproduce their means; `test_kf.py`
checks that.
"""

from dataclasses import dataclass

import numpy as np

from torquesense.kf import process_noise, quantization_variance, transition_matrix


@dataclass
class KfState:
    """State of one encoder-channel filter."""
    mean: np.ndarray                    # [x, xdot, xddot]
    cov: np.ndarray                     # 3x3
    Q: np.ndarray                       # 3x3 process noise per step
    r_meas: float                       # position measurement variance
    dt: float

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        if self.dt <= 0.0:
            raise ValueError(f"sample interval must be positive, got {self.dt}")
        if not np.allclose(self.cov, self.cov.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")


def make_kf(dt, lsb, q_accel=1.0, q_jerk=100.0, initial_pos=0.0):
    """Fresh filter for an encoder with quantization step `lsb`."""
    r = quantization_variance(lsb)
    cov = np.diag([r, 1.0, 10.0])
    return KfState(np.array([initial_pos, 0.0, 0.0]), cov,
                   process_noise(dt, q_accel, q_jerk), r, dt)


def kf_predict(state):
    """Propagate one step: mean through the CA model, cov -> F P F^T + Q."""
    F = transition_matrix(state.dt)
    mean = F @ state.mean
    cov = F @ state.cov @ F.T + state.Q
    return KfState(mean, 0.5 * (cov + cov.T), state.Q, state.r_meas, state.dt)


def kf_update(state, measured_position):
    """Joseph-form measurement update with H = [1, 0, 0]."""
    innov_var = state.cov[0, 0] + state.r_meas
    if innov_var <= 0.0:
        raise ArithmeticError(f"innovation variance not positive: {innov_var}")
    K = state.cov[:, 0] / innov_var
    mean = state.mean + K * (measured_position - state.mean[0])
    IKH = np.eye(3)
    IKH[:, 0] -= K
    cov = IKH @ state.cov @ IKH.T + state.r_meas * np.outer(K, K)
    return KfState(mean, 0.5 * (cov + cov.T), state.Q, state.r_meas, state.dt)
