"""Stepwise and per-candidate references for the encoder filter.

`make_kf`, `kf_predict` and `kf_update` run the constant-acceleration
filter one covariance step at a time.  `torquesense.kf.filter_trace`,
which runs the gain recursion alongside the means, must reproduce their
means; `test_kf.py` checks that.

`gain_schedule`, `filter_trace_one`, `ScalarOnlineKf` and
`kf_fitness_one` are the one-filter-at-a-time versions the batched
filter, the encoder bank and the population fitness replaced.  They do
the same float64 operations in the same order, so the batched code
must match them bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from torquesense.ga import FITNESS_WEIGHTS
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


def backward_difference(positions, dt):
    """First-order backward-difference velocity (the naive baseline)."""
    z = np.asarray(positions, dtype=float)
    v = np.empty_like(z)
    v[0] = 0.0
    v[1:] = np.diff(z) / dt
    return v


def gain_schedule(dt, Q, r, n_steps, tol=1e-14):
    """Kalman gain sequence of one filter; stops early once the gain
    converges (|K_k - K_(k-1)|_1 < tol), the last gain then holding."""
    F = transition_matrix(dt)
    P = np.diag([r, 1.0, 10.0])
    gains = []
    prev = None
    for _ in range(n_steps):
        P = F @ P @ F.T + Q
        S = P[0, 0] + r
        K = P[:, 0] / S
        IKH = np.eye(3)
        IKH[:, 0] -= K
        P = IKH @ P @ IKH.T + r * np.outer(K, K)
        P = 0.5 * (P + P.T)
        gains.append(K)
        if prev is not None and abs(K[0] - prev[0]) + abs(K[1] - prev[1]) \
                + abs(K[2] - prev[2]) < tol:
            break
        prev = K
    return gains


def filter_trace_one(positions, dt, lsb, q_accel, q_jerk):
    """One filter over a trace from its precomputed gain schedule."""
    z = np.asarray(positions, dtype=float)
    n = len(z)
    gains = gain_schedule(dt, process_noise(dt, q_accel, q_jerk),
                          quantization_variance(lsb), n)
    n_g = len(gains)
    half = 0.5 * dt * dt
    x, v, a = float(z[0]), 0.0, 0.0
    xs, vs, accs = np.empty(n), np.empty(n), np.empty(n)
    zl = z.tolist()
    for k in range(n):
        xp = x + dt * v + half * a
        vp = v + dt * a
        K = gains[k] if k < n_g else gains[-1]
        innov = zl[k] - xp
        x = xp + K[0] * innov
        v = vp + K[1] * innov
        a = a + K[2] * innov
        xs[k] = x
        vs[k] = v
        accs[k] = a
    return xs, vs, accs


class ScalarOnlineKf:
    """One steady-state-gain encoder filter on Python floats."""

    def __init__(self, dt, lsb, q_accel, q_jerk, x0=0.0):
        K = gain_schedule(dt, process_noise(dt, q_accel, q_jerk),
                          quantization_variance(lsb), 20000)[-1]
        self.k0, self.k1, self.k2 = float(K[0]), float(K[1]), float(K[2])
        self.dt = dt
        self.x, self.v, self.a = float(x0), 0.0, 0.0

    def update(self, z):
        dt = self.dt
        xp = self.x + dt * self.v + 0.5 * dt * dt * self.a
        vp = self.v + dt * self.a
        innov = z - xp
        self.x = xp + self.k0 * innov
        self.v = vp + self.k1 * innov
        self.a = self.a + self.k2 * innov
        return self.x, self.v, self.a


def kf_fitness_one(genes, trace, dt, lsb):
    """Fitness of one (q_accel, q_jerk) candidate (see ga.kf_fitness)."""
    z = np.asarray(trace, dtype=float)
    q_accel, q_jerk = float(genes[0]), float(genes[1])
    if q_accel < 0.0 or q_jerk < 0.0:
        return -np.inf
    x, v, a = filter_trace_one(z, dt, lsb, q_accel, q_jerk)
    jerk = np.diff(v, 2) / dt ** 2
    accel = np.diff(v) / dt
    align = x - z
    integ = np.diff(x) / dt - v[1:]
    fd_acc = np.diff(z, 2) / dt ** 2
    fd_jerk = np.diff(z, 3) / dt ** 3
    eps = 1e-30
    jerk_ref = np.mean(fd_jerk ** 2) + eps
    acc_ref = np.mean(fd_acc ** 2) + eps
    align_ref = lsb * lsb / 12.0 + eps
    integ_ref = np.mean(v ** 2) + eps
    w1, w2, w3, w4 = FITNESS_WEIGHTS
    align_excess = max(0.0, np.mean(align ** 2) / align_ref - 1.0)
    cost = (w1 * np.mean(jerk ** 2) / jerk_ref
            + w2 * np.mean(accel ** 2) / acc_ref
            + w3 * align_excess
            + w4 * np.mean(integ ** 2) / integ_ref)
    return -cost
