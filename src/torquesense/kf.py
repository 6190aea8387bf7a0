"""Per-axis constant-acceleration Kalman filter for encoder smoothing.

Each encoder channel (motor or joint) gets an independent 3-state filter
over [position, velocity, acceleration].  The transition matrix is the
exact constant-acceleration propagator; the only measurement is the
quantized position.  The process noise is parameterized by two scalar
spectral densities (acceleration noise and jerk noise) so that tuning a
channel reduces to a 2-gene search.
"""

import json

import numpy as np


def encoder_lsb(bits):
    """Quantization step of a `bits`-per-revolution encoder, rad."""
    return 2.0 * np.pi / (2 ** bits)


def quantization_variance(lsb):
    """Variance of a uniform quantization error with step `lsb`."""
    return lsb * lsb / 12.0


def transition_matrix(dt):
    """Constant-acceleration propagator for [x, xdot, xddot]."""
    return np.array([[1.0, dt, 0.5 * dt * dt],
                     [0.0, 1.0, dt],
                     [0.0, 0.0, 1.0]])


def process_noise(dt, q_accel, q_jerk):
    """Discrete process noise from two spectral densities.

    `q_accel` drives white-noise acceleration acting on the
    position/velocity pair; `q_jerk` drives white-noise jerk acting on
    the full triplet.  Both must be nonnegative.
    """
    if q_accel < 0.0 or q_jerk < 0.0:
        raise ValueError("process-noise densities must be nonnegative")
    d2, d3, d4, d5 = dt * dt, dt ** 3, dt ** 4, dt ** 5
    Qa = q_accel * np.array([[d3 / 3.0, d2 / 2.0, 0.0],
                             [d2 / 2.0, dt, 0.0],
                             [0.0, 0.0, 0.0]])
    Qj = q_jerk * np.array([[d5 / 20.0, d4 / 8.0, d3 / 6.0],
                            [d4 / 8.0, d3 / 3.0, d2 / 2.0],
                            [d3 / 6.0, d2 / 2.0, dt]])
    return Qa + Qj


def _gain_schedule(dt, Q, r, n_steps, tol=1e-14):
    """Kalman gain sequence; stops early once the gain converges.

    The covariance recursion does not depend on the data, so the gains
    can be precomputed and the mean recursion run with plain floats.
    """
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


def filter_trace(positions, dt, lsb, q_accel, q_jerk):
    """Run the filter over a whole position trace.

    Returns (position, velocity, acceleration) arrays of the same length
    as `positions`.  The filter starts at rest at the first sample with
    covariance diag(r, 1, 10) and alternates predict and position update
    steps; the covariance recursion is data-independent, so the gains
    are precomputed and the mean recursion runs at Python-float speed.
    """
    z = np.asarray(positions, dtype=float)
    n = len(z)
    if n < 2:
        raise ValueError("trace must contain at least two samples")
    Q = process_noise(dt, q_accel, q_jerk)
    r = quantization_variance(lsb)
    gains = _gain_schedule(dt, Q, r, n)
    n_g = len(gains)
    half = 0.5 * dt * dt
    x, v, a = float(z[0]), 0.0, 0.0
    xs = np.empty(n)
    vs = np.empty(n)
    accs = np.empty(n)
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


def backward_difference(positions, dt):
    """First-order backward-difference velocity (the naive baseline)."""
    z = np.asarray(positions, dtype=float)
    v = np.empty_like(z)
    v[0] = 0.0
    v[1:] = np.diff(z) / dt
    return v


def save_gains(path, gains):
    """Write tuned per-joint gains {joint: {q_accel, q_jerk}} as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "gains": gains}, fh, indent=2, sort_keys=True)


def load_gains(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["gains"]
