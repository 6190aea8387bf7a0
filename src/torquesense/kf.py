"""Constant-acceleration Kalman filter for encoder smoothing.

Each encoder channel (motor or joint) gets an independent 3-state filter
over [position, velocity, acceleration].  The transition matrix is the
exact constant-acceleration propagator; the only measurement is the
quantized position.  The process noise is parameterized by two scalar
spectral densities (acceleration noise and jerk noise) so that tuning a
channel reduces to a 2-gene search.

Batch axis.  The densities may be scalars or (B,) arrays: one filter per
noise setting, all run over the same samples.  `process_noise` then
gives (B, 3, 3), the gain recursion (B, 3) gains per step and
`filter_trace` (B, n) estimates; scalar densities give (3, 3) and (n,).

Convergence rule.  The covariance recursion does not depend on the data
(only on dt, Q and r), so it runs once for the whole batch alongside
the mean recursion.  Each member freezes its gain at the first step k
where |K_k - K_(k-1)|_1 < 1e-14; K_k is its last stored gain and serves
every later sample.  The recursion stops once every member has frozen.
"""

import itertools
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
    the full triplet.  Both must be nonnegative.  Scalars give (3, 3);
    (B,) densities give (B, 3, 3).
    """
    q_accel = np.asarray(q_accel, dtype=float)[..., None, None]
    q_jerk = np.asarray(q_jerk, dtype=float)[..., None, None]
    if np.any(q_accel < 0.0) or np.any(q_jerk < 0.0):
        raise ValueError("process-noise densities must be nonnegative")
    d2, d3, d4, d5 = dt * dt, dt ** 3, dt ** 4, dt ** 5
    Qa = q_accel * np.array([[d3 / 3.0, d2 / 2.0, 0.0],
                             [d2 / 2.0, dt, 0.0],
                             [0.0, 0.0, 0.0]])
    Qj = q_jerk * np.array([[d5 / 20.0, d4 / 8.0, d3 / 6.0],
                            [d4 / 8.0, d3 / 3.0, d2 / 2.0],
                            [d3 / 6.0, d2 / 2.0, dt]])
    return Qa + Qj


def _gain_sequence(dt, Q, r, tol=1e-14):
    """Yield the (B, 3) Kalman gains of successive samples.

    `Q` is (B, 3, 3) or (3, 3) shared, `r` is (B,).  The covariance
    starts at diag(r, 1, 10).  A member whose gain has converged (module
    docstring) keeps it; the generator ends once every member has, and
    its last yield then holds for every later sample.
    """
    F = transition_matrix(dt)
    r = np.asarray(r, dtype=float)
    B = len(r)
    P = np.zeros((B, 3, 3))
    P[:, 0, 0] = r
    P[:, 1, 1] = 1.0
    P[:, 2, 2] = 10.0
    # I - K H with H = [1, 0, 0]: only the first column changes per step
    IKH = np.broadcast_to(np.eye(3), P.shape).copy()
    e0 = np.array([1.0, 0.0, 0.0])
    tmp, KK = np.empty_like(P), np.empty_like(P)
    K = None
    active = np.ones(B, dtype=bool)
    while True:
        np.matmul(np.matmul(F, P, out=tmp), F.T, out=P)
        P += Q
        K_new = P[:, :, 0] / (P[:, 0, 0] + r)[:, None]
        np.subtract(e0, K_new, out=IKH[:, :, 0])
        # Joseph form: (I - K H) P (I - K H)^T + r K K^T, then symmetrized
        np.matmul(np.matmul(IKH, P, out=tmp), IKH.transpose(0, 2, 1), out=P)
        np.multiply(K_new[:, :, None], K_new[:, None, :], out=KK)
        KK *= r[:, None, None]
        P += KK
        np.add(P, P.transpose(0, 2, 1), out=tmp)
        np.multiply(tmp, 0.5, out=P)
        if K is None:
            K = K_new
        else:
            converged = np.abs(K_new - K).sum(axis=1) < tol
            K = np.where(active[:, None], K_new, K)
            active &= ~converged
        yield K
        if not active.any():
            return


def steady_state_gain(dt, lsb, q_accel, q_jerk):
    """(B, 3) converged gains for (B,) quantization steps `lsb`.

    Runs the gain recursion without data until every member has frozen
    or 20000 steps have passed, and returns the last gains.
    """
    r = quantization_variance(np.asarray(lsb, dtype=float))
    gains = _gain_sequence(dt, process_noise(dt, q_accel, q_jerk), r)
    K = None
    for K in itertools.islice(gains, 20000):
        pass
    return K


def mean_step(x, v, a, z, K, dt):
    """Predict and position-update the means of a bank of filters.

    `x`, `v`, `a` are the state means, `z` the measured positions and
    `K` the (3, ...) gains; everything broadcasts.  Returns the updated
    (x, v, a).
    """
    xp = x + dt * v + 0.5 * dt * dt * a
    vp = v + dt * a
    innov = z - xp
    return xp + K[0] * innov, vp + K[1] * innov, a + K[2] * innov


def filter_trace(positions, dt, lsb, q_accel, q_jerk):
    """Run the filter over a whole position trace.

    Returns (position, velocity, acceleration) estimates: (n,) arrays
    for scalar densities, (B, n) arrays for (B,) densities.  Every
    filter starts at rest at the first sample with covariance
    diag(r, 1, 10) and alternates predict and position update steps.
    """
    z = np.asarray(positions, dtype=float)
    n = len(z)
    if n < 2:
        raise ValueError("trace must contain at least two samples")
    Q = process_noise(dt, q_accel, q_jerk)
    scalar = Q.ndim == 2
    Q = Q.reshape(-1, 3, 3)
    B = len(Q)
    gains = _gain_sequence(dt, Q, np.full(B, quantization_variance(lsb)))
    x, v, a = np.full(B, z[0]), np.zeros(B), np.zeros(B)
    xs, vs, accs = np.empty((B, n)), np.empty((B, n)), np.empty((B, n))
    K = None
    for k, zk in enumerate(z.tolist()):
        K = next(gains, K)
        x, v, a = mean_step(x, v, a, zk, K.T, dt)
        xs[:, k] = x
        vs[:, k] = v
        accs[:, k] = a
    if scalar:
        return xs[0], vs[0], accs[0]
    return xs, vs, accs


def save_gains(path, gains):
    """Write tuned per-joint gains {joint: {q_accel, q_jerk}} as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "gains": gains}, fh, indent=2, sort_keys=True)
