"""Constant-acceleration Kalman filter for encoder smoothing.

Each encoder channel (motor or joint) gets an independent 3-state filter
over [position, velocity, acceleration].  The transition matrix is the
exact constant-acceleration propagator; the only measurement is the
quantized position.  The process noise is parameterized by two scalar
spectral densities (acceleration noise and jerk noise) so that tuning a
channel reduces to a 2-gene search.

Batch axis.  `filter_trace` runs a batch of filters over the same
samples, one per entry of its (B,) densities, and returns (B, n)
estimates; the gain recursion gives (3, B) gains per step.
`process_noise` and `steady_state_gain` also take scalar densities,
for the one setting of an encoder bank.

Convergence rule.  The covariance recursion does not depend on the data
(only on dt, Q and r; Anderson & Moore, "Optimal Filtering", 1979,
ch. 3), so it runs once for the whole batch, ahead of the mean
recursion, `GAIN_BLOCK` steps at a time with no test between steps.
After each block, every member freezes its gain at the first step k
where |K_k - K_(k-1)|_1 < `GAIN_TOL` (1e-14), comparing across block
edges too; K_k serves every later sample.  No block follows the one in
which the last member freezes, and at most one block of gains is held
at a time.
"""

import itertools
import json

import numpy as np

GAIN_BLOCK = 64  # gains per pass of the recursion between convergence tests
GAIN_TOL = 1e-14  # |K_k - K_(k-1)|_1 below which a member's gain freezes


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


def _gain_blocks(dt, Q, r, n_steps):
    """Yield ((L, 3, B) block, (B,) frozen mask) for successive samples.

    `Q` is (B, 3, 3) or (3, 3) shared, `r` is (B,).  The covariance
    starts at diag(r, 1, 10).  Row k of a block holds the (3, B) gains of
    one sample, and a member that has frozen (module docstring) holds its
    gain in every later row.  The blocks cover at most `n_steps` samples
    and end with the block in which the last member freezes; its last row
    then holds for every later sample.  The mask, updated in place, marks
    the members frozen so far.
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
    e0 = np.array([[1.0], [0.0], [0.0]])
    tmp, KK, Kb = np.empty_like(P), np.empty_like(P), np.empty((B, 3))
    # the views the steps read and write, made once
    P_T, IKH_T = P.transpose(0, 2, 1), IKH.transpose(0, 2, 1)
    P_col, P00, IKH_col = P[:, :, 0].T, P[:, 0, 0], IKH[:, :, 0].T
    K_col, K_row, r_col = Kb[:, :, None], Kb[:, None, :], r[:, None, None]
    # the previous block's last gains; NaN compares false, so the first
    # sample is tested against nothing
    prev = np.full((3, B), np.nan)
    frozen = np.zeros(B, dtype=bool)
    for start in range(0, n_steps, GAIN_BLOCK):
        L = min(GAIN_BLOCK, n_steps - start)
        G = np.empty((L + 1, 3, B))
        G[0] = prev
        for K in G[1:]:
            np.matmul(np.matmul(F, P, out=tmp), F.T, out=P)
            P += Q
            np.divide(P_col, P00 + r, out=K)
            np.subtract(e0, K, out=IKH_col)
            # Joseph form: (I - K H) P (I - K H)^T + r K K^T, symmetrized
            np.matmul(np.matmul(IKH, P, out=tmp), IKH_T, out=P)
            Kb.T[...] = K  # member-major, for r K K^T
            np.multiply(K_col, K_row, out=KK)
            KK *= r_col
            P += KK
            np.add(P, P_T, out=tmp)
            np.multiply(tmp, 0.5, out=P)
        # row k of G reads row min(k, last[b]) for member b: last is the
        # first row within GAIN_TOL of the row before for a member that
        # freezes here, and 0 (its held gain) for one frozen before
        hit = np.abs(np.diff(G, axis=0)).sum(axis=1) < GAIN_TOL
        hit[:, frozen] = False
        new = hit.any(axis=0)
        last = np.where(new, hit.argmax(axis=0) + 1, L)
        last[frozen] = 0
        rows = np.minimum(np.arange(1, L + 1)[:, None], last)
        G = np.take_along_axis(G, rows[:, None, :], axis=0)
        frozen |= new
        yield G, frozen
        if frozen.all():
            return
        prev = G[-1]


def steady_state_gain(dt, lsb, q_accel, q_jerk):
    """(B, 3) converged gains for (B,) quantization steps `lsb`.

    A scalar `lsb` is one member and gives (1, 3).  Runs the gain
    recursion without data until every member has frozen and returns
    the last gains.  A member that has not frozen within 20000 steps is
    rejected with a ValueError naming its densities and quantization
    step.
    """
    lsb = np.atleast_1d(np.asarray(lsb, dtype=float))
    r = quantization_variance(lsb)
    for G, frozen in _gain_blocks(dt, process_noise(dt, q_accel, q_jerk), r,
                                  20000):
        pass
    if not frozen.all():
        b = int(np.argmin(frozen))
        qa, qj, step = (np.broadcast_to(v, frozen.shape)[b]
                        for v in (q_accel, q_jerk, lsb))
        raise ValueError(
            f"the encoder-filter gain for q_accel={qa:g}, q_jerk={qj:g} at "
            f"lsb {step:g} rad does not settle within 20000 steps")
    return G[-1].T


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

    Returns (position, velocity, acceleration) estimates as (B, n)
    arrays, one row per entry of the (B,) densities.  Every filter
    starts at rest at the first sample with covariance diag(r, 1, 10)
    and alternates predict and position update steps.
    """
    z = np.asarray(positions, dtype=float)
    n = len(z)
    if n < 2:
        raise ValueError("trace must contain at least two samples")
    Q = process_noise(dt, q_accel, q_jerk).reshape(-1, 3, 3)
    B = len(Q)
    r = np.full(B, quantization_variance(lsb))
    gains = itertools.chain.from_iterable(
        G for G, _ in _gain_blocks(dt, Q, r, n))
    x, v, a = np.full(B, z[0]), np.zeros(B), np.zeros(B)
    xs, vs, accs = np.empty((B, n)), np.empty((B, n)), np.empty((B, n))
    K = None
    for k, zk in enumerate(z.tolist()):
        K = next(gains, K)
        x, v, a = mean_step(x, v, a, zk, K, dt)
        xs[:, k] = x
        vs[:, k] = v
        accs[:, k] = a
    return xs, vs, accs


def save_gains(path, gains):
    """Write one channel's tuned gains {q_accel, q_jerk} as JSON:
    {"schema_version": 1, "gains": {"q_accel": ..., "q_jerk": ...}}."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "gains": gains}, fh, indent=2, sort_keys=True)
