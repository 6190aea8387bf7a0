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
`process_noise` also takes scalar densities, and `steady_state_gain`
takes the one setting of an encoder bank, batched over its steps.

Gains.  The covariance recursion does not depend on the data (only on
dt, Q and r; Anderson & Moore, "Optimal Filtering", 1979, ch. 3).
`filter_trace` runs it beside the means from diag(r, 1, 10): predict
P <- F P F^T + Q, then the scalar measurement step P <- P - p p^T / s
with p = P e0 and s = p0 + r (Bierman, "Factorization Methods for
Discrete Sequential Estimation", 1977), which for H = e0 and the
optimal gain equals the Joseph form in exact arithmetic.  Its predicted
P tends, from any start, to the stabilising solution X of the Riccati
equation X = F (X - X e0 e0^T X / (X00 + r)) F^T + Q, which exists for
every positive jerk density, as Q is then positive definite (ibid.,
ch. 4).  `steady_state_gain` solves for X by structured doubling (Chu,
Fan, Lin & Wang, "Structure-preserving algorithms for periodic
discrete-time algebraic Riccati equations", Int. J. Control, 2004) and
gives the constant gain K = X e0 / (X00 + r).
"""

import json

import numpy as np

MAX_DOUBLINGS = 64  # doubling steps before a steady state is refused


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


def steady_state_gain(dt, lsb, q_accel, q_jerk):
    """(B, 3) steady-state gains (module docstring) for (B,) quantization
    steps `lsb` and scalar densities; a scalar `lsb` gives (1, 3).

    Doubling starts from A = F^T, G = e0 e0^T / r and H = Q; with
    W = I + G H, each step sets A <- A W^-1 A, G <- G + A W^-1 G A^T and
    H <- H + A^T H W^-1 A, and H tends to X.  A, a power of the closed
    loop, underflows to zero, so a member that has converged stays fixed,
    bit for bit, while the others finish; the steps stop once H does.  A
    `q_jerk` that is not positive is refused, and so is a member still
    moving after `MAX_DOUBLINGS` steps, each with a one-line ValueError.
    """
    if not q_jerk > 0.0:
        raise ValueError(f"the encoder-filter gain needs a positive q_jerk, "
                         f"got q_jerk={q_jerk:g}")
    lsb = np.atleast_1d(np.asarray(lsb, dtype=float))
    r = quantization_variance(lsb)
    B = len(lsb)
    A = np.broadcast_to(transition_matrix(dt).T, (B, 3, 3))
    G = np.zeros((B, 3, 3))
    G[:, 0, 0] = 1.0 / r
    H = np.broadcast_to(process_noise(dt, q_accel, q_jerk), (B, 3, 3))
    for _ in range(MAX_DOUBLINGS):
        # W^-1 A and W^-1 G from one solve
        WA, WG = np.split(np.linalg.solve(np.eye(3) + G @ H,
                                          np.concatenate([A, G], axis=2)),
                          2, axis=2)
        At = A.transpose(0, 2, 1)
        A, G, H_next = A @ WA, G + A @ WG @ At, H + At @ H @ WA
        moving = (H_next != H).any(axis=(1, 2))
        H = H_next
        if not moving.any():
            break
    else:
        b = int(np.argmax(moving))
        raise ValueError(
            f"the encoder-filter gain for q_accel={q_accel:g}, "
            f"q_jerk={q_jerk:g} at lsb {lsb[b]:g} rad and a {dt:g} s step "
            f"does not converge within {MAX_DOUBLINGS} doublings")
    return H[:, :, 0] / (H[:, 0, 0] + r)[:, None]


def mean_step(mean, z, K, F, out=None):
    """Predict and position-update the (3, B) means of a bank of B filters.

    `mean` stacks the [x, xdot, xddot] means, `F` is `transition_matrix`,
    `z` the measured positions (scalar or (B,)) and `K` the (3, B) gains.
    Returns the updated means, written into the (3, B) `out` if given.
    The product by `F` runs member by member, as a (B, 3, 1) stack, so a
    member's bits do not depend on B.
    """
    if out is None:
        out = np.empty_like(mean)
    np.matmul(F, mean.T[:, :, None], out=out.T[:, :, None])
    out += K * (z - out[0])
    return out


def filter_trace(positions, dt, lsb, q_accel, q_jerk):
    """Run the filter over a whole position trace.

    Returns (position, velocity, acceleration) estimates as (B, n)
    arrays, one row per entry of the (B,) densities.  Every filter
    starts at rest at the first sample and alternates predict and
    position update steps on the gains of the recursion (module
    docstring).
    """
    z = np.asarray(positions, dtype=float)
    n = len(z)
    if n < 2:
        raise ValueError("trace must contain at least two samples")
    Q = process_noise(dt, q_accel, q_jerk).reshape(-1, 3, 3)
    B = len(Q)
    r = quantization_variance(lsb)
    F = transition_matrix(dt)
    P = np.tile(np.diag([r, 1.0, 10.0]), (B, 1, 1))
    tmp, pp = np.empty_like(P), np.empty_like(P)
    s, K = np.empty(B), np.empty((3, B))
    # the views the steps read and write, made once: p = P e0 as the
    # (3, B) gain numerator, a column and a row, and s = p0 + r
    p, p_col, p_row = P[:, :, 0].T, P[:, :, :1], P[:, None, :, 0]
    P00, s_col = P[:, 0, 0], s[:, None, None]
    # row k holds sample k's (3, B) means, each step's output in place
    est = np.empty((n, 3, B))
    mean = np.zeros((3, B))
    mean[0] = z[0]
    for zk, row in zip(z.tolist(), est):
        np.matmul(np.matmul(F, P, out=tmp), F.T, out=P)
        P += Q
        np.add(P00, r, out=s)
        np.divide(p, s, out=K)
        # scalar-measurement step P - p p^T / s: exactly symmetric, and
        # positive semi-definite since s > p0
        np.multiply(p_col, p_row, out=pp)
        pp /= s_col
        P -= pp
        mean = mean_step(mean, zk, K, F, out=row)
    # contiguous rows, so that a row reduction sums in the same order as
    # on one member's trace
    xs, vs, accs = np.ascontiguousarray(est.transpose(1, 2, 0))
    return xs, vs, accs


def save_gains(path, gains):
    """Write one channel's tuned gains {q_accel, q_jerk} as JSON:
    {"schema_version": 1, "gains": {"q_accel": ..., "q_jerk": ...}}."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "gains": gains}, fh, indent=2, sort_keys=True)
