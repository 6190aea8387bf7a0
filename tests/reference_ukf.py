"""Sigma-point reference for the torque filter.

`reference_step` is the unscented Kalman step the filter once ran:
scaled (Merwe) sigma points drawn from the prior, pushed through the
process model with the dynamics terms fixed at the prior mean, redrawn
from the predicted belief and pushed through the measurement model.
It runs the dynamics at a given base attitude and base linear velocity,
which the filter does not read: the joint rows are the same at any
base pose and base velocity (the `ukf` module docstring), so agreement
at random ones pins both invariances.  Both maps are affine, so the unscented transform is exact and
`TorqueUkf.step`, the closed-form linear update, must agree with it to
rounding; `test_ukf.py` checks that.  `measurement_model` and
`measurement_noise` spell the channel layout and its noise out block by
block, and `step_terms` the frame the external wrench acts at, apart
from the filter's block table and its constants; `test_ukf.py` checks
the table's H and R against them.
"""

import numpy as np

from torquesense.dynamics import crba, forward_pass, frame_jacobian
from torquesense.spatial import Transform, cross3
from torquesense.ukf import Belief


def merwe_weights(dim, alpha, beta, kappa):
    """Scaled sigma-point weights (mean, covariance) and scale lambda."""
    lam = alpha * alpha * (dim + kappa) - dim
    wm = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + lam)))
    wc = wm.copy()
    wm[0] = lam / (dim + lam)
    wc[0] = wm[0] + (1.0 - alpha * alpha + beta)
    return wm, wc, lam


def sigma_points(mean, cov, alpha=1e-3, beta=2.0, kappa=0.0, jitter=1e-12):
    """Scaled (Merwe) sigma points; returns (points, wm, wc).

    Cholesky with escalating diagonal jitter; raises ArithmeticError if
    the covariance stays non-factorizable.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    dim = len(mean)
    wm, wc, lam = merwe_weights(dim, alpha, beta, kappa)
    scaled = (dim + lam) * cov
    L = None
    for boost in (0.0, jitter, jitter * 1e3, jitter * 1e6):
        try:
            L = np.linalg.cholesky(scaled + boost * (dim + lam) * np.eye(dim))
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise ArithmeticError("covariance degenerate: Cholesky failed after jitter")
    pts = np.empty((2 * dim + 1, dim))
    pts[0] = mean
    pts[1:dim + 1] = mean + L.T
    pts[dim + 1:] = mean - L.T
    return pts, wm, wc


def unscented_moments(points, wm, wc):
    # center on the first point: with weights of magnitude 1/alpha^2 the
    # naive weighted sum loses ~6 digits to cancellation
    mean = points[0] + wm @ (points - points[0])
    d = points - mean
    cov = (wc[:, None] * d).T @ d
    return mean, 0.5 * (cov + cov.T)


def measurement_model(ukf, points, friction=True):
    """Predicted measurements [sdot, I_m, tau_F, f_FT, alpha, omega], one
    row per point; without the tau_F channel unless `friction` (the
    channel set of a filter built without it)."""
    sl = ukf.slices
    pts = np.atleast_2d(points)
    blocks = [pts[:, sl["sdot"]], pts[:, sl["tau_m"]] / ukf.gear_torque]
    if friction:
        blocks.append(pts[:, sl["tau_f"]])
    blocks += [pts[:, sl["f_ft"]], pts[:, sl["alpha"]], pts[:, sl["omega"]]]
    return np.hstack(blocks)


def measurement_noise(ukf, friction=True):
    """The diagonal measurement-noise covariance of `measurement_model`:
    encoder-filter velocity 0.02 rad/s, current 0.005 A, friction-net
    estimate 0.2 N*m, FT force 0.5 N and torque 0.05 N*m, accelerometer
    0.02 m/s^2 and gyro 0.002 rad/s (standard deviations)."""
    n = ukf.n
    r = [np.full(n, 0.02), np.full(n, 0.005)]
    if friction:
        r.append(np.full(n, 0.2))
    per_ft = np.concatenate([np.full(3, 0.5), np.full(3, 0.05)])
    r.append(np.tile(per_ft, len(ukf.model.ft_frames)))
    r.append(np.full(3, 0.02))
    r.append(np.full(3, 0.002))
    return np.diag(np.concatenate(r) ** 2)


# the frame the filter's external wrench acts at, by model: the desk
# biped's torso push frame and the test pendulum's base frame
PUSH_FRAMES = ("torso_push", "push")


def push_frame(model):
    """The one `PUSH_FRAMES` entry `model` has."""
    (name,) = [f for f in PUSH_FRAMES if f in model.sensor_frames]
    return name


def step_terms(ukf, s, base_R, base_lin_vel, mean):
    """Dynamics matrices evaluated once per step at the prior mean, with
    the base at attitude `base_R` moving at `base_lin_vel` (base
    coordinates)."""
    model = ukf.model
    base_pose = Transform(base_R, np.zeros(3))
    omega = mean[ukf.slices["omega"]]
    nu = np.concatenate([base_lin_vel, omega, mean[ukf.slices["sdot"]]])
    fp = forward_pass(model, base_pose, s, nu)
    M = crba(fp)
    C = fp.inverse_dynamics()[6:]
    names = tuple(model.ft_frames) + (push_frame(model),)
    jac = dict(zip(names, frame_jacobian(fp, names)[:, :, 6:]))
    return {"Minv": np.linalg.inv(M[6:, 6:]), "Msb": M[6:, :6], "C": C,
            "jac": jac, "omega": omega, "base_lin_vel": base_lin_vel}


def process_model(ukf, points, terms):
    """Propagate sigma points one step through the articulated dynamics."""
    sl = ukf.slices
    pts = np.array(points, dtype=float)
    rhs = pts[:, sl["tau_m"]] - pts[:, sl["tau_f"]] - terms["C"]
    # base proper acceleration from the accelerometer state, with omega
    # and the base velocity fixed at the step mean
    w = terms["omega"]
    r = ukf.imu_offset.p
    corr = cross3(w, cross3(w, r)) + cross3(w, terms["base_lin_vel"])
    a_g = np.zeros((len(pts), 6))
    a_g[:, :3] = pts[:, sl["alpha"]] @ ukf.imu_offset.R.T - corr
    rhs -= a_g @ terms["Msb"].T
    for k, name in enumerate(ukf.model.ft_frames):
        rhs += pts[:, sl["f_ft"]][:, 6 * k:6 * k + 6] @ terms["jac"][name]
    rhs += pts[:, sl["f_ext"]] @ terms["jac"][push_frame(ukf.model)]
    pts[:, sl["sdot"]] += ukf.dt * (rhs @ terms["Minv"].T)
    return pts


def reference_step(ukf, belief, s, base_R, base_lin_vel, measurement,
                   alpha=1e-3, beta=2.0, kappa=0.0):
    """The sigma-point predict/update cycle; the contract of
    `TorqueUkf.step`, with the base attitude and velocity of `step_terms`."""
    mean, cov = belief
    friction = len(measurement) == measurement_model(ukf, mean).shape[1]
    terms = step_terms(ukf, s, base_R, base_lin_vel, mean)
    pts, wm, wc = sigma_points(mean, cov, alpha, beta, kappa)
    mean_p, cov_p = unscented_moments(process_model(ukf, pts, terms), wm, wc)
    cov_p = cov_p + ukf.Q

    # redraw sigma points from the predicted belief for the update
    pts_u, wm, wc = sigma_points(mean_p, cov_p, alpha, beta, kappa)
    z_pts = measurement_model(ukf, pts_u, friction)
    z_mean = z_pts[0] + wm @ (z_pts - z_pts[0])
    dz = z_pts - z_mean
    dx = pts_u - mean_p
    S = (wc[:, None] * dz).T @ dz + measurement_noise(ukf, friction)
    Pxz = (wc[:, None] * dx).T @ dz
    L = np.linalg.cholesky(0.5 * (S + S.T))
    K = np.linalg.solve(L.T, np.linalg.solve(L, Pxz.T)).T
    mean_new = mean_p + K @ (measurement - z_mean)
    cov_new = cov_p - K @ S @ K.T
    cov_new = 0.5 * (cov_new + cov_new.T)
    return Belief(mean_new, cov_new)
