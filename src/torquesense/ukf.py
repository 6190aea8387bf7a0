"""Floating-base unscented Kalman filter for joint-torque estimation.

The state stacks joint velocities, motor torques, friction torques,
foot force/torque wrenches, one external wrench and the base IMU
signals; joint positions enter as an input, not a state.  Joint
velocities propagate through the articulated dynamics; every other
block is a random walk (constant over one step).  Friction predictions
from the learned friction nets enter as direct measurements of the
friction-torque block, which is what lets the filter separate motor
torque from load torque without joint torque sensing.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import coriolis_bias, crba, forward_pass, frame_jacobian
from .spatial import Transform, cross3, exp_so3


@dataclass
class UkfConfig:
    """Noise densities, sigma-point parameters and sensor frame wiring."""
    ft_frames: tuple = ("left_foot_ft", "right_foot_ft")
    ext_frame: str = "torso_push"
    imu_frame: str = "waist_imu"
    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0
    # process noise std per sqrt(step) for each block
    q_sdot: float = 0.05
    q_tau_m: float = 2.0
    q_tau_f: float = 1.0
    q_ft: float = 10.0
    q_ext: float = 30.0
    q_alpha: float = 0.5
    q_omega: float = 0.05
    # measurement noise std per channel
    r_sdot: float = 0.02
    r_current: float = 0.005
    r_tau_f: float = 0.2
    r_ft_force: float = 0.5
    r_ft_torque: float = 0.05
    r_imu_acc: float = 0.02
    r_imu_gyro: float = 0.002


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


class ComplementaryAttitude:
    """Gyro-integrated base attitude with accelerometer tilt correction."""

    def __init__(self, gain=0.05, R0=None):
        self.gain = gain
        self.R = np.eye(3) if R0 is None else np.array(R0, dtype=float)

    def update(self, acc, gyro, dt):
        """Advance by one IMU sample (body-frame readings)."""
        self.R = self.R @ exp_so3(np.asarray(gyro, dtype=float) * dt)
        a = np.asarray(acc, dtype=float)
        norm = np.linalg.norm(a)
        if norm > 1e-6:
            up_meas = a / norm          # static accelerometer reads +g direction
            up_pred = self.R.T @ np.array([0.0, 0.0, 1.0])
            err = cross3(up_pred, up_meas)   # body-frame tilt error
            self.R = self.R @ exp_so3(-self.gain * err)
        return self.R


class TorqueUkf:
    """UKF instance bound to one robot model and motor parameter set."""

    def __init__(self, model, gear_ratio, k_t, dt, config=None):
        self.model = model
        self.config = config or UkfConfig()
        self.dt = float(dt)
        n = model.ndof
        self.n = n
        self.gear_torque = np.asarray(gear_ratio, float) * np.asarray(k_t, float)
        cfg = self.config
        self.n_ft = len(cfg.ft_frames)
        # state layout
        sizes = [("sdot", n), ("tau_m", n), ("tau_f", n),
                 ("f_ft", 6 * self.n_ft), ("f_ext", 6),
                 ("alpha", 3), ("omega", 3)]
        self.slices = {}
        off = 0
        for name, size in sizes:
            self.slices[name] = slice(off, off + size)
            off += size
        self.dim = off
        idx, offset = model.frame(cfg.imu_frame)
        if idx != 0:
            raise ValueError("IMU frame must sit on the base link")
        self.imu_offset = offset
        self.Q = self._process_noise()
        self.base_lin_vel = np.zeros(3)
        self.last_innovation = None
        self.innovation_log = []

    def _process_noise(self):
        cfg = self.config
        q = np.empty(self.dim)
        q[self.slices["sdot"]] = cfg.q_sdot
        q[self.slices["tau_m"]] = cfg.q_tau_m
        q[self.slices["tau_f"]] = cfg.q_tau_f
        q[self.slices["f_ft"]] = cfg.q_ft
        q[self.slices["f_ext"]] = cfg.q_ext
        q[self.slices["alpha"]] = cfg.q_alpha
        q[self.slices["omega"]] = cfg.q_omega
        return np.diag((q * np.sqrt(self.dt)) ** 2)

    def initial_belief(self, sdot=None, tau_m=None):
        mean = np.zeros(self.dim)
        if sdot is not None:
            mean[self.slices["sdot"]] = sdot
        if tau_m is not None:
            mean[self.slices["tau_m"]] = tau_m
        scale = np.diag(self.Q).copy()
        cov = np.diag(np.maximum(scale * 100.0, 1e-4))
        return mean, cov

    # -- model terms -------------------------------------------------

    def _step_terms(self, s, base_R, mean):
        """Dynamics matrices evaluated once per step at the sigma mean."""
        model = self.model
        cfg = self.config
        base_pose = Transform(base_R, np.zeros(3))
        omega = mean[self.slices["omega"]]
        nu = np.concatenate([self.base_lin_vel, omega, mean[self.slices["sdot"]]])
        fp = forward_pass(model, base_pose, s, nu)
        M = crba(model, s, fp=fp)
        Ms = M[6:, 6:]
        Msb = M[6:, :6]
        C = coriolis_bias(model, base_pose, s, nu, fp=fp)[6:]
        jac = {}
        for name in tuple(cfg.ft_frames) + (cfg.ext_frame,):
            jac[name] = frame_jacobian(model, base_pose, s, name, fp=fp)[:, 6:]
        Minv = np.linalg.inv(Ms)
        return {"Minv": Minv, "Msb": Msb, "C": C, "jac": jac, "omega": omega}

    def _base_proper_accel(self, alphas, terms):
        """Base proper acceleration (6,) per sigma from the IMU states.

        The accelerometer reading at the IMU offset r is
        a_imu = a_base + omega x (omega x r) + omega x v_base (angular
        acceleration neglected); invert with omega and v fixed at the
        step mean so the map stays affine in the state.
        """
        w = terms["omega"]
        r = self.imu_offset.p
        corr = cross3(w, cross3(w, r)) + cross3(w, self.base_lin_vel)
        out = np.zeros((len(alphas), 6))
        out[:, :3] = alphas @ self.imu_offset.R.T - corr
        return out

    def process_model(self, points, terms):
        """Propagate sigma points one step; affine given the step terms."""
        sl = self.slices
        pts = np.array(points, dtype=float)
        sdot = pts[:, sl["sdot"]]
        rhs = pts[:, sl["tau_m"]] - pts[:, sl["tau_f"]] - terms["C"]
        a_g = self._base_proper_accel(pts[:, sl["alpha"]], terms)
        rhs -= a_g @ terms["Msb"].T
        for k, name in enumerate(self.config.ft_frames):
            wrench = pts[:, sl["f_ft"]][:, 6 * k:6 * k + 6]
            rhs += wrench @ terms["jac"][name]
        rhs += pts[:, sl["f_ext"]] @ terms["jac"][self.config.ext_frame]
        sddot = rhs @ terms["Minv"].T
        pts[:, sl["sdot"]] = sdot + self.dt * sddot
        return pts

    def measurement_model(self, points, mask_friction=False):
        """Predicted measurements [sdot, I_m, tau_F, f_FT, alpha, omega]."""
        sl = self.slices
        pts = np.atleast_2d(points)
        blocks = [pts[:, sl["sdot"]],
                  pts[:, sl["tau_m"]] / self.gear_torque]
        if not mask_friction:
            blocks.append(pts[:, sl["tau_f"]])
        blocks += [pts[:, sl["f_ft"]], pts[:, sl["alpha"]], pts[:, sl["omega"]]]
        return np.hstack(blocks)

    def _measurement_noise(self, mask_friction):
        cfg = self.config
        r = [np.full(self.n, cfg.r_sdot), np.full(self.n, cfg.r_current)]
        if not mask_friction:
            r.append(np.full(self.n, cfg.r_tau_f))
        per_ft = np.concatenate([np.full(3, cfg.r_ft_force),
                                 np.full(3, cfg.r_ft_torque)])
        r.append(np.tile(per_ft, self.n_ft))
        r.append(np.full(3, cfg.r_imu_acc))
        r.append(np.full(3, cfg.r_imu_gyro))
        return np.diag(np.concatenate(r) ** 2)

    def assemble_measurement(self, sdot_meas, currents, ft, imu_acc, imu_gyro,
                             tau_f_pinn=None):
        """Stack raw sensor values into the measurement vector.

        Passing tau_f_pinn=None masks the friction channel entirely.
        """
        blocks = [np.asarray(sdot_meas, float), np.asarray(currents, float)]
        if tau_f_pinn is not None:
            blocks.append(np.asarray(tau_f_pinn, float))
        for name in self.config.ft_frames:
            blocks.append(np.asarray(ft[name], float))
        blocks += [np.asarray(imu_acc, float), np.asarray(imu_gyro, float)]
        return np.concatenate(blocks)

    # -- filter step -------------------------------------------------

    def step(self, mean, cov, s, base_R, measurement, mask_friction=False):
        """One predict/update cycle; returns (mean, cov).

        `s` are the joint positions (filter input), `base_R` the base
        attitude from the IMU attitude source, `measurement` the output
        of assemble_measurement (built with tau_f_pinn=None iff
        mask_friction).
        """
        cfg = self.config
        terms = self._step_terms(s, base_R, mean)
        pts, wm, wc = sigma_points(mean, cov, cfg.alpha, cfg.beta, cfg.kappa)
        prop = self.process_model(pts, terms)
        mean_p, cov_p = unscented_moments(prop, wm, wc)
        cov_p = cov_p + self.Q

        # redraw sigma points from the predicted belief for the update
        pts_u, wm, wc = sigma_points(mean_p, cov_p, cfg.alpha, cfg.beta, cfg.kappa)
        z_pts = self.measurement_model(pts_u, mask_friction)
        z_mean = z_pts[0] + wm @ (z_pts - z_pts[0])
        dz = z_pts - z_mean
        dx = pts_u - mean_p
        S = (wc[:, None] * dz).T @ dz + self._measurement_noise(mask_friction)
        Pxz = (wc[:, None] * dx).T @ dz
        try:
            L = np.linalg.cholesky(0.5 * (S + S.T))
        except np.linalg.LinAlgError:
            worst = int(np.argmin(np.diag(S)))
            raise ArithmeticError(
                f"innovation covariance not positive definite (row {worst})")
        K = np.linalg.solve(L.T, np.linalg.solve(L, Pxz.T)).T
        innovation = measurement - z_mean
        mean_new = mean_p + K @ innovation
        cov_new = cov_p - K @ S @ K.T
        cov_new = 0.5 * (cov_new + cov_new.T)
        self.last_innovation = innovation
        self.innovation_log.append(float(innovation @ innovation))

        # keep the auxiliary base linear velocity current (leaky
        # integration of the proper acceleration plus gravity)
        alpha = mean_new[self.slices["alpha"]]
        a_base = self.imu_offset.R @ alpha + base_R.T @ self.model.gravity
        self.base_lin_vel = 0.995 * (self.base_lin_vel + self.dt * a_base)
        return mean_new, cov_new

    def joint_torque_estimate(self, mean):
        """Joint-side load torque: motor torque minus friction torque."""
        return mean[self.slices["tau_m"]] - mean[self.slices["tau_f"]]
