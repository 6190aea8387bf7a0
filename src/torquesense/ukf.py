"""Floating-base Kalman filter for joint-torque estimation.

The state stacks joint velocities, motor torques, friction torques,
foot force/torque wrenches, one external wrench and the base IMU
signals; joint positions enter as an input, not a state.  Joint
velocities propagate through the articulated dynamics; every other
block is a random walk (constant over one step).  Friction predictions
from the learned friction nets enter as direct measurements of the
friction-torque block, which is what lets the filter separate motor
torque from load torque without joint torque sensing; a filter is built
with or without that channel, once.  The noise of each block is a
module constant, read only by the block table in `TorqueUkf`.

The filter reads no base attitude and no base linear velocity, and
needs neither.  Its dynamics pass takes ν and the accelerations in base
coordinates, with gravity only in the accelerometer's proper
acceleration, so its joint rows are the same at any base pose (frame
invariance); the accelerometer reads the classical acceleration, so the
base velocity's bias in C(ν) cancels its ω × v term there (Galilean
invariance; Featherstone, "Rigid Body Dynamics Algorithms", 2008,
ch. 2).  So the pass runs, exactly, at the identity pose, ν = [0, ω, ṡ].

The estimator is the paper's unscented Kalman filter.  With the
dynamics terms (mass matrix, bias, Jacobians) evaluated once per step
at the prior mean, the process model is affine in the state and the
measurement model is linear, and the unscented transform is exact for
affine maps (Julier & Uhlmann, 1997).  `TorqueUkf.step` therefore
computes the UKF's result in closed form, as the linear Kalman update
`F P F^T + Q`, `K = P H^T S^-1`, where only the joint-velocity rows of
`F` differ from the identity.  It runs the update in array form (Morf
& Kailath, 1975): the Cholesky factor of one stacked array of S, P H^T,
P and the innovation holds K, the posterior covariance factor and the
whitened innovation, so no gain is formed by solves.  The sigma-point
form it replaces lives in the tests as the reference it is checked
against.
"""

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dynamics import crba, forward_pass, frame_jacobian
from .spatial import Transform, cross3


# process noise: each block's random-walk std per sqrt(s), Q = q^2 dt
Q_SDOT = 0.05           # joint velocities, rad/s
Q_TAU_M = 2.0           # motor torques, N*m
Q_TAU_F = 1.0           # friction torques, N*m
Q_FT = 10.0             # foot wrenches, N and N*m
Q_EXT = 30.0            # external wrench, N and N*m
Q_ALPHA = 0.5           # base proper acceleration, m/s^2
Q_OMEGA = 0.05          # base angular velocity, rad/s
# measurement-noise std of each channel
R_SDOT = 0.02           # rad/s, encoder-filter joint velocity
R_CURRENT = 0.005       # A
R_TAU_F = 0.2           # N*m, friction-net estimate
R_FT_FORCE = 0.5        # N
R_FT_TORQUE = 0.05      # N*m
R_IMU_ACC = 0.02        # m/s^2
R_IMU_GYRO = 0.002      # rad/s


class Belief(NamedTuple):
    """Filter belief: state mean and covariance."""
    mean: np.ndarray
    cov: np.ndarray


class TorqueUkf:
    """Torque filter bound to one robot model and motor parameter set.

    It reads the model's `ft_frames`, `imu_frame` and `push_frame` (the
    external wrench acts there), and one channel set, in state block
    order: [sdot, I_m, tau_F, f_FT, alpha, omega], the friction-net
    estimates tau_F only when built with `friction`.  `gear_torque` is
    each joint's N k_t, which maps its motor torque to the measured
    current.  The noise of every block is the module's Q_* and R_*
    constants.
    """

    def __init__(self, model, gear_torque, dt, friction):
        self.model = model
        self.dt = float(dt)
        self.n = n = model.ndof
        self.gear_torque = np.asarray(gear_torque, float)
        idx, self.imu_offset = model.frame(model.imu_frame)
        if idx != 0:
            raise ValueError("IMU frame must sit on the base link")
        # the state blocks: name, size, process-noise std, and measurement-
        # noise std per channel (None: no sensor reads the block)
        ft_r = np.tile(np.repeat([R_FT_FORCE, R_FT_TORQUE], 3),
                       len(model.ft_frames))
        blocks = [("sdot", n, Q_SDOT, R_SDOT),
                  ("tau_m", n, Q_TAU_M, R_CURRENT),
                  ("tau_f", n, Q_TAU_F, R_TAU_F if friction else None),
                  ("f_ft", ft_r.size, Q_FT, ft_r),
                  ("f_ext", 6, Q_EXT, None),
                  ("alpha", 3, Q_ALPHA, R_IMU_ACC),
                  ("omega", 3, Q_OMEGA, R_IMU_GYRO)]
        ends = list(accumulate(size for _, size, _, _ in blocks))
        self.slices = {name: slice(end - size, end)
                       for (name, size, _, _), end in zip(blocks, ends)}
        self.dim = d = ends[-1]
        self._measured = [name for name, _, _, r in blocks if r is not None]
        q = np.concatenate([np.full(size, q_std) for _, size, q_std, _ in blocks])
        r2 = np.concatenate([np.broadcast_to(r_std, size) for _, size, _, r_std
                             in blocks if r_std is not None]) ** 2
        self.Q = np.diag((q * np.sqrt(self.dt)) ** 2)
        eye = np.eye(d)
        self.H = eye[np.r_[tuple(self.slices[b] for b in self._measured)]]
        self.H[:, self.slices["tau_m"]] /= self.gear_torque  # I_m = tau_m / (N k_t)
        self.R, self._R_inv = np.diag(r2), 1.0 / r2
        self._prior_jitter = 1e-6 * eye
        self._made = None  # the belief the last step returned
        self._wrench_frames = tuple(model.ft_frames) + (model.push_frame,)
        model.frame_stack(self._wrench_frames)  # FrameError if one is unknown
        self._wrench_cols = slice(self.slices["f_ft"].start,
                                  self.slices["f_ext"].stop)
        self._B0 = np.zeros((n, self.dim + 1))
        self._B0[:, self.slices["tau_m"]] = np.eye(n)
        self._B0[:, self.slices["tau_f"]] = -np.eye(n)

    def initial_belief(self):
        """Zero mean, and a broad diagonal covariance scaled from Q."""
        cov = np.diag(np.maximum(np.diag(self.Q) * 100.0, 1e-4))
        return Belief(np.zeros(self.dim), cov)

    # -- model terms -------------------------------------------------

    def _step_terms(self, s, mean):
        """Affine velocity transition at the prior mean: sdot+ = sdot + G x + c.

        The dynamics read Ms sddot = tau_m - tau_f + sum_k J_k^T f_k
        + J_ext^T f_ext - C - Msb a_base; the base proper acceleration
        a_base comes from the accelerometer state at the IMU offset r,
        a_imu = a_base + omega x (omega x r) (angular acceleration
        neglected), inverted with omega fixed at the step mean so the
        map stays affine, at the identity base pose (module docstring).
        """
        sl = self.slices
        omega = mean[sl["omega"]]
        nu = np.concatenate([np.zeros(3), omega, mean[sl["sdot"]]])
        fp = forward_pass(self.model, Transform(), s, nu)
        M = crba(fp)
        Msb_lin = M[6:, :3]
        C = fp.inverse_dynamics()[6:]
        corr = cross3(omega, cross3(omega, self.imu_offset.p))
        # B maps the state to the joint-space force, its last column is
        # the constant term; the FT and external wrench blocks are
        # adjacent, one J^T block per frame
        B = self._B0.copy()
        jac = frame_jacobian(fp, self._wrench_frames)[:, :, 6:]
        B[:, self._wrench_cols] = jac.transpose(2, 0, 1).reshape(self.n, -1)
        B[:, sl["alpha"]] = -Msb_lin @ self.imu_offset.R
        B[:, -1] = Msb_lin @ corr - C
        Gc = self.dt * np.linalg.solve(M[6:, 6:], B)
        return Gc[:, :-1], Gc[:, -1]

    def process_model(self, x, G, c):
        """State `x` advanced one step by the step terms `G`, `c`."""
        x = np.array(x, dtype=float)
        x[self.slices["sdot"]] += G @ x + c
        return x

    def assemble_measurement(self, sdot_meas, currents, tau_f_pinn, ft,
                             imu_acc, imu_gyro):
        """Stack raw sensor values into the measurement vector.

        `ft` holds the (k, 6) FT wrenches in the model's `ft_frames`
        order.  Only a filter built with `friction` reads `tau_f_pinn`.
        """
        readings = {"sdot": sdot_meas, "tau_m": currents, "tau_f": tau_f_pinn,
                    "f_ft": ft, "alpha": imu_acc, "omega": imu_gyro}
        return np.concatenate([np.ravel(readings[name])
                               for name in self._measured])

    # -- filter step -------------------------------------------------

    def step(self, belief, s, measurement):
        """One predict/update cycle from `belief`; returns the new Belief.

        `s` are the joint positions (filter input), `measurement` the
        output of assemble_measurement; one of another length raises
        ValueError.  The result depends on the arguments only.  A prior
        covariance that is not positive semi-definite (within a 1e-6
        jitter) raises ArithmeticError; the belief the filter's last
        step returned is one by construction and is not factored again.
        The arrays of a returned belief are read-only, so it stays the
        belief the step made.

        The update is the array (square-root) form of the Kalman update
        (Morf & Kailath, "Square-root algorithms for least-squares
        estimation", IEEE TAC 1975): one Cholesky factorisation of a
        stacked array gives the gain, the posterior covariance factor
        and the whitened innovation.
        """
        H, m, d = self.H, len(measurement), self.dim
        if m != len(H):
            raise ValueError(f"{m} measurement channels, expected {len(H)}")
        mean, cov = belief
        # the update factors only the predicted covariance, which Q pads,
        # so a prior that is no covariance could pass on silently.  The
        # belief the last step returned has cov L22 L22^T and needs no
        # check; any other is checked.
        if belief is not self._made:
            try:
                np.linalg.cholesky(cov + self._prior_jitter)
            except np.linalg.LinAlgError:
                raise ArithmeticError(
                    "prior covariance not positive semi-definite") from None
        G, c = self._step_terms(s, mean)
        sd = self.slices["sdot"]
        # F = I + E G with E the sdot-row selector: F P F^T touches only
        # the sdot rows and columns
        mean_p = self.process_model(mean, G, c)
        W = G @ cov
        GPG = W @ G.T
        cov_p = np.array(cov, dtype=float)
        cov_p[sd, :] += W
        cov_p[:, sd] += W.T
        cov_p[sd, sd] += 0.5 * (GPG + GPG.T)
        cov_p += self.Q

        # array form: the Cholesky factor of
        #   [[S,     H P, nu],        [[L11,   0,   0],
        #    [P H^T, P,   0 ],   =     [K L11, L22, 0],   times its transpose,
        #    [nu^T,  0,   c ]]         [w^T,   *,   *]]
        # holds the gain factor K L11, the posterior factor L22
        # (L22 L22^T = P - K S K^T) and the whitened innovation
        # w = L11^-1 nu, so K nu = (K L11) w and w^T w is the NIS.
        # cholesky reads the lower triangle only, so the upper blocks
        # stay zero.  The last pivot is c - nu^T X nu with X the top-left
        # block of the inverse of [[S, H P], [P H^T, P]]; X is R^-1, as
        # the Schur complement of P there is S - H P H^T = R.  So
        # c = 1 + 2 nu^T R^-1 nu makes that pivot 1 + nu^T R^-1 nu >= 1.
        HP = H @ cov_p
        nu = measurement - H @ mean_p
        A = np.zeros((m + d + 1, m + d + 1))
        A[:m, :m] = HP @ H.T + self.R
        A[m:-1, :m] = HP.T
        A[m:-1, m:-1] = cov_p
        A[-1, :m] = nu
        A[-1, -1] = 1.0 + 2.0 * nu @ (nu * self._R_inv)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            S = A[:m, :m]
            try:
                np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                worst = int(np.argmin(np.diag(S)))
                raise ArithmeticError("innovation covariance not positive "
                                      f"definite (row {worst})") from None
            raise ArithmeticError(
                "posterior covariance not positive definite") from None
        mean_new = mean_p + L[m:-1, :m] @ L[-1, :m]
        # numpy forms L22 L22^T as a symmetric rank-k product, exactly
        # symmetric
        L22 = L[m:-1, m:-1]
        cov_new = L22 @ L22.T

        # read-only: the next step trusts a belief it made unchecked
        for a in (mean_new, cov_new):
            a.flags.writeable = False
        self._made = Belief(mean_new, cov_new)
        return self._made

    def joint_torque_estimate(self, mean):
        """Joint-side load torque: motor torque minus friction torque."""
        return mean[self.slices["tau_m"]] - mean[self.slices["tau_f"]]
