"""Closed-loop experiment runner, metrics and report generation.

One run wires together the simulation plant, the online estimator stack
(encoder filters, attitude filter, learned friction nets, torque
filter), and the cascaded controller in one of the seven modes, then
reduces the log to torque-tracking and center-of-mass metrics.  Sweeps
repeat a scenario across modes or across friction-parameter scalings
and assemble comparison tables.
"""

import csv
import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import pinn
from .control import (ControlConfig, MODES, PositionPD, RateScheduler,
                      TorquePI, high_level_balancer, needs_friction_nets,
                      rnea_torque_feedback)
from .kf import encoder_lsb, mean_step, steady_state_gain
from .plant import (Disturbance, ObjectEvent, Plant, ScenarioConfig,
                    SimulationDiverged)
from .spatial import Transform, cross3
from .ukf import ComplementaryAttitude, TorqueUkf


class OnlineKf:
    """Bank of steady-state-gain encoder filters for the per-step control path.

    One filter per entry of `lsb` (the channels' quantization steps),
    starting at rest at `x0` (broadcast over the channels).  The
    covariance recursion runs to convergence once at start-up, in one
    batch over the distinct `lsb` values; the loop then applies the
    constant gains, which is what a fixed-cost real-time implementation
    would do.
    """

    def __init__(self, dt, lsb, q_accel, q_jerk, x0=0.0):
        lsb = np.atleast_1d(np.asarray(lsb, dtype=float))
        kinds, kind = np.unique(lsb, return_inverse=True)
        K = steady_state_gain(dt, kinds, q_accel, q_jerk)
        self.K = np.ascontiguousarray(K[kind.ravel()].T)  # (3, channels)
        self.dt = dt
        self.x = np.broadcast_to(np.asarray(x0, dtype=float), lsb.shape).copy()
        self.v, self.a = np.zeros(len(lsb)), np.zeros(len(lsb))

    def update(self, z):
        """Advance every channel by one sample; returns (x, v, a) arrays."""
        self.x, self.v, self.a = mean_step(self.x, self.v, self.a, z, self.K,
                                           self.dt)
        return self.x, self.v, self.a


DEFAULT_KF_GAINS = {"q_accel": 1e-3, "q_jerk": 200.0}
BURN_IN = 0.5  # s of every run left out of the torque metrics


def check_duration(scenario):
    """Reject a scenario too short to leave samples after the burn-in."""
    steps = int(round(scenario.duration / scenario.step))
    needed = int(round(BURN_IN / scenario.step)) + 2
    if steps < needed:
        raise ValueError(
            f"ScenarioConfig.duration ({scenario.duration:g} s) leaves no "
            f"samples after the {BURN_IN:g} s metrics burn-in; it must be at "
            f"least {needed * scenario.step:g} s")


def encoder_bank(scenario, state, gains):
    """One filter bank over the 2n encoders of a plant at `state`:
    joint positions (channels 0..n-1), then motor positions."""
    n = len(state.s)
    lsb = np.repeat([encoder_lsb(scenario.noise["joint_encoder_bits"]),
                     encoder_lsb(scenario.noise["motor_encoder_bits"])], n)
    return OnlineKf(scenario.step, lsb, **gains,
                    x0=np.concatenate([state.s, state.motor_pos]))


def generate_friction_dataset(scenario=None, duration=6.0, seed=0,
                              joint=0, current_amp=0.35):
    """Excitation run producing a friction-identification log.

    The robot hangs base-locked while every joint is driven by a
    multi-sine current; returns (t, motor-side velocity mapped to the
    joint side, joint velocity, true friction torque) for `joint`,
    with both velocities taken from the online encoder filters exactly
    as the controller will see them.
    """
    if scenario is None:
        scenario = ScenarioConfig(step=1e-3, duration=duration, seed=seed,
                                  lock_base=True)
    plant = Plant(scenario)
    st = plant.initial_state(base_height=2.0)  # feet clear of the ground
    n = plant.n
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=(n, 3))
    freqs = np.array([0.3, 0.9, 1.7])
    encoders = encoder_bank(scenario, st, DEFAULT_KF_GAINS)
    steps = int(round(duration / scenario.step))
    t_log = np.empty(steps)
    mv_log = np.empty(steps)
    jv_log = np.empty(steps)
    fr_log = np.empty(steps)
    for k in range(steps):
        t = k * scenario.step
        currents = current_amp * np.sin(
            2 * np.pi * freqs[None, :] * t + phases).sum(axis=1)
        st, sb = plant.step(st, currents)
        _, v, _ = encoders.update(np.concatenate([sb.joint_pos, sb.motor_pos]))
        t_log[k] = st.t
        mv_log[k] = v[n + joint] / plant.reduction[joint]
        jv_log[k] = v[joint]
        fr_log[k] = st.tau_friction[joint]
    return t_log, mv_log, jv_log, fr_log


def train_friction_net(dataset, scv, seed=0, lam=0.3, buffer_len=8,
                       hidden=48, epochs=40):
    """Train one friction net on an identification log."""
    t, mv, jv, fr = dataset
    net = pinn.FrictionNet(buffer_len, hidden, hidden, 0.0, lam, scv, seed=seed)
    samples = pinn.build_samples(t, mv, jv, fr, buffer_len)
    pinn.train(net, samples, epochs=epochs, batch_size=64,
               learning_rate=2e-3, seed=seed)
    return net


def default_friction_nets(plant, dataset=None, seed=0, **train_kw):
    """One net per joint; joints sharing friction parameters share a net."""
    if dataset is None:
        dataset = generate_friction_dataset(seed=seed)
    cache = {}
    nets = {}
    for j, name in enumerate(plant.model.joint_names):
        scv = plant.scv[j]
        if scv not in cache:
            cache[scv] = train_friction_net(dataset, scv, seed=seed, **train_kw)
        nets[name] = cache[scv]
    return nets


def group_by_net(nets, joint_names):
    """[(net, joint indices)], one entry per distinct net (by identity)."""
    groups = {}
    for j, name in enumerate(joint_names):
        groups.setdefault(id(nets[name]), (nets[name], []))[1].append(j)
    return [(net, np.array(idx)) for net, idx in groups.values()]


def predict_friction(net_groups, mv_buf, jv_buf):
    """Bounded friction estimate of every joint, one net call per group.

    `mv_buf` and `jv_buf` are (length, joints) velocity histories,
    newest row last, at least as long as every net's buffer.
    """
    tau_f = np.empty(mv_buf.shape[1])
    for net, idx in net_groups:
        L = net.buffer_len
        tau_f[idx] = pinn.predict_bounded(net, mv_buf[-L:, idx].T,
                                          jv_buf[-L:, idx].T)
    return tau_f


@dataclass
class RunLog:
    """Per-sample arrays logged at the sensor rate."""
    t: np.ndarray
    tau_d: np.ndarray
    tau_true: np.ndarray
    tau_feedback: np.ndarray
    com: np.ndarray
    com_ref: np.ndarray
    currents: np.ndarray
    fell: bool
    fall_time: float
    diverged: bool


def _first_disturbance_time(scenario):
    times = [d.time for d in scenario.disturbances]
    times += [e.time for e in scenario.object_events]
    return min(times) if times else None


def run_scenario(scenario, control, nets=None, kf_gains=None, out_dir=None,
                 label=None):
    """Run one closed-loop scenario; returns (report dict, RunLog).

    `nets` maps joint name to a trained friction net (required for the
    PINN modes and the torque-filter friction channel).  If `out_dir`
    is given, the run CSV, report JSON and a metrics CSV row are
    written there under `label`.
    """
    sched = RateScheduler(scenario.step, control.high_rate)
    check_duration(scenario)
    plant = Plant(scenario)
    model = plant.model
    n = plant.n
    dt_s = scenario.step
    st = plant.initial_state()
    s0 = st.s.copy()
    gear_torque = plant.reduction * plant.k_t
    gains = dict(DEFAULT_KF_GAINS if kf_gains is None else kf_gains)

    mode = control.mode
    use_ukf = mode.startswith("UKF")
    use_rnea = mode.startswith("RNEA")
    use_pinn_comp = mode.endswith("PINN")
    needs_nets = needs_friction_nets(mode)
    if needs_nets and nets is None:
        raise ValueError(f"mode {mode} needs trained friction nets")
    net_groups = group_by_net(nets, model.joint_names) if needs_nets else []

    encoders = encoder_bank(scenario, st, gains)
    att = ComplementaryAttitude(R0=st.base_R.copy())
    buf_len = max((net.buffer_len for net, _ in net_groups), default=1)
    mv_buf = np.zeros((buf_len, n))
    jv_buf = np.zeros((buf_len, n))

    ukf = None
    if use_ukf:
        ukf = TorqueUkf(model, plant.reduction, plant.k_t, dt_s)
        belief = ukf.initial_belief()
    pi = TorquePI(n, control, gear_torque, dt_s)
    pos_pd = PositionPD(control, gear_torque)

    com0 = st.com.copy()
    amp = np.asarray(scenario.com_amplitude, dtype=float)
    omega_ref = 2.0 * np.pi * scenario.com_frequency
    nominal_com_z = com0[2]

    steps = int(round(scenario.duration / scenario.step))
    log_t = []
    log_tau_d = []
    log_tau = []
    log_fb = []
    log_com = []
    log_ref = []
    log_cur = []
    tau_d = np.zeros(n)
    currents = np.zeros(n)
    # friction feedforward is smoothed: its useful content is the
    # quasi-static stiction/Coulomb level, while the sample-to-sample
    # wiggle is prediction noise the torque loop cannot reject
    comp_alpha = 1.0 - np.exp(-2.0 * np.pi * control.comp_cutoff * dt_s)
    comp_state = np.zeros(n)
    fell = False
    fall_time = float("nan")
    diverged = False
    sdot_est = np.zeros(n)

    for k in range(steps):
        t = k * scenario.step
        if sched.due():
            # 100 Hz balancer on the current state estimate
            base_pose = st.base_pose()
            nu = np.concatenate([st.base_twist, sdot_est])
            com_ref = com0 + amp * np.sin(omega_ref * t)
            com_vel_ref = amp * omega_ref * np.cos(omega_ref * t)
            com_acc_ref = -amp * omega_ref ** 2 * np.sin(omega_ref * t)
            if mode != "PositionControl":
                tau_d = high_level_balancer(
                    model, base_pose, st.s, nu, com_ref, com_vel_ref,
                    com_acc_ref, ("left_sole", "right_sole"), control,
                    posture_ref=s0)

        try:
            st, sb = plant.step(st, currents)
        except SimulationDiverged as exc:
            diverged = True
            fall_time = exc.time if not fell else fall_time
            fell = True
            break

        # ---- estimators + torque loop, every plant step ----
        x, v, enc_acc = encoders.update(
            np.concatenate([sb.joint_pos, sb.motor_pos]))
        s_meas = x[:n]
        sdot_est = v[:n]
        mpos_est = x[n:] / plant.reduction
        mvel_est = v[n:] / plant.reduction
        mv_buf[:-1] = mv_buf[1:]
        mv_buf[-1] = mvel_est
        jv_buf[:-1] = jv_buf[1:]
        jv_buf[-1] = sdot_est
        imu_acc = sb.imu_acc["waist_imu"]
        imu_gyro = sb.imu_gyro["waist_imu"]
        R_est = att.update(imu_acc, imu_gyro, dt_s)

        tau_f_hat = None
        if needs_nets:
            tau_f_hat = predict_friction(net_groups, mv_buf, jv_buf)

        tau_fb = None
        if use_ukf:
            mask = mode == "UKF-NoComp"
            z = ukf.assemble_measurement(
                sdot_est, sb.currents, sb.ft, imu_acc, imu_gyro,
                tau_f_pinn=None if mask else tau_f_hat)
            belief = ukf.step(belief, s_meas, R_est, z, mask_friction=mask)
            tau_fb = ukf.joint_torque_estimate(belief.mean)
        elif use_rnea:
            # proper acceleration from IMU (base) and encoder filters (joints)
            w = imu_gyro
            r = model.frame("waist_imu")[1].p
            a_base = imu_acc - cross3(w, cross3(w, r))
            accel = np.concatenate([a_base, np.zeros(3),
                                    enc_acc[:n]])
            nu_est = np.concatenate([np.zeros(3), w, sdot_est])
            tau_fb = rnea_torque_feedback(
                model, Transform(R_est, np.zeros(3)), s_meas, nu_est, accel,
                sb.ft)

        if tau_f_hat is not None:
            comp_state += comp_alpha * (tau_f_hat - comp_state)

        if mode == "PositionControl":
            # collocated loop on the motor encoder mapped to the joint side
            currents = pos_pd(s0, mpos_est, mvel_est)
        else:
            comp = comp_state if use_pinn_comp else None
            fb = None if mode.startswith("Feedforward") else tau_fb
            currents = pi(tau_d, fb, comp)

        log_t.append(st.t)
        log_tau_d.append(tau_d.copy())
        log_tau.append(st.tau.copy())
        log_fb.append(tau_fb.copy() if tau_fb is not None else np.full(n, np.nan))
        log_com.append(st.com.copy())
        log_ref.append(com0 + amp * np.sin(omega_ref * st.t))
        log_cur.append(currents.copy())
        if not fell and st.com[2] < 0.7 * nominal_com_z:
            fell = True
            fall_time = st.t

    log = RunLog(np.array(log_t), np.array(log_tau_d), np.array(log_tau),
                 np.array(log_fb), np.array(log_com), np.array(log_ref),
                 np.array(log_cur), fell, fall_time, diverged)
    report = compute_metrics(log, scenario, control)
    if out_dir is not None:
        write_artifacts(out_dir, label or control.mode, scenario, control,
                        log, report)
    return report, log


def compute_metrics(log, scenario, control, burn_in=BURN_IN):
    """Reduce a run log to the report dictionary.

    Torque-tracking errors compare the commanded desired torque against
    the plant's true joint torque (ground truth, not the estimator's
    own feedback).  CoM errors are windowed to before the first
    scheduled disturbance, mirroring a disturbance-free baseline table.
    """
    t = log.t
    keep = t >= (t[0] + burn_in)
    err = log.tau_d[keep] - log.tau_true[keep]
    mse = np.mean(err ** 2, axis=0)
    rmse = np.sqrt(mse)
    mae = np.mean(np.abs(err), axis=0)

    first_dist = _first_disturbance_time(scenario)
    com_keep = keep.copy()
    if first_dist is not None:
        com_keep &= t < first_dist
    com_err = log.com[com_keep] - log.com_ref[com_keep]
    if len(com_err) == 0:
        com_err = np.zeros((1, 3))
    report = {
        "mode": control.mode,
        "seed": scenario.seed,
        "config_hash": scenario.config_hash(),
        "torque_mse": mse.tolist(),
        "torque_rmse": rmse.tolist(),
        "torque_mae": mae.tolist(),
        "torque_rmse_overall": float(np.sqrt(np.mean(err ** 2))),
        "com_mean_error_mm": (np.mean(np.abs(com_err), axis=0) * 1e3).tolist(),
        "com_max_error_mm": (np.max(np.abs(com_err), axis=0) * 1e3).tolist(),
        "avg_abs_torque": float(np.mean(np.abs(log.tau_true[keep]))),
        "peak_abs_torque": float(np.max(np.abs(log.tau_true))) if len(t) else 0.0,
        "fell": bool(log.fell),
        "fall_time": None if not log.fell else float(log.fall_time),
        "diverged": bool(log.diverged),
    }
    return report


def write_artifacts(out_dir, label, scenario, control, log, report):
    """Write run CSV, metrics CSV row and report JSON for one run."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, label.replace("/", "_"))
    n = log.tau_d.shape[1] if log.tau_d.ndim == 2 else 0
    header = ["t"]
    for block in ("tau_d", "tau_true", "tau_feedback", "current"):
        header += [f"{block}_{j}" for j in range(n)]
    header += ["com_x", "com_y", "com_z", "com_ref_x", "com_ref_y", "com_ref_z"]
    with open(base + "_run.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(log.t)):
            row = [repr(float(log.t[i]))]
            for arr in (log.tau_d, log.tau_true, log.tau_feedback, log.currents):
                row += [repr(float(x)) for x in arr[i]]
            row += [repr(float(x)) for x in log.com[i]]
            row += [repr(float(x)) for x in log.com_ref[i]]
            w.writerow(row)
    with open(base + "_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    replace_metrics_row(os.path.join(out_dir, "metrics.csv"), report)


METRICS_COLUMNS = ["mode", "seed", "config_hash", "torque_rmse_overall",
                   "avg_abs_torque", "peak_abs_torque", "fell", "fall_time",
                   "diverged", "com_mean_error_mm", "com_max_error_mm"]
METRICS_KEY = ("mode", "seed", "config_hash")


def write_metrics_csv(path, reports, append=True):
    """One row per run; stable column order for table assembly.

    A field a report lacks (a row read back from a file written before
    its column existed) is left empty.
    """
    exists = os.path.exists(path) and append
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        if not exists:
            w.writerow(METRICS_COLUMNS)
        for r in reports:
            w.writerow([json.dumps(v) if isinstance(v, list) else v
                        for v in (r.get(c, "") for c in METRICS_COLUMNS)])


def replace_metrics_row(path, report):
    """Write `report`'s metrics row in place of any row of the same
    (mode, seed, config_hash); rows of other runs are kept."""
    key = [str(report[c]) for c in METRICS_KEY]
    rows = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if [r.get(c) for c in METRICS_KEY] != key]
    write_metrics_csv(path, rows + [report], append=False)


def sweep_modes(scenario, modes=None, control=None, nets=None, out_dir=None):
    """Run a scenario across control modes with identical gains."""
    modes = list(MODES) if modes in (None, "all") else list(modes)
    base = control or ControlConfig()
    reports = []
    for mode in modes:
        cfg = ControlConfig(**{**base.__dict__, "mode": mode})
        rep, _ = run_scenario(scenario, cfg, nets=nets, out_dir=out_dir,
                              label=mode)
        reports.append(rep)
    return reports


def scalability_sweep(scenario, scalings, control=None, nets=None,
                      out_dir=None):
    """Re-run the same controller on plants with scaled friction.

    The friction nets and filter settings stay fixed (trained on the
    nominal plant); only the plant friction parameters change.  Every
    joint's resolved friction is scaled, and each joint gets an entry
    of its own that keeps its motor and elasticity settings.
    """
    plant = Plant(scenario)
    # every scaling is checked before the first run
    scaled = [(scale, plant.scv.scaled(scale)) for scale in scalings]
    cfg = control or ControlConfig(mode="UKF-PINN")
    reports = []
    for scale, scv in scaled:
        joints = {name: {
            "motor": {"k_t": float(plant.k_t[j]),
                      "reduction": float(plant.reduction[j]),
                      "motor_inertia": float(plant.motor_inertia[j])},
            "friction": dataclasses.asdict(scv[j]),
            "elasticity": {"stiffness": float(plant.elastic_k[j]),
                           "damping": float(plant.elastic_d[j])},
        } for j, name in enumerate(plant.model.joint_names)}
        rep, _ = run_scenario(dataclasses.replace(scenario, joints=joints),
                              cfg, nets=nets, out_dir=out_dir,
                              label=f"scale_{scale:g}")
        rep["friction_scale"] = scale
        reports.append(rep)
    return reports


def render_table(reports, columns=None):
    """Markdown comparison table from a list of report dicts."""
    columns = columns or ["mode", "torque_rmse_overall", "com_mean_error_mm",
                          "com_max_error_mm", "avg_abs_torque", "fell",
                          "diverged"]
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        if isinstance(v, list):
            return "[" + ", ".join(f"{x:.3g}" for x in v) + "]"
        return str(v)
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for r in reports:
        lines.append("| " + " | ".join(fmt(r.get(c, "")) for c in columns) + " |")
    return "\n".join(lines) + "\n"


def make_disturbance_scenario(seed=0, duration=6.0, n_events=None):
    """Standard unmeasured-push scenario: random torso shoves.

    Pushes hit the torso frame (not instrumented by any FT sensor) with
    magnitude 10-40 N, duration 0.1-0.3 s, 4-8 events, all drawn from
    the seed.  Pushes start between 1.0 s and 0.6 s before the end, so
    `duration` must be at least 1.6 s.
    """
    t_lo, t_hi = 1.0, duration - 0.6
    if t_hi < t_lo:
        raise ValueError(f"disturbance scenario duration must be at least "
                         f"1.6 s, got {duration}")
    rng = np.random.default_rng((seed, 777))
    count = int(rng.integers(4, 9)) if n_events is None else n_events
    disturbances = []
    times = np.sort(rng.uniform(t_lo, t_hi, size=count))
    for time in times:
        mag = rng.uniform(10.0, 40.0)
        direction = rng.uniform(-1.0, 1.0, size=2)
        direction = direction / (np.linalg.norm(direction) + 1e-12)
        force = (mag * direction[0], mag * direction[1], 0.0)
        disturbances.append(Disturbance(float(time), float(rng.uniform(0.1, 0.3)),
                                        "torso_push", force, (0.0, 0.0, 0.0)))
    return ScenarioConfig(duration=duration, seed=seed,
                          disturbances=disturbances)


def make_object_scenario(seed=0, duration=5.0, height=0.03, foot="right_sole",
                         insert_time=1.0, remove_time=3.0, region="front"):
    """Environment-adaptation scenario: a block is slid under one
    forefoot and later yanked away.

    The forefoot placement makes the terrain change adaptable through
    ankle compliance: a torque-controlled ankle yields and lets the
    foot pitch onto the block, while a stiff position-controlled ankle
    fights the constraint and levers the robot over.  The CoM reference
    is held still so the contrast is isolated to the ground change.
    """
    events = [ObjectEvent(insert_time, foot, height, "insert", region=region),
              ObjectEvent(remove_time, foot, height, "remove", region=region)]
    return ScenarioConfig(duration=duration, seed=seed,
                          com_amplitude=(0.0, 0.0, 0.0),
                          object_events=events)
