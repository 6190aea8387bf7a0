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
from .model import desk_biped
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

ID_JOINT = 0             # joint whose friction the identification log records
ID_CURRENT_AMP = 0.35    # A, amplitude of each multi-sine current component
NET_BUFFER_LEN = 8       # velocity samples per friction-net input buffer
NET_HIDDEN = 48          # width of both hidden layers
NET_LAM = 0.3            # physics weight of the training loss


def check_duration(scenario):
    """Reject a scenario too short to leave samples after the burn-in."""
    steps = int(round(scenario.duration / scenario.step))
    needed = int(round(BURN_IN / scenario.step)) + 2
    if steps < needed:
        raise ValueError(
            f"ScenarioConfig.duration ({scenario.duration:g} s) leaves no "
            f"samples after the {BURN_IN:g} s metrics burn-in; it must be at "
            f"least {needed * scenario.step:g} s")


def check_nets(nets, joint_names):
    """Reject a friction-net mapping that does not key exactly the model's
    joints, naming the joints it lacks and the keys that are no joint."""
    missing = [name for name in joint_names if name not in nets]
    unknown = sorted(set(nets) - set(joint_names))
    problems = []
    if missing:
        problems.append(f"no net for joint(s) {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown joint(s) {', '.join(unknown)}")
    if problems:
        raise ValueError(f"friction nets: {'; '.join(problems)}; the model's "
                         f"joints are {', '.join(joint_names)}")


def encoder_bank(scenario, state, gains):
    """One filter bank over the 2n encoders of a plant at `state`:
    joint positions (channels 0..n-1), then motor positions."""
    n = len(state.s)
    lsb = np.repeat([encoder_lsb(scenario.noise["joint_encoder_bits"]),
                     encoder_lsb(scenario.noise["motor_encoder_bits"])], n)
    return OnlineKf(scenario.step, lsb, **gains,
                    x0=np.concatenate([state.s, state.motor_pos]))


def generate_friction_dataset(scenario=None, duration=None, seed=0):
    """Excitation run producing a friction-identification log.

    The robot hangs base-locked while every joint is driven by a
    multi-sine current; returns (t, motor-side velocity mapped to the
    joint side, joint velocity, true friction torque) for joint ID_JOINT,
    with both velocities taken from the online encoder filters exactly
    as the controller will see them.  The log lasts `scenario.duration`;
    without a scenario, a 1 ms base-locked one lasting `duration`
    (default 6 s) is used.  A scenario whose base is not locked is
    rejected.
    """
    if scenario is None:
        scenario = ScenarioConfig(step=1e-3,
                                  duration=6.0 if duration is None else duration,
                                  seed=seed, lock_base=True)
    elif duration is not None:
        raise ValueError("give the log length as the scenario's duration, "
                         "not as a separate duration")
    if not scenario.lock_base:
        raise ValueError("the identification run needs a scenario with "
                         "lock_base=True; a free base falls while the log "
                         "records it")
    plant = Plant(scenario)
    st = plant.initial_state(base_height=2.0)  # feet clear of the ground
    n = plant.n
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=(n, 3))
    freqs = np.array([0.3, 0.9, 1.7])
    encoders = encoder_bank(scenario, st, DEFAULT_KF_GAINS)
    steps = int(round(scenario.duration / scenario.step))
    t_log = np.empty(steps)
    mv_log = np.empty(steps)
    jv_log = np.empty(steps)
    fr_log = np.empty(steps)
    for k in range(steps):
        t = k * scenario.step
        currents = ID_CURRENT_AMP * np.sin(
            2 * np.pi * freqs[None, :] * t + phases).sum(axis=1)
        st, sb = plant.step(st, currents)
        _, v, _ = encoders.update(np.concatenate([sb.joint_pos, sb.motor_pos]))
        t_log[k] = st.t
        mv_log[k] = v[n + ID_JOINT] / plant.reduction[ID_JOINT]
        jv_log[k] = v[ID_JOINT]
        fr_log[k] = st.tau_friction[ID_JOINT]
    return t_log, mv_log, jv_log, fr_log


def train_friction_net(dataset, scv, seed=0, epochs=40):
    """Train one friction net on an identification log (t, mv, jv, fr)."""
    net = pinn.FrictionNet(NET_BUFFER_LEN, NET_HIDDEN, NET_HIDDEN, NET_LAM,
                           scv, seed=seed)
    pinn.train(net, pinn.build_samples(*dataset, NET_BUFFER_LEN),
               epochs=epochs, batch_size=64, learning_rate=2e-3, seed=seed)
    return net


def default_friction_nets(plant, dataset, seed=0):
    """One net per joint, trained on the identification log `dataset`;
    joints sharing friction parameters share a net.

    The log records joint `ID_JOINT` only, so every net learns its data
    term from that joint's friction; only its SCV physics prior is the
    joint's own.
    """
    cache = {}
    nets = {}
    for j, name in enumerate(plant.model.joint_names):
        scv = plant.scv[j]
        if scv not in cache:
            cache[scv] = train_friction_net(dataset, scv, seed=seed)
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
    """Per-sample arrays logged at the sensor rate, one row per tick.

    A run allocates its log once (`allocate`) and writes row k in place
    when tick k completes, so it keeps nothing else per tick.  A run
    that ends early returns the log cut to the ticks it completed
    (`cut`).
    """
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
    saturation_events: int = 0  # torque-loop ticks whose currents were clipped

    @classmethod
    def allocate(cls, steps, n):
        """An unwritten log of `steps` ticks for `n` joints; `tau_feedback`
        is NaN, which modes without torque feedback leave it."""
        return cls(np.empty(steps), np.empty((steps, n)), np.empty((steps, n)),
                   np.full((steps, n), np.nan), np.empty((steps, 3)),
                   np.empty((steps, 3)), np.empty((steps, n)),
                   False, float("nan"), False)

    def cut(self, rows):
        """The log of the first `rows` ticks (views of this one's rows)."""
        return dataclasses.replace(self, **{
            f.name: getattr(self, f.name)[:rows]
            for f in dataclasses.fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)})


def _first_disturbance_time(scenario):
    times = [d.time for d in scenario.disturbances]
    times += [e.time for e in scenario.object_events]
    return min(times) if times else None


def run_scenario(scenario, control, nets=None, kf_gains=None, out_dir=None,
                 label=None):
    """Run one closed-loop scenario; returns (report dict, RunLog).

    `nets` maps joint name to a trained friction net.  Only the *-PINN
    modes run them: they compensate friction with the smoothed output,
    and UKF-PINN also feeds the raw output to the torque filter's
    friction channel, which UKF-NoComp masks.  If `out_dir`
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
    use_nets = needs_friction_nets(mode)
    net_groups = []
    if use_nets:
        if nets is None:
            raise ValueError(f"mode {mode} needs trained friction nets")
        check_nets(nets, model.joint_names)
        net_groups = group_by_net(nets, model.joint_names)

    encoders = encoder_bank(scenario, st, gains)
    # only the filter and the RNEA feedback read the attitude estimate
    att = (ComplementaryAttitude(R0=st.base_R.copy())
           if use_ukf or use_rnea else None)
    buf_len = max((net.buffer_len for net, _ in net_groups), default=1)
    mv_buf = np.zeros((buf_len, n))
    jv_buf = np.zeros((buf_len, n))

    # IMU offset in the base frame, for the RNEA feedback
    imu_offset = model.frame(model.imu_frame)[1].p
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
    log = RunLog.allocate(steps, n)
    rows = steps  # ticks completed
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
                    com_acc_ref, control, posture_ref=s0)

        try:
            st, sb = plant.step(st, currents)
        except SimulationDiverged as exc:
            diverged = True
            fall_time = exc.time if not fell else fall_time
            fell = True
            rows = k
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
        if att is not None:
            R_est = att.update(sb.imu_acc, sb.imu_gyro, dt_s)

        tau_f_hat = None
        if use_nets:
            tau_f_hat = predict_friction(net_groups, mv_buf, jv_buf)

        tau_fb = None
        if use_ukf:
            z = ukf.assemble_measurement(
                sdot_est, sb.currents, sb.ft, sb.imu_acc, sb.imu_gyro,
                tau_f_pinn=tau_f_hat)
            belief = ukf.step(belief, s_meas, R_est, z)
            tau_fb = ukf.joint_torque_estimate(belief.mean)
        elif use_rnea:
            # proper acceleration from IMU (base) and encoder filters (joints)
            w = sb.imu_gyro
            a_base = sb.imu_acc - cross3(w, cross3(w, imu_offset))
            accel = np.concatenate([a_base, np.zeros(3),
                                    enc_acc[:n]])
            nu_est = np.concatenate([np.zeros(3), w, sdot_est])
            tau_fb = rnea_torque_feedback(
                model, Transform(R_est, np.zeros(3)), s_meas, nu_est, accel,
                sb.ft)

        if use_nets:
            comp_state += comp_alpha * (tau_f_hat - comp_state)

        if mode == "PositionControl":
            # collocated loop on the motor encoder mapped to the joint side
            currents = pos_pd(s0, mpos_est, mvel_est)
        else:
            comp = comp_state if use_nets else None
            fb = None if mode.startswith("Feedforward") else tau_fb
            currents = pi(tau_d, fb, comp)

        log.t[k] = st.t
        log.tau_d[k] = tau_d
        log.tau_true[k] = st.tau
        if tau_fb is not None:
            log.tau_feedback[k] = tau_fb
        log.com[k] = st.com
        log.com_ref[k] = com0 + amp * np.sin(omega_ref * st.t)
        log.currents[k] = currents
        if not fell and st.com[2] < 0.7 * nominal_com_z:
            fell = True
            fall_time = st.t

    log = dataclasses.replace(
        log.cut(rows), fell=fell, fall_time=fall_time, diverged=diverged,
        saturation_events=pi.saturation_events + pos_pd.saturation_events)
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
    A metric whose window holds no sample (a run that diverged early)
    is None.
    """
    t = log.t
    keep = t >= t[0] + burn_in if len(t) else np.zeros(0, dtype=bool)
    first_dist = _first_disturbance_time(scenario)
    com_keep = keep if first_dist is None else keep & (t < first_dist)
    report = {
        "mode": control.mode,
        "seed": scenario.seed,
        "config_hash": scenario.config_hash(),
        "torque_mse": None,
        "torque_rmse": None,
        "torque_mae": None,
        "torque_rmse_overall": None,
        "com_mean_error_mm": None,
        "com_max_error_mm": None,
        "avg_abs_torque": None,
        "peak_abs_torque": (float(np.max(np.abs(log.tau_true))) if len(t)
                            else None),
        "fell": bool(log.fell),
        "fall_time": None if not log.fell else float(log.fall_time),
        "diverged": bool(log.diverged),
        "saturation_events": int(log.saturation_events),
    }
    if keep.any():
        err = log.tau_d[keep] - log.tau_true[keep]
        mse = np.mean(err ** 2, axis=0)
        report.update(
            torque_mse=mse.tolist(),
            torque_rmse=np.sqrt(mse).tolist(),
            torque_mae=np.mean(np.abs(err), axis=0).tolist(),
            torque_rmse_overall=float(np.sqrt(np.mean(err ** 2))),
            avg_abs_torque=float(np.mean(np.abs(log.tau_true[keep]))))
    if com_keep.any():
        com_err = log.com[com_keep] - log.com_ref[com_keep]
        report.update(
            com_mean_error_mm=(np.mean(np.abs(com_err), axis=0) * 1e3).tolist(),
            com_max_error_mm=(np.max(np.abs(com_err), axis=0) * 1e3).tolist())
    return report


def write_artifacts(out_dir, label, scenario, control, log, report):
    """Write run CSV, metrics CSV row and report JSON for one run."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, label.replace("/", "_"))
    n = log.tau_d.shape[1]
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


def write_metrics_csv(path, reports):
    """Write the metrics file: a header, then one row per run in a stable
    column order for table assembly.

    A field a report lacks (a row read back from a file written before
    its column existed) is left empty.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
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
    write_metrics_csv(path, rows + [report])


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


def make_object_scenario(seed=0, duration=5.0, height=0.03, foot=None,
                         insert_time=1.0, remove_time=3.0, region="front"):
    """Environment-adaptation scenario: a block is slid under one
    forefoot and later yanked away (by default the desk biped's right
    sole, the last of its `sole_frames`).

    The forefoot placement makes the terrain change adaptable through
    ankle compliance: a torque-controlled ankle yields and lets the
    foot pitch onto the block, while a stiff position-controlled ankle
    fights the constraint and levers the robot over.  The CoM reference
    is held still so the contrast is isolated to the ground change.
    """
    foot = foot or desk_biped().sole_frames[-1]
    events = [ObjectEvent(insert_time, foot, height, "insert", region=region),
              ObjectEvent(remove_time, foot, height, "remove", region=region)]
    return ScenarioConfig(duration=duration, seed=seed,
                          com_amplitude=(0.0, 0.0, 0.0),
                          object_events=events)
