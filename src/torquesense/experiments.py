"""Closed-loop experiment runner, metrics and report generation.

One run is two parts: a `Controller` (estimators, balancer and torque
loop) wired once for one of the seven modes from the scenario alone,
whose tick runs the parts it built in one straight line, and a loop
that steps the plant, hands the controller each sensor sample and the
balancer its CoM reference, and logs the plant's truth, which reduces
to torque-tracking and center-of-mass metrics.
A run writes no file, and reports assemble into a comparison table.
"""

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from . import pinn
from .control import (COMP_CUTOFF, CURRENT_LIMIT, HIGH_RATE, WIRING,
                      TorquePI, high_level_balancer, position_pd,
                      rnea_torque_feedback)
from .kf import encoder_lsb, mean_step, steady_state_gain
from .model import desk_biped
from .plant import (Disturbance, ObjectEvent, Plant, ScenarioConfig,
                    SimulationDiverged)
from .spatial import cross3
from .ukf import TorqueUkf


class OnlineKf:
    """Bank of steady-state-gain encoder filters for the per-step control path.

    One filter per entry of the array `lsb` (the channels' quantization
    steps), starting at rest at zero.  The
    covariance recursion runs to convergence once at start-up, in one
    batch over the distinct `lsb` values; the loop then applies the
    constant gains, which is what a fixed-cost real-time implementation
    would do.
    """

    def __init__(self, dt, lsb, q_accel, q_jerk):
        lsb = np.asarray(lsb, dtype=float)
        kinds, kind = np.unique(lsb, return_inverse=True)
        K = steady_state_gain(dt, kinds, q_accel, q_jerk)
        self.K = np.ascontiguousarray(K[kind.ravel()].T)  # (3, channels)
        self.dt = dt
        self.x, self.v, self.a = np.zeros((3, len(lsb)))

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


class ScenarioRefused(ValueError):
    """A scenario the controller cannot run, refused before the first step."""


def check_duration(scenario):
    """Reject a tick count that cannot be run: one whose run log, 8 (7 + 4n)
    bytes a tick for n joints, is not finite or outgrows the machine's
    physical memory, and one too short to leave samples after the
    burn-in.  Returns the tick count."""
    duration, step = scenario.duration, scenario.step
    ticks = duration / step
    log_bytes = 8 * (7 + 4 * len(scenario.actuators)) * ticks
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not log_bytes <= memory:
        raise ValueError(
            f"ScenarioConfig.duration ({duration:g} s) over ScenarioConfig."
            f"step ({step:g} s) is {ticks:g} ticks, whose {log_bytes:.3g} B "
            f"run log does not fit the machine's {memory:.3g} B of memory")
    steps = int(round(ticks))
    needed = int(round(BURN_IN / step)) + 2
    if steps < needed:
        raise ValueError(
            f"ScenarioConfig.duration ({duration:g} s) leaves no "
            f"samples after the {BURN_IN:g} s metrics burn-in; it must be at "
            f"least {needed * step:g} s")
    return steps


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


def balancer_ticks(scenario):
    """Plant steps per balancer period (1 / `control.HIGH_RATE`) at the
    scenario's step; a step that does not divide the period into whole
    steps is refused, and so is a CoM reference above half its rate."""
    dt, high_dt = scenario.step, 1.0 / HIGH_RATE
    every = int(round(high_dt / dt))
    if every < 1 or not np.isclose(every * dt, high_dt):
        raise ScenarioRefused(
            f"ScenarioConfig.step ({dt:g} s) must divide the "
            f"{high_dt:g} s balancer period into whole steps")
    if abs(scenario.com_frequency) > HIGH_RATE / 2:
        raise ScenarioRefused(
            f"ScenarioConfig.com_frequency ({scenario.com_frequency:g} Hz) "
            f"exceeds {HIGH_RATE / 2:g} Hz, half the balancer rate")
    return every


def encoder_bank(scenario):
    """One filter bank with the `DEFAULT_KF_GAINS` densities over the 2n
    encoders of the scenario's plant, at rest at zero, where every run
    starts: joint positions (channels 0..n-1), then motor positions.
    Encoder resolutions in the scenario's `noise` whose gains never
    settle at its step are refused, naming the keys."""
    bits = {key: scenario.noise[key]
            for key in ("joint_encoder_bits", "motor_encoder_bits")}
    lsb = np.repeat([encoder_lsb(b) for b in bits.values()],
                    len(scenario.actuators))
    try:
        return OnlineKf(scenario.step, lsb, **DEFAULT_KF_GAINS)
    except ValueError as exc:
        given = ", ".join(f"{key} {b}" for key, b in bits.items())
        raise ScenarioRefused(f"ScenarioConfig.noise ({given}) at the "
                              f"{scenario.step:g} s step: {exc}") from None


def check_runnable(scenario):
    """Raise what `run_scenario` would raise before its first step: the
    ValueError of `check_duration` for a tick count that cannot be run,
    and the `ScenarioRefused` of `balancer_ticks` and `encoder_bank`.
    Builds no plant, so a caller can check a scenario before it trains
    nets."""
    check_duration(scenario)
    balancer_ticks(scenario)
    encoder_bank(scenario)


def generate_friction_dataset(duration=6.0, seed=0):
    """Excitation run producing a friction-identification log.

    The robot hangs base-locked while every joint is driven by a
    multi-sine current for `duration` seconds at a 1 ms step; returns
    (t, motor-side velocity mapped to the joint side, joint velocity,
    true friction torque) for joint ID_JOINT, with both velocities taken
    from the online encoder filters exactly as the controller will see
    them.
    """
    scenario = ScenarioConfig(step=1e-3, duration=duration, seed=seed,
                              lock_base=True)
    plant = Plant(scenario)
    st = plant.initial_state(base_height=2.0)  # feet clear of the ground
    n = plant.n
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=(n, 3))
    freqs = np.array([0.3, 0.9, 1.7])
    encoders = encoder_bank(scenario)
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
               epochs=epochs, seed=seed)
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


class Controller:
    """The controller side of the closed loop, built once with only the
    parts the mode's row of `control.WIRING` uses.  Built from the
    scenario's nominal parameters alone, it starts at rest at the zero
    pose, level.  `tick` runs those parts in one straight line on one
    sensor sample: encoder filters, friction nets (which the torque
    filter then reads too) and the torque filter or RNEA feedback, which
    need no base attitude, then the torque PI loop or position PD, whose
    joint torques one output stage divides by N k_t (`gear_torque`) and
    clips to `control.CURRENT_LIMIT`, counting the ticks it clipped in
    `saturation_events`, for the next step's currents;
    `balance` refreshes the desired torques every `balance_every` ticks
    (0: never; the balancer period, 1 / `control.HIGH_RATE`, over the
    plant step) from the CoM reference and its two derivatives and the
    plant's true base pose and twist and joint positions, given by name.
    It raises `ScenarioRefused` for a plant step that does not divide the
    balancer period into whole ticks or at which the encoder filters
    never settle (`balancer_ticks`, `encoder_bank`)."""

    def __init__(self, scenario, mode, nets=None):
        model = desk_biped(scenario.gravity)
        n, dt, wiring = model.ndof, scenario.step, WIRING[mode]
        every = balancer_ticks(scenario)
        self.balance_every = every if wiring.balancer else 0
        self.model, self.n = model, n
        self.reduction = scenario.per_joint("motor", "reduction")
        self.gear_torque = self.reduction * scenario.per_joint("motor", "k_t")
        self.encoders = encoder_bank(scenario)
        self.posture_ref = np.zeros(n)
        self.sdot, self.tau_d = np.zeros(n), np.zeros(n)
        self.tau_feedback, self.saturation_events = None, 0

        self.net_groups, self.comp = None, None
        if wiring.friction_nets:
            if nets is None:
                raise ValueError(f"mode {mode} needs trained friction nets")
            check_nets(nets, model.joint_names)
            self.net_groups = group_by_net(nets, model.joint_names)
            buf_len = max(net.buffer_len for net, _ in self.net_groups)
            # motor-side and joint velocity histories, newest row last
            self.vel_buf = np.zeros((2, buf_len, n))
            # the feedforward is smoothed: its use is the quasi-static
            # stiction/Coulomb level, and the tick-to-tick wiggle is
            # prediction noise the torque loop cannot reject
            self.comp_alpha = 1 - np.exp(-2 * np.pi * COMP_CUTOFF * dt)
            self.comp = np.zeros(n)

        self.feedback = wiring.feedback
        if wiring.feedback == "filter":
            self.ukf = TorqueUkf(model, self.gear_torque, dt,
                                 friction=wiring.friction_nets)
            self.belief = self.ukf.initial_belief()
        elif wiring.feedback == "rnea":
            self.imu_offset = model.frame(model.imu_frame)[1].p  # in the base
        self.torque_pi = TorquePI(n, dt) if wiring.balancer else None

    def balance(self, ref, base_pose, base_twist, s):
        """Refresh the desired torques from the balancer toward `ref`, the
        CoM reference and its first two time derivatives."""
        self.tau_d = high_level_balancer(
            self.model, base_pose, s, np.concatenate([base_twist, self.sdot]),
            *ref, posture_ref=self.posture_ref)

    def tick(self, sensors):
        """Currents for the next plant step from one sensor sample."""
        n = self.n
        x, v, a = self.encoders.update(
            np.concatenate([sensors.joint_pos, sensors.motor_pos]))
        self.sdot = v[:n]
        mvel = v[n:] / self.reduction
        tau_f = None
        if self.net_groups:
            self.vel_buf[:, :-1] = self.vel_buf[:, 1:]
            self.vel_buf[:, -1] = mvel, self.sdot
            tau_f = predict_friction(self.net_groups, *self.vel_buf)
            self.comp += self.comp_alpha * (tau_f - self.comp)
        if self.feedback == "filter":
            z = self.ukf.assemble_measurement(
                self.sdot, sensors.currents, tau_f, sensors.ft,
                sensors.imu_acc, sensors.imu_gyro)
            self.belief = self.ukf.step(self.belief, x[:n], z)
            self.tau_feedback = self.ukf.joint_torque_estimate(self.belief.mean)
        elif self.feedback == "rnea":
            # proper acceleration from IMU (base) and encoder filters (joints)
            w = sensors.imu_gyro
            a_base = sensors.imu_acc - cross3(w, cross3(w, self.imu_offset))
            accel = np.concatenate([a_base, np.zeros(3), a[:n]])
            nu = np.concatenate([np.zeros(3), w, self.sdot])
            self.tau_feedback = rnea_torque_feedback(
                self.model, x[:n], nu, accel, sensors.ft)
        if self.torque_pi is not None:
            tau = self.torque_pi(self.tau_d, self.tau_feedback, self.comp)
        else:
            # collocated loop on the motor encoder mapped to the joint side
            tau = position_pd(self.posture_ref, x[n:] / self.reduction, mvel)
        currents = tau / self.gear_torque
        # np.minimum(np.maximum(.)) and .any() are np.clip and np.any
        # without their Python wrappers
        clipped = np.minimum(np.maximum(currents, -CURRENT_LIMIT),
                             CURRENT_LIMIT)
        if (clipped != currents).any():
            self.saturation_events += 1
        return clipped


def run_scenario(scenario, control, nets=None):
    """Run one closed-loop scenario; returns (report dict, RunLog).

    The loop steps the plant, hands each sensor sample to a `Controller`
    (`nets` maps joint names to friction nets) and its balancer the CoM
    reference, a sine about the initial CoM, and logs the plant's truth
    and that reference; a step the plant cannot integrate ends the run as
    diverged.  Before the first step it raises what `check_runnable`
    raises, in the same order: the ValueError of `check_duration`, then
    the `ScenarioRefused` of the `Controller`."""
    steps = check_duration(scenario)
    controller = Controller(scenario, control.mode, nets)
    plant = Plant(scenario)
    st = plant.initial_state()
    com0, nominal_com_z = st.com.copy(), st.com[2]
    amp = np.asarray(scenario.com_amplitude, dtype=float)
    w = 2.0 * np.pi * scenario.com_frequency
    log = RunLog.allocate(steps, plant.n)
    rows = steps  # ticks completed
    currents = np.zeros(plant.n)
    fell, fall_time, diverged = False, float("nan"), False

    for k in range(steps):
        if controller.balance_every and k % controller.balance_every == 0:
            t = k * scenario.step
            ref = (com0 + amp * np.sin(w * t), amp * w * np.cos(w * t),
                   -amp * w ** 2 * np.sin(w * t))
            controller.balance(ref, st.base_pose(), st.base_twist, st.s)
        try:
            st, sb = plant.step(st, currents)
        except SimulationDiverged as exc:
            diverged = True
            fall_time = exc.time if not fell else fall_time
            fell = True
            rows = k
            break
        currents = controller.tick(sb)

        log.t[k] = st.t
        log.tau_d[k] = controller.tau_d
        log.tau_true[k] = st.tau
        if controller.tau_feedback is not None:
            log.tau_feedback[k] = controller.tau_feedback
        log.com[k] = st.com
        log.com_ref[k] = com0 + amp * np.sin(w * st.t)
        log.currents[k] = currents
        if not fell and st.com[2] < 0.7 * nominal_com_z:
            fell = True
            fall_time = st.t

    log = dataclasses.replace(
        log.cut(rows), fell=fell, fall_time=fall_time, diverged=diverged,
        saturation_events=controller.saturation_events)
    return compute_metrics(log, scenario, control), log


def compute_metrics(log, scenario, control):
    """Reduce a run log to the report dictionary.

    Torque-tracking errors compare the commanded desired torque against
    the plant's true joint torque (ground truth, not the estimator's
    own feedback).  CoM errors are windowed to before the first
    scheduled disturbance, mirroring a disturbance-free baseline table.
    A metric whose window holds no sample (a run that diverged early)
    is None.
    """
    t = log.t
    keep = t >= t[0] + BURN_IN if len(t) else np.zeros(0, dtype=bool)
    first_dist = min([d.time for d in scenario.disturbances]
                     + [e.time for e in scenario.object_events], default=None)
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


TABLE_COLUMNS = ("mode", "torque_rmse_overall", "com_mean_error_mm",
                 "com_max_error_mm", "avg_abs_torque", "fell", "diverged")


def render_table(reports):
    """Markdown comparison table from a list of report dicts."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        if isinstance(v, list):
            return "[" + ", ".join(f"{x:.3g}" for x in v) + "]"
        return str(v)
    lines = ["| " + " | ".join(TABLE_COLUMNS) + " |",
             "| " + " | ".join("---" for _ in TABLE_COLUMNS) + " |"]
    for r in reports:
        lines.append("| " + " | ".join(fmt(r.get(c, ""))
                                      for c in TABLE_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def make_disturbance_scenario(seed=0):
    """Standard unmeasured-push scenario: random torso shoves over 6 s.

    Pushes hit the desk biped's `push_frame` on the torso (not
    instrumented by any FT sensor) with magnitude 10-40 N, duration
    0.1-0.3 s, 4-8 events, all drawn from the seed.  Pushes start
    between 1.0 s and 0.6 s before the end.  The seed is checked, as a
    `ScenarioConfig` field, before anything is drawn.
    """
    scenario = ScenarioConfig(duration=6.0, seed=seed)
    frame = desk_biped().push_frame
    rng = np.random.default_rng((seed, 777))
    count = int(rng.integers(4, 9))
    disturbances = []
    times = np.sort(rng.uniform(1.0, scenario.duration - 0.6, size=count))
    for time in times:
        mag = rng.uniform(10.0, 40.0)
        direction = rng.uniform(-1.0, 1.0, size=2)
        direction = direction / (np.linalg.norm(direction) + 1e-12)
        force = (mag * direction[0], mag * direction[1], 0.0)
        disturbances.append(Disturbance(float(time), float(rng.uniform(0.1, 0.3)),
                                        frame, force, (0.0, 0.0, 0.0)))
    return dataclasses.replace(scenario, disturbances=disturbances)


OBJECT_HEIGHT = 0.03       # m, the block slid under the forefoot
OBJECT_TIMES = (1.0, 3.0)  # s, when it is inserted and when removed


def make_object_scenario(seed=0):
    """Environment-adaptation scenario over 5 s: an `OBJECT_HEIGHT`
    block is slid under the forefoot of the desk biped's right sole (the
    last of its `sole_frames`) and yanked away, at the `OBJECT_TIMES`.

    The forefoot placement makes the terrain change adaptable through
    ankle compliance: a torque-controlled ankle yields and lets the
    foot pitch onto the block, while a stiff position-controlled ankle
    fights the constraint and levers the robot over.  The CoM reference
    is held still so the contrast is isolated to the ground change.
    """
    foot = desk_biped().sole_frames[-1]
    events = [ObjectEvent(time, foot, OBJECT_HEIGHT, action, region="front")
              for time, action in zip(OBJECT_TIMES, ("insert", "remove"))]
    return ScenarioConfig(duration=5.0, seed=seed,
                          com_amplitude=(0.0, 0.0, 0.0),
                          object_events=events)
