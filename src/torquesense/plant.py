"""Ground-truth simulation plant.

Integrates the floating-base dynamics together with an elastic
harmonic-drive transmission per joint (motor inertia behind a gear, a
spring-damper to the link, SCV friction at the motor-side velocity)
using fixed-step RK4, models ground contact with stateless penalty
forces at the foot corners (a normal spring-damper, and tangential
damping clipped to the friction cone), and synthesizes encoder,
current, force/torque and IMU measurements with configurable
quantization and Gaussian noise.  A step makes four derivative
evaluations: its first stage reuses the evaluation that ended the step
before.  Runs are bitwise reproducible for a fixed scenario
configuration (including the seed).
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import models
from .dynamics import crba, forward_pass, joint_transforms
from .friction import MotorParams, ScvParams, scv_friction
from .model import FrameError, parse_model
from .spatial import Transform, batch_cross, cross3, exp_so3


class SimulationDiverged(RuntimeError):
    def __init__(self, time):
        super().__init__(f"simulation diverged at t={time:.6f} s")
        self.time = time


@dataclass
class Disturbance:
    """Timed external wrench, given in world coordinates at a frame origin."""
    time: float
    duration: float
    frame: str
    force: tuple = (0.0, 0.0, 0.0)
    torque: tuple = (0.0, 0.0, 0.0)


@dataclass
class ObjectEvent:
    """Ground-height change under one foot.

    `frame` is the name of a sole frame of the model (see
    `Plant.sole_frames`), as `Disturbance.frame` names the frame its
    wrench acts at.  Scenario JSON written before the field had this
    name calls it `foot`; `ScenarioConfig.from_dict` still reads that.

    Insertion ramps over `ramp` seconds (the object is slid under the
    sole, which cannot occupy space already filled by the foot);
    removal is instantaneous (the object is yanked away).  `region`
    selects which part of the sole rests on the object: "full" raises
    the ground under the whole sole, "front" only under the forefoot
    corners, which an ankle-pitch joint can accommodate by letting the
    foot pitch onto the object.
    """
    time: float
    frame: str
    height: float
    action: str  # "insert" or "remove"
    ramp: float = 0.25
    region: str = "full"


_DEFAULT_JOINT = {
    "motor": {"k_t": 0.1, "reduction": 100.0, "motor_inertia": 1e-5},
    "friction": {"coulomb": 1.0, "breakaway": 2.0, "stribeck_vel": 0.1, "viscous": 0.5},
    "elasticity": {"stiffness": 2500.0, "damping": 8.0},
}

_DEFAULT_NOISE = {
    "quantize": True,
    "joint_encoder_bits": 12,
    "motor_encoder_bits": 16,
    "current_std": 0.005,
    "ft_force_std": 0.5,
    "ft_torque_std": 0.05,
    "imu_acc_std": 0.02,
    "imu_gyro_std": 0.002,
}

_DEFAULT_CONTACT = {
    "stiffness": 2.0e4,       # N/m per corner, normal penalty spring
    "damping": 100.0,         # N*s/m per corner, normal
    "tangential_damping": 200.0,    # N*s/m per corner
    "mu": 1.0,
}


@dataclass
class ScenarioConfig:
    """Full description of one simulation scenario (JSON-serializable).

    `joints` maps joint names to actuator settings, in three sections:
    "motor" (k_t, reduction, motor_inertia), "friction" (coulomb,
    breakaway, stribeck_vel, viscous) and "elasticity" (stiffness,
    damping).  A joint's settings are its own entry if it has one,
    which replaces the "default" entry rather than merging with it,
    and the "default" entry otherwise; each section of that entry then
    merges over the built-in defaults.  `noise` (quantize,
    joint_encoder_bits, motor_encoder_bits, current_std, ft_force_std,
    ft_torque_std, imu_acc_std, imu_gyro_std) and `contact` (stiffness,
    damping, tangential_damping, mu) merge over their built-in defaults
    the same way.  A section or key not named here is rejected; so is
    a joint name the model lacks, when the `Plant` is built.
    """
    schema_version: int = 1
    model: str = "desk_biped"
    step: float = 1e-3          # s; the sensors sample once per step
    duration: float = 5.0
    seed: int = 0
    lock_base: bool = False
    gravity: tuple = (0.0, 0.0, -9.81)
    joints: dict = field(default_factory=dict)
    noise: dict = field(default_factory=lambda: dict(_DEFAULT_NOISE))
    contact: dict = field(default_factory=lambda: dict(_DEFAULT_CONTACT))
    friction_smoothing: float = 0.01  # tanh transition velocity, rad/s
    com_amplitude: tuple = (0.0, 0.015, 0.0)
    com_frequency: float = 0.3
    disturbances: list = field(default_factory=list)
    object_events: list = field(default_factory=list)

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError(f"integrator step must be positive, got {self.step}")
        if self.friction_smoothing < 0.0:
            raise ValueError(f"friction_smoothing must be nonnegative, "
                             f"got {self.friction_smoothing}")
        for name, entry in self.joints.items():
            _check_keys(f"joints[{name!r}] section", entry, _DEFAULT_JOINT)
            for section, block in entry.items():
                _check_keys(f"joints[{name!r}][{section!r}] key", block,
                            _DEFAULT_JOINT[section])
        _check_keys("noise key", self.noise, _DEFAULT_NOISE)
        _check_keys("contact key", self.contact, _DEFAULT_CONTACT)
        # partial overrides merge over the built-in defaults
        self.noise = {**_DEFAULT_NOISE, **self.noise}
        self.contact = {**_DEFAULT_CONTACT, **self.contact}
        # events may come in their JSON form
        self.disturbances = [Disturbance(**x) if isinstance(x, dict) else x
                             for x in self.disturbances]
        self.object_events = [_object_event_from_dict(x) if isinstance(x, dict) else x
                              for x in self.object_events]

    def to_dict(self):
        """A deep copy of the config as plain JSON-ready containers."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """A config from its JSON form, reading three legacy keys.

        Older files give the sensor rate apart from the step.  The key
        is dropped when it equals 1/step, the only rate such a file could
        run at, and rejected otherwise rather than read as a new step.
        They may also choose the transmission: `elastic_transmission`
        true is the only transmission the plant has and is dropped;
        false (a rigid transmission) is rejected.  Their `contact` may
        give `tangential_stiffness`, the spring of a stick-slip contact
        the plant does not model: 0.0 (no spring) is dropped, and any
        other value is rejected as an unknown contact key.
        """
        d = dict(d)
        rate = d.pop("sensor_rate", None)
        if not d.pop("elastic_transmission", True):
            raise ValueError(
                "elastic_transmission: false is not supported: the plant "
                "models only the elastic harmonic-drive transmission")
        contact = d.get("contact")
        if (isinstance(contact, dict)
                and contact.get("tangential_stiffness") == 0.0):
            d["contact"] = {k: v for k, v in contact.items()
                            if k != "tangential_stiffness"}
        config = cls(**d)
        if rate is not None and not np.isclose(config.step * rate, 1.0):
            raise ValueError(
                f"step ({config.step} s) must equal 1/sensor_rate "
                f"({rate} Hz given): the sensors sample once per plant "
                f"step, so the legacy sensor_rate key may only repeat 1/step")
        return config

    def config_hash(self):
        def default(o):
            if isinstance(o, (np.floating, np.integer)):
                return o.item()
            if isinstance(o, np.ndarray):
                return o.tolist()
            if isinstance(o, tuple):
                return list(o)
            return vars(o)
        blob = json.dumps(self.to_dict(), sort_keys=True, default=default)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_keys(what, given, known):
    """Raise ValueError naming the keys of `given` that `known` lacks."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(known)}")


def _object_event_from_dict(x):
    """An `ObjectEvent` from its JSON form, reading the legacy `foot` key."""
    if "foot" in x:
        if "frame" in x:
            raise ValueError("object event gives both 'frame' and its legacy "
                             f"name 'foot': {x}")
        x = {("frame" if k == "foot" else k): v for k, v in x.items()}
    return ObjectEvent(**x)


@dataclass
class SensorBundle:
    """One timestamped set of simulated measurements."""
    t: float
    joint_pos: np.ndarray       # quantized joint encoder readings, rad
    motor_pos: np.ndarray       # quantized motor encoder readings, motor-side rad
    currents: np.ndarray        # A
    ft: dict                    # FT frame name -> 6-wrench in the FT frame
    imu_acc: dict               # IMU frame name -> proper linear acceleration
    imu_gyro: dict              # IMU frame name -> angular velocity


@dataclass
class PlantState:
    """Ground-truth plant state plus truth bookkeeping at time t."""
    t: float
    base_pos: np.ndarray
    base_R: np.ndarray
    base_twist: np.ndarray      # [v, w] in the base frame
    s: np.ndarray
    sdot: np.ndarray
    motor_pos: np.ndarray       # motor-side shaft angle theta, rad
    motor_vel: np.ndarray
    tau: np.ndarray             # true joint torque delivered to the load
    tau_friction: np.ndarray    # true friction torque, joint side
    contact_wrenches: dict      # sole frame name -> 6-wrench in that frame
    base_prop_acc: np.ndarray   # base proper spatial acceleration (6,)
    joint_acc: np.ndarray
    motor_acc: np.ndarray       # motor-side shaft acceleration
    com: np.ndarray

    def base_pose(self):
        return Transform(self.base_R, self.base_pos)


def _quantize(x, lsb):
    return np.round(x / lsb) * lsb


def load_model(name, gravity):
    if name == "desk_biped":
        m = models.desk_biped()
    else:
        with open(name, "r", encoding="utf-8") as fh:
            m = parse_model(fh.read())
    m.gravity = np.asarray(gravity, dtype=float)
    return m


class Plant:
    """Deterministic fixed-step simulator for one scenario."""

    def __init__(self, config, model=None):
        self.config = config
        self.model = model if model is not None else load_model(config.model, config.gravity)
        n = self.model.ndof
        self.n = n
        _check_keys("joint", config.joints, self.model.joint_names + ["default"])

        def per_joint(section, key):
            vals = []
            for name in self.model.joint_names:
                j = config.joints.get(name, config.joints.get("default", {}))
                block = {**_DEFAULT_JOINT[section], **j.get(section, {})}
                vals.append(block[key])
            return np.array(vals)

        self.k_t = per_joint("motor", "k_t")
        self.reduction = per_joint("motor", "reduction")
        self.motor_inertia = per_joint("motor", "motor_inertia")
        MotorParams(self.k_t, self.reduction, self.motor_inertia)
        # per-joint arrays; self.scv[j] is joint j's scalar set
        self.scv = ScvParams(
            per_joint("friction", "coulomb"), per_joint("friction", "breakaway"),
            per_joint("friction", "stribeck_vel"), per_joint("friction", "viscous"))
        self.elastic_k = per_joint("elasticity", "stiffness")
        self.elastic_d = per_joint("elasticity", "damping")

        self.sole_frames = [f for f in ("left_sole", "right_sole") if f in self.model.sensor_frames]
        self.ft_frames = [f for f in ("left_foot_ft", "right_foot_ft") if f in self.model.sensor_frames]
        self.imu_frames = [f for f in ("waist_imu",) if f in self.model.sensor_frames]
        # sole frames and their corners (homogeneous columns) in the foot
        # link frames, for the contact kernel
        soles = [self.model.frame(f) for f in self.sole_frames]
        self._sole_links = np.array([idx for idx, _ in soles], dtype=np.intp)
        self._sole_offsets = np.array(
            [offset.homogeneous() for _, offset in soles]).reshape(-1, 4, 4)
        corners = np.vstack([models.FOOT_CORNERS.T,
                             np.ones(len(models.FOOT_CORNERS))])
        self._corners = self._sole_offsets @ corners

        self.disturbances = list(config.disturbances)
        self.object_events = sorted(config.object_events, key=lambda e: e.time)
        self._check_object_events(self.object_events)

        self.rng = np.random.default_rng(config.seed)

        lsb_joint = 2 * np.pi / 2 ** config.noise["joint_encoder_bits"]
        lsb_motor = 2 * np.pi / 2 ** config.noise["motor_encoder_bits"]
        self.lsb_joint = lsb_joint
        self.lsb_motor = lsb_motor

    # ------------------------------------------------------------------ events

    def schedule_disturbance(self, wrench, frame, time, duration):
        """Add a timed world-frame wrench at a frame origin; returns the event."""
        self.model.frame(frame)  # raises FrameError if unknown
        ev = Disturbance(time=time, duration=duration, frame=frame,
                         force=tuple(np.asarray(wrench, dtype=float)[:3]),
                         torque=tuple(np.asarray(wrench, dtype=float)[3:]))
        self.disturbances.append(ev)
        return ev

    def schedule_object_event(self, foot_frame, height, action, time,
                              region="full"):
        """Add a ground-height change under one foot; returns the event."""
        ev = ObjectEvent(time=time, frame=foot_frame, height=height,
                         action=action, region=region)
        events = sorted(self.object_events + [ev], key=lambda e: e.time)
        self._check_object_events(events)
        self.object_events = events
        return ev

    def _check_object_events(self, events):
        """Raise FrameError/ValueError for an event list the plant cannot run."""
        present = {f: False for f in self.sole_frames}
        for ev in events:
            if ev.frame not in self.sole_frames:
                raise FrameError(f"unknown foot frame '{ev.frame}'")
            if ev.action not in ("insert", "remove"):
                raise ValueError(f"unknown object action '{ev.action}'")
            if ev.region not in ("full", "front"):
                raise ValueError(f"unknown object region '{ev.region}'")
            if ev.action == "insert":
                if ev.height < 0.0:
                    raise ValueError("object height must be nonnegative")
                present[ev.frame] = True
            else:
                if not present[ev.frame]:
                    raise ValueError(f"object remove at t={ev.time} with no object under {ev.frame}")
                present[ev.frame] = False

    def ground_height(self, foot_frame, t, x_local=0.0):
        """Ground height under sole points at sole-frame x `x_local`.

        `x_local` may be a scalar or an array; the result has its shape.
        """
        x = np.asarray(x_local, dtype=float)
        h = np.zeros(x.shape)
        for ev in self.object_events:
            if ev.frame != foot_frame or ev.time > t:
                continue
            if ev.action == "insert":
                frac = 1.0 if ev.ramp <= 0.0 else min(1.0, (t - ev.time) / ev.ramp)
                under = x > 0.0 if ev.region == "front" else True
                h = np.where(under, frac * ev.height, h)
            else:
                h = np.zeros(x.shape)
        return h

    # ------------------------------------------------------------------ state

    def initial_state(self, joint_pos=None, base_height=None):
        n = self.n
        s = np.zeros(n) if joint_pos is None else np.asarray(joint_pos, dtype=float)
        if base_height is None:
            # rest the soles on the ground with the static penalty penetration
            n_corners = len(self.sole_frames) * len(models.FOOT_CORNERS)
            weight = self.model.total_mass * np.linalg.norm(self.model.gravity)
            penetration = weight / (n_corners * self.config.contact["stiffness"]) if n_corners else 0.0
            base_height = models.STANDING_HEIGHT - penetration
        state = PlantState(
            t=0.0,
            base_pos=np.array([0.0, 0.0, base_height]),
            base_R=np.eye(3),
            base_twist=np.zeros(6),
            s=s, sdot=np.zeros(n),
            motor_pos=s * self.reduction, motor_vel=np.zeros(n),
            tau=np.zeros(n), tau_friction=np.zeros(n),
            contact_wrenches={}, base_prop_acc=np.zeros(6),
            joint_acc=np.zeros(n), motor_acc=np.zeros(n),
            com=np.zeros(3),
        )
        # fill truth fields consistently with zero current
        self._apply_info(state, self._evaluate(state, np.zeros(n)))
        return state

    def _pack(self, state):
        # [p(3), rotvec(3), twist(6), s, sdot, phi, phidot] with phi the
        # joint-side motor angle; the rotation vector is relative to base_R
        return np.concatenate([
            state.base_pos, np.zeros(3), state.base_twist,
            state.s, state.sdot,
            state.motor_pos / self.reduction, state.motor_vel / self.reduction,
        ])

    def _unpack(self, y):
        n = self.n
        p = y[0:3]; dlt = y[3:6]; twist = y[6:12]
        s = y[12:12 + n]; sdot = y[12 + n:12 + 2 * n]
        phi = y[12 + 2 * n:12 + 3 * n]; phid = y[12 + 3 * n:12 + 4 * n]
        return p, dlt, twist, s, sdot, phi, phid

    # ------------------------------------------------------------------ forces

    def _contacts(self, t, fp):
        """Penalty forces at all sole corners, from one forward pass.

        Normal force is a one-sided spring-damper on penetration.
        Tangential force is viscous damping of the corner's ground-plane
        velocity, clipped to the friction cone |f_t| <= mu*fz.  Contact
        thus keeps no state of its own: the force is a function of `t`
        and the pass.

        Returns the wrench of every sole in contact (sole frame, about
        the sole origin, as the FT sensors read it) and the (n_links, 6)
        world-origin wrenches on the links.
        """
        cfg = self.config.contact
        H = fp.H[self._sole_links]
        # corner world positions (sole, corner, xyz) and velocities
        P = (H @ self._corners)[:, :3].transpose(0, 2, 1)
        v = fp.v[self._sole_links][:, None, :]
        V = v[..., :3] + batch_cross(v[..., 3:], P)
        ground = np.zeros(P.shape[:2])
        if self.object_events:
            ground[:] = [self.ground_height(f, t, models.FOOT_CORNERS[:, 0])
                         for f in self.sole_frames]
        pen = ground - P[..., 2]
        fz = cfg["stiffness"] * pen - cfg["damping"] * V[..., 2]
        touch = (pen > 0.0) & (fz > 0.0)
        ft = -cfg["tangential_damping"] * V[..., :2]
        ft_mag = np.hypot(ft[..., 0], ft[..., 1])
        limit = cfg["mu"] * fz
        slip = touch & (ft_mag > limit)
        if slip.any():
            ft[slip] *= (limit[slip] / ft_mag[slip])[:, None]
        F = np.where(touch[..., None],
                     np.concatenate([ft, fz[..., None]], axis=-1), 0.0)

        sole = H @ self._sole_offsets
        R, origin = sole[:, :3, :3], sole[:, :3, 3]
        force = F.sum(axis=1)
        moment = batch_cross(P - origin[:, None], F).sum(axis=1)
        wrenches = np.zeros((len(fp.H), 6))
        wrenches[self._sole_links, :3] = force
        wrenches[self._sole_links, 3:] = moment + batch_cross(origin, force)
        # R^T f as f^T R, row by row
        local = np.concatenate([force[:, None] @ R, moment[:, None] @ R],
                               axis=-1)[:, 0]
        contacts = {f: local[i] for i, f in enumerate(self.sole_frames)
                    if touch[i].any()}
        return contacts, wrenches

    def _add_disturbances(self, t, fp, wrenches):
        """Add the active disturbances to the world-origin link wrenches."""
        for ev in self.disturbances:
            if not (ev.time <= t < ev.time + ev.duration):
                continue
            idx, H = fp.frame_pose(ev.frame)
            force = np.asarray(ev.force, dtype=float)
            wrenches[idx, :3] += force
            wrenches[idx, 3:] += (np.asarray(ev.torque, dtype=float)
                                  + cross3(H[:3, 3], force))

    # ------------------------------------------------------------------ dynamics

    def _derivative(self, t, y, R0, currents):
        n = self.n
        p, dlt, twist, s, sdot, phi, phid = self._unpack(y)
        R = R0 @ exp_so3(dlt)
        base_pose = Transform(R, p)

        nu = np.concatenate([twist, sdot])
        fp = forward_pass(self.model, base_pose, s, nu,
                          Xs=joint_transforms(self.model, s))
        contacts, wrenches = self._contacts(t, fp)
        self._add_disturbances(t, fp, wrenches)

        motor_torque = self.reduction * self.k_t * currents
        tau_f = scv_friction(self.scv, phid, self.config.friction_smoothing)
        tau = self.elastic_k * (phi - s) + self.elastic_d * (phid - sdot)
        phidd = (motor_torque - tau_f - tau) / (self.reduction ** 2 * self.motor_inertia)

        M = crba(self.model, s, fp=fp)
        c = fp.inverse_dynamics(None, wrenches)
        if self.config.lock_base:
            a_static = np.zeros(self.model.nv)
            a_static[:3] = -R.T @ self.model.gravity
            # base held: joint rows of M a + c = tau with base accel fixed static
            rhs = tau - c[6:] - M[6:, :6] @ a_static[:6]
            sdd = np.linalg.solve(M[6:, 6:], rhs)
            a_prop = np.concatenate([a_static[:6], sdd])
            base_acc_coord = np.zeros(6)
        else:
            rhs = -c
            rhs[6:] += tau
            a_prop = np.linalg.solve(M, rhs)
            base_acc_coord = a_prop[:6].copy()
            base_acc_coord[:3] += R.T @ self.model.gravity
            sdd = a_prop[6:]

        w = twist[3:]
        ydot = np.empty_like(y)
        ydot[0:3] = R @ twist[:3]
        ydot[3:6] = w + 0.5 * cross3(dlt, w) + cross3(dlt, cross3(dlt, w)) / 12.0
        ydot[6:12] = 0.0 if self.config.lock_base else base_acc_coord
        ydot[12:12 + n] = sdot
        ydot[12 + n:12 + 2 * n] = sdd
        ydot[12 + 2 * n:12 + 3 * n] = phid
        ydot[12 + 3 * n:12 + 4 * n] = phidd

        info = {
            "tau": tau, "tau_friction": tau_f, "contacts": contacts,
            "base_prop_acc": a_prop[:6], "joint_acc": sdd,
            "motor_acc": phidd * self.reduction,
            "pass": fp, "currents": currents,
        }
        return ydot, info

    def _apply_info(self, state, info):
        state.tau = info["tau"]
        state.tau_friction = info["tau_friction"]
        state.contact_wrenches = info["contacts"]
        state.base_prop_acc = info["base_prop_acc"]
        state.joint_acc = info["joint_acc"]
        state.motor_acc = info["motor_acc"]
        state.com = info["pass"].com_position()
        state._info = info

    # ------------------------------------------------------------------ stepping

    def _evaluate(self, state, currents):
        """`_derivative` at `state`, with the record `_first_stage` checks.

        The returned info carries the derivative (`ydot`) and where it
        was made: this plant, `t`, the packed state and a copy of
        `base_R`.
        """
        y = self._pack(state)
        ydot, info = self._derivative(state.t, y, state.base_R, currents)
        info["ydot"] = ydot
        info["at"] = (self, state.t, y, state.base_R.copy())
        return info

    def _first_stage(self, state, y, currents):
        """The RK4 k1 at `state` (packed as `y`) under `currents`.

        The evaluation stored on `state` by the step or `initial_state`
        that made it serves, provided it was made by this plant at
        exactly this `t`, packed state and `base_R`, so a state made by
        either costs no evaluation here; a state edited after it was
        made gets a fresh one.  New currents enter the elastic
        transmission only through the motor acceleration, linearly, so
        the stored derivative is patched there.
        """
        info = getattr(state, "_info", None)
        if info is not None:
            plant, t, y_at, R_at = info["at"]
            if (plant is self and t == state.t and np.array_equal(y_at, y)
                    and np.array_equal(R_at, state.base_R)):
                di = currents - info["currents"]
                if not di.any():
                    return info["ydot"]
                k1 = info["ydot"].copy()
                k1[12 + 3 * self.n:] += self.k_t * di / (self.reduction
                                                         * self.motor_inertia)
                return k1
        return self._derivative(state.t, y, state.base_R, currents)[0]

    def step(self, state, currents):
        """Advance one RK4 step; returns (new state, SensorBundle).

        k2..k4 and the end-of-step evaluation, which fills the new
        state's truth fields, are the four evaluations of a step.  That
        last one is stored on the new state and serves as the next
        step's k1 (see `_first_stage`), as in the "first same as last"
        Runge-Kutta pairs (Dormand & Prince, 1980).  So a step from a
        state made by `step` or `initial_state` makes exactly four
        evaluations; a step from a state edited since makes a fifth.
        """
        h = self.config.step
        t = state.t
        # a copy: the stored evaluation keeps these currents
        currents = np.array(currents, dtype=float)
        y = self._pack(state)
        R0 = state.base_R

        k1 = self._first_stage(state, y, currents)
        k2, _ = self._derivative(t + h / 2, y + (h / 2) * k1, R0, currents)
        k3, _ = self._derivative(t + h / 2, y + (h / 2) * k2, R0, currents)
        k4, _ = self._derivative(t + h, y + h * k3, R0, currents)
        y_new = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        if not np.all(np.isfinite(y_new)):
            raise SimulationDiverged(t + h)

        n = self.n
        p, dlt, twist, s, sdot, phi, phid = self._unpack(y_new)
        R_new = R0 @ exp_so3(dlt)
        new = PlantState(
            t=t + h, base_pos=p.copy(), base_R=R_new, base_twist=twist.copy(),
            s=s.copy(), sdot=sdot.copy(),
            motor_pos=phi * self.reduction, motor_vel=phid * self.reduction,
            tau=np.zeros(n), tau_friction=np.zeros(n), contact_wrenches={},
            base_prop_acc=np.zeros(6), joint_acc=np.zeros(n),
            motor_acc=np.zeros(n), com=np.zeros(3),
        )
        self._apply_info(new, self._evaluate(new, currents))
        return new, self._sample_sensors(new, currents)

    # ------------------------------------------------------------------ sensors

    def _sample_sensors(self, state, currents):
        noise = self.config.noise
        rng = self.rng
        if noise["quantize"]:
            joint_pos = _quantize(state.s, self.lsb_joint)
            motor_pos = _quantize(state.motor_pos, self.lsb_motor)
        else:
            joint_pos = state.s.copy()
            motor_pos = state.motor_pos.copy()

        cur = currents + noise["current_std"] * rng.standard_normal(self.n) \
            if noise["current_std"] > 0 else currents.copy()

        ft = {}
        for sole, ftf in zip(self.sole_frames, self.ft_frames):
            w = state.contact_wrenches.get(sole, np.zeros(6)).copy()
            if noise["ft_force_std"] > 0:
                w[:3] += noise["ft_force_std"] * rng.standard_normal(3)
            if noise["ft_torque_std"] > 0:
                w[3:] += noise["ft_torque_std"] * rng.standard_normal(3)
            ft[ftf] = w

        imu_acc = {}
        imu_gyro = {}
        v, w_base = state.base_twist[:3], state.base_twist[3:]
        a_prop = state.base_prop_acc
        for frame in self.imu_frames:
            _, offset = self.model.frame(frame)
            r = offset.p
            Rs = offset.R
            acc = Rs.T @ (a_prop[:3] + cross3(w_base, v)
                          + cross3(a_prop[3:], r)
                          + cross3(w_base, cross3(w_base, r)))
            gyr = Rs.T @ w_base
            if noise["imu_acc_std"] > 0:
                acc = acc + noise["imu_acc_std"] * rng.standard_normal(3)
            if noise["imu_gyro_std"] > 0:
                gyr = gyr + noise["imu_gyro_std"] * rng.standard_normal(3)
            imu_acc[frame] = acc
            imu_gyro[frame] = gyr

        return SensorBundle(t=state.t, joint_pos=joint_pos, motor_pos=motor_pos,
                            currents=cur, ft=ft, imu_acc=imu_acc, imu_gyro=imu_gyro)
