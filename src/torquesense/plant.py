"""Ground-truth simulation plant.

Integrates the floating-base dynamics together with an elastic
harmonic-drive transmission per joint (motor inertia behind a gear, a
spring-damper to the link, SCV friction at the motor-side velocity)
using fixed-step RK4, models ground contact with stateless penalty
forces at the foot corners (a normal spring-damper, and tangential
damping clipped to the friction cone), and synthesizes encoder,
current, force/torque and IMU measurements with configurable
quantization and Gaussian noise.  A state is a value the plant made,
complete and read-only, that carries the evaluation it was made with;
a step makes four derivative evaluations, as its first stage reuses
that one.  Every evaluation forms the contact wrenches about the world
origin, as the dynamics take them; one with no sole corner below the
ground (the hanging identification run, a flight phase) stops at the
corner heights and forms no corner velocities or forces.  Only the
evaluation that makes a state turns them into the sole-frame wrenches
the FT sensors read, one row per sole in the model's wiring order.
Runs are bitwise reproducible for a fixed scenario configuration
(including the seed).

A scenario is checked in one place, `ScenarioConfig.__post_init__`,
which also resolves each joint's actuator settings (`actuators`); a
built config cannot change, so `Plant` reads it and checks nothing.
"""

import dataclasses
import functools
import hashlib
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .dynamics import (com_position, crba, forward_pass, joint_transforms,
                       static_proper_accel)
from .friction import ScvParams, scv_friction
from .kf import encoder_lsb
from .model import FOOT_CORNERS, STANDING_HEIGHT, FrameError, desk_biped
from .spatial import Transform, exp_so3, skew


def _stage(y):
    """The RK4 stage state `y`, checked to hold finite numbers only."""
    if not np.isfinite(y).all():
        raise FloatingPointError("state is not finite")
    return y


class SimulationDiverged(RuntimeError):
    def __init__(self, time):
        super().__init__(f"simulation diverged at t={time:.6f} s")
        self.time = time


@dataclass(frozen=True)
class Disturbance:
    """Timed external wrench, given in world coordinates at a frame origin."""
    time: float
    duration: float
    frame: str
    force: tuple = (0.0, 0.0, 0.0)
    torque: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ObjectEvent:
    """Ground-height change under one foot.

    `frame` is the name of a sole frame of the model (one of its
    `sole_frames`), as `Disturbance.frame` names the frame its
    wrench acts at.

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

# the model a config's joint names and event frames are checked against
_DESK_BIPED = desk_biped()


def _finite(v):
    return isinstance(v, numbers.Real) and math.isfinite(v)


def _positive(v):
    return _finite(v) and v > 0.0


def _nonnegative(v):
    return _finite(v) and v >= 0.0


def _integer(v):
    return (isinstance(v, numbers.Integral)
            and not isinstance(v, (bool, np.bool_)))


def _vector(v):
    return hasattr(v, "__len__") and len(v) == 3 and all(map(_finite, v))


# (check, what the value must be) of each config field, event field and
# joint, noise and contact key that has a rule of its own; "duration"
# names a field of both the config and a disturbance, "stiffness" and
# "damping" both an elasticity and a contact key
_VALUE_RULES = {
    "schema_version": (lambda v: _integer(v) and v == 1, "1"),
    "step": (_positive, "positive and finite (s)"),
    "duration": (_positive, "positive and finite (s)"),
    "seed": (lambda v: _integer(v) and v >= 0, "a nonnegative integer"),
    "lock_base": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    "gravity": (_vector, "3 finite numbers (m/s^2, world frame)"),
    "friction_smoothing": (_nonnegative, "nonnegative and finite (rad/s)"),
    "com_amplitude": (_vector, "3 finite numbers (m, world frame)"),
    "com_frequency": (_finite, "finite (Hz)"),
    "time": (_finite, "finite (s)"),
    "force": (_vector, "3 finite numbers (N, world frame)"),
    "torque": (_vector, "3 finite numbers (N.m, world frame)"),
    "height": (_nonnegative, "nonnegative and finite (m)"),
    "ramp": (_nonnegative, "nonnegative and finite (s)"),
    "action": (lambda v: v in ("insert", "remove"), '"insert" or "remove"'),
    "region": (lambda v: v in ("full", "front"), '"full" or "front"'),
    "k_t": (_positive, "positive and finite (torque constant, N*m/A)"),
    "reduction": (lambda v: _finite(v) and v >= 1.0,
                  "finite and at least 1 (reduction ratio)"),
    "motor_inertia": (_positive, "positive and finite (motor inertia)"),
    "coulomb": (_nonnegative, "nonnegative and finite (N*m)"),
    "breakaway": (_nonnegative, "nonnegative and finite (N*m)"),
    "stribeck_vel": (_positive, "positive and finite (rad/s)"),
    "viscous": (_nonnegative, "nonnegative and finite (N*m*s/rad)"),
    "stiffness": (_positive, "positive and finite"),
    "damping": (_nonnegative, "nonnegative and finite"),
    "tangential_damping": (_nonnegative, "nonnegative and finite (N*s/m)"),
    "mu": (_nonnegative, "nonnegative and finite (friction coefficient)"),
    "quantize": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    **dict.fromkeys(("joint_encoder_bits", "motor_encoder_bits"),
                    (lambda v: _integer(v) and 1 <= v <= 64,
                     "an integer from 1 to 64")),
    **dict.fromkeys(("current_std", "ft_force_std", "ft_torque_std",
                     "imu_acc_std", "imu_gyro_std"),
                    (_nonnegative, "nonnegative and finite (a noise std)")),
}


@dataclass(frozen=True)
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
    the same way.  `gravity` (m/s^2) and `com_amplitude` (m) are in the
    world frame.

    Construction is the one place a scenario is checked.  It raises
    ValueError for a `model` other than "desk_biped" (the one model
    that declares the sole, FT and IMU frames the closed loop reads), a
    `joints`, `noise` or `contact` value, joint entry or section that is
    no mapping, an events value that is no list or tuple, an event that
    is neither a mapping nor an event, an event mapping missing a
    required key, a section, key, event key or joint name not named
    above, a field, event field or
    key whose value breaks its rule in `_VALUE_RULES` (every number
    finite, `seed` a nonnegative integer, noise levels nonnegative,
    ...), a resolved breakaway level below the Coulomb level and an
    object removed from under a sole with none on it; FrameError for an
    event frame the model lacks.  A built config cannot change: `joints`,
    `noise` and `contact` are read-only mappings and the events tuples
    of frozen events; `dataclasses.replace` builds, and so checks, a
    changed one.  `actuators`, which is no field, holds the resolved
    settings {joint: {section: {key: float}}} in the model's joint order.
    """
    schema_version: int = 1
    model: str = "desk_biped"
    step: float = 1e-3          # s; the sensors sample once per step
    duration: float = 5.0
    seed: int = 0
    lock_base: bool = False
    gravity: tuple = (0.0, 0.0, -9.81)
    joints: Mapping = field(default_factory=dict)
    noise: Mapping = field(default_factory=dict)
    contact: Mapping = field(default_factory=dict)
    friction_smoothing: float = 0.01  # tanh transition velocity, rad/s
    com_amplitude: tuple = (0.0, 0.015, 0.0)
    com_frequency: float = 0.3
    disturbances: tuple = ()
    object_events: tuple = ()

    def __post_init__(self):
        if self.model != "desk_biped":
            raise ValueError(f"unknown model {self.model!r}: only 'desk_biped' "
                             f"declares the sole, FT and IMU frames the "
                             f"closed loop reads")
        # containers before their keys; events may come in their JSON form
        for name, depth in (("joints", 2), ("noise", 0), ("contact", 0)):
            _check_mappings(name, getattr(self, name), depth)
        pushes = _events(Disturbance, "disturbances", self.disturbances)
        objects = _events(ObjectEvent, "object_events", self.object_events)
        for name, entry in self.joints.items():
            _check_keys(f"joints[{name!r}] section", entry, _DEFAULT_JOINT)
            for section, block in entry.items():
                _check_keys(f"joints[{name!r}][{section!r}] key", block,
                            _DEFAULT_JOINT[section])
        _check_keys("noise key", self.noise, _DEFAULT_NOISE)
        _check_keys("contact key", self.contact, _DEFAULT_CONTACT)
        # (label, key, value) of every value that has a rule
        values = [(f.name, f.name, getattr(self, f.name))
                  for f in dataclasses.fields(self) if f.name in _VALUE_RULES]
        values += [(f"{kind}[{i}].{f.name}", f.name, getattr(ev, f.name))
                   for kind, evs in (("disturbances", pushes),
                                     ("object_events", objects))
                   for i, ev in enumerate(evs)
                   for f in dataclasses.fields(ev) if f.name in _VALUE_RULES]
        values += [(f"joints[{name!r}][{section!r}][{key!r}]", key, value)
                   for name, entry in self.joints.items()
                   for section, block in entry.items()
                   for key, value in block.items()]
        values += [(f"{section}[{key!r}]", key, value)
                   for section in ("noise", "contact")
                   for key, value in getattr(self, section).items()]
        for label, key, value in values:
            ok, what = _VALUE_RULES[key]
            if not ok(value):
                raise ValueError(f"ScenarioConfig.{label} must be {what}, "
                                 f"got {value!r}")
        actuators = _actuator_table(self.joints)
        for ev in pushes:
            _DESK_BIPED.frame(ev.frame)  # FrameError for an unknown frame
        _check_object_events(objects)
        # a built config cannot change; partial overrides merge over
        # the built-in defaults
        frozen = dict(
            gravity=tuple(self.gravity), com_amplitude=tuple(self.com_amplitude),
            joints=_copy(self.joints, MappingProxyType),
            noise=MappingProxyType({**_DEFAULT_NOISE, **self.noise}),
            contact=MappingProxyType({**_DEFAULT_CONTACT, **self.contact}),
            disturbances=tuple(dataclasses.replace(
                ev, force=tuple(ev.force), torque=tuple(ev.torque))
                for ev in pushes),
            object_events=objects,
            actuators=_copy(actuators, MappingProxyType))
        for name, value in frozen.items():
            object.__setattr__(self, name, value)

    def to_dict(self):
        """A deep copy of the config as plain JSON-ready containers;
        `ScenarioConfig(**d)` builds it back."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d.update({name: _copy(d[name], dict)
                  for name in ("joints", "noise", "contact")})
        d.update({name: [dataclasses.asdict(ev) for ev in d[name]]
                  for name in ("disturbances", "object_events")})
        return d

    def __reduce__(self):
        # deep-copied and pickled as its fields: a mappingproxy does neither
        return functools.partial(ScenarioConfig, **self.to_dict()), ()

    def per_joint(self, section, key):
        """One resolved actuator setting of every joint, in the model's
        joint order (`per_joint("motor", "k_t")`)."""
        return np.array([entry[section][key]
                         for entry in self.actuators.values()])

    def config_hash(self):
        # numpy scalars are the only values to_dict gives that json lacks
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          default=lambda o: o.item())
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_mappings(label, value, depth):
    """ValueError naming `value` or a value `depth` levels in, if no mapping."""
    if not isinstance(value, Mapping):
        raise ValueError(f"ScenarioConfig.{label} must be a mapping, "
                         f"got {value!r}")
    for key, item in value.items() if depth else ():
        _check_mappings(f"{label}[{key!r}]", item, depth - 1)


def _events(kind, label, events):
    """`events`, a list or tuple of events of `kind` or their JSON form,
    as a tuple of events."""
    if not isinstance(events, (list, tuple)):
        raise ValueError(f"ScenarioConfig.{label} must be a list or tuple, "
                         f"got {events!r}")
    fields = dataclasses.fields(kind)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    for i, x in enumerate(events):
        where = f"ScenarioConfig.{label}[{i}]"
        if not isinstance(x, (Mapping, kind)):
            raise ValueError(f"{where} must be a mapping or an event "
                             f"({kind.__name__}), got {x!r}")
        if isinstance(x, Mapping):
            _check_keys(f"{where} key", x, [f.name for f in fields])
            missing = [name for name in required if name not in x]
            if missing:
                raise ValueError(f"missing {where} key "
                                 f"{', '.join(map(repr, missing))}; "
                                 f"required: {', '.join(required)}")
    return tuple(kind(**x) if isinstance(x, Mapping) else x for x in events)


def _check_keys(what, given, known):
    """Raise ValueError naming the keys of `given` that `known` lacks."""
    unknown = sorted(set(given) - set(known), key=repr)
    if unknown:
        raise ValueError(f"unknown {what} {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(known)}")


def _actuator_table(joints):
    """{joint: {section: {key: float}}}, resolved as `ScenarioConfig`
    says; ValueError for an entry that names no joint of the model or a
    breakaway level below the Coulomb level."""
    _check_keys("joint", joints, _DESK_BIPED.joint_names + ["default"])
    table = {}
    for name in _DESK_BIPED.joint_names:
        entry = joints.get(name, joints.get("default", {}))
        table[name] = {section: {key: float(value) for key, value in
                                 {**known, **entry.get(section, {})}.items()}
                       for section, known in _DEFAULT_JOINT.items()}
        friction = table[name]["friction"]
        if friction["breakaway"] < friction["coulomb"]:
            raise ValueError(f"ScenarioConfig.joints: joint {name!r} has "
                             f"breakaway {friction['breakaway']!r} below its "
                             f"coulomb {friction['coulomb']!r}")
    return table


def _check_object_events(events):
    """FrameError for an object event under no sole of the model, and
    ValueError for one that removes an object from an empty sole."""
    present = dict.fromkeys(_DESK_BIPED.sole_frames, False)
    for ev in sorted(events, key=lambda e: e.time):
        if ev.frame not in present:
            raise FrameError(f"unknown foot frame '{ev.frame}'")
        if ev.action == "remove" and not present[ev.frame]:
            raise ValueError(f"object remove at t={ev.time} with no object "
                             f"under {ev.frame}")
        present[ev.frame] = ev.action == "insert"


def _copy(mapping, kind):
    """`mapping` and the mappings nested in it, copied as `kind`."""
    return kind({k: _copy(v, kind) if isinstance(v, Mapping) else v
                 for k, v in mapping.items()})


@dataclass
class SensorBundle:
    """One timestamped set of simulated measurements, laid out by the
    model's sensor wiring (`ft_frames`, `imu_frame`)."""
    t: float
    joint_pos: np.ndarray       # quantized joint encoder readings, rad
    motor_pos: np.ndarray       # quantized motor encoder readings, motor-side rad
    currents: np.ndarray        # A
    ft: np.ndarray              # (k, 6): row k the wrench in ft_frames[k]
    imu_acc: np.ndarray         # (3,) proper linear acceleration, m/s^2
    imu_gyro: np.ndarray        # (3,) angular velocity, rad/s


@dataclass(frozen=True)
class PlantState:
    """Ground-truth plant state plus truth bookkeeping at time t.

    Only a plant makes one (`initial_state`, `step`): complete, with
    every array read-only, and carrying the evaluation it was made with
    (`_made`), which a `dataclasses.replace` copy lacks."""
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
    contact_wrenches: np.ndarray  # (soles, 6) in the sole frames, 0 if lifted
    base_prop_acc: np.ndarray   # base proper spatial acceleration (6,)
    joint_acc: np.ndarray
    com: np.ndarray
    _made: tuple = field(default=None, init=False, repr=False, compare=False)

    def base_pose(self):
        return Transform(self.base_R, self.base_pos)


def _cross(a, b):
    """Cross product of two 3-sequences of Python floats, as a tuple."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _quantize(x, lsb):
    return np.rint(x / lsb) * lsb


def _twist_block(v):
    """[skew(w) | v_lin] of a motion vector v: times [P; 1] it is the
    velocity of the point P."""
    return np.hstack([skew(v[3:]), v[:3, None]])


def _wrench_of_moments(i):
    """Row i of the map from sum [P; 1] F^T (4x3, flattened) to the
    world-origin wrench [sum F, sum P x F]."""
    B = np.zeros((4, 3))
    if i < 3:
        # force: the row of ones sums F
        B[3, i] = 1.0
    else:
        # moment about axis a: sum P_j F_k - P_k F_j, (a, j, k) cyclic
        a = i - 3
        j, k = (a + 1) % 3, (a + 2) % 3
        B[j, k], B[k, j] = 1.0, -1.0
    return B.ravel()


# v @ _TWIST_BASIS stacks the flattened 3x4 twist blocks of the rows of v
_TWIST_BASIS = np.array([_twist_block(e).ravel() for e in np.eye(6)])
_WRENCH_OF_MOMENTS = np.array([_wrench_of_moments(i) for i in range(6)]).T


class Plant:
    """Deterministic fixed-step simulator for one (checked) scenario."""

    def __init__(self, config):
        self.config = config
        self.model = desk_biped(config.gravity)
        n = self.model.ndof
        self.n = n
        per_joint = config.per_joint
        self.k_t = per_joint("motor", "k_t")
        self.reduction = per_joint("motor", "reduction")
        self.motor_inertia = per_joint("motor", "motor_inertia")
        # per-joint arrays; self.scv[j] is joint j's scalar set
        self.scv = ScvParams(
            per_joint("friction", "coulomb"), per_joint("friction", "breakaway"),
            per_joint("friction", "stribeck_vel"), per_joint("friction", "viscous"))
        self.elastic_k = per_joint("elasticity", "stiffness")
        self.elastic_d = per_joint("elasticity", "damping")
        self._elastic = np.concatenate([self.elastic_k, self.elastic_d])
        # motor torque per ampere, and the inverse of the motor inertia
        # reflected to the joint side
        self._gear_k_t = self.reduction * self.k_t
        self._inv_reflected_inertia = 1.0 / (self.reduction ** 2
                                             * self.motor_inertia)
        contact = config.contact
        self._contact_stiffness = float(contact["stiffness"])
        self._contact_mu = float(contact["mu"])
        # v @ _damped_twist stacks the twist blocks of the rows of v with
        # their rows scaled by the damping per world axis (x, y
        # tangential; z normal): times [P; 1], the damping force of the
        # point P
        damping = -np.array([contact["tangential_damping"],
                             contact["tangential_damping"], contact["damping"]],
                            dtype=float)
        self._damped_twist = (_TWIST_BASIS.reshape(6, 3, 4)
                              * damping[:, None]).reshape(6, 12)

        # sole frames and their corners (homogeneous columns) in the foot
        # link frames, for the contact kernel
        self._sole_links, self._sole_offsets = self.model.frame_stack(
            self.model.sole_frames)
        corners = np.vstack([FOOT_CORNERS.T, np.ones(len(FOOT_CORNERS))])
        self._corners = self._sole_offsets @ corners

        # (start, end, link, frame origin in link coordinates with a
        # trailing 1, force, torque) of each disturbance, as Python floats
        self._pushes = []
        for ev in config.disturbances:
            idx, offset = self.model.frame(ev.frame)
            self._pushes.append((ev.time, ev.time + ev.duration, idx,
                                 offset.homogeneous()[:, 3],
                                 [float(x) for x in ev.force],
                                 [float(x) for x in ev.torque]))
        self.object_events = sorted(config.object_events, key=lambda e: e.time)

        self.rng = np.random.default_rng(config.seed)

        self.lsb_joint = encoder_lsb(config.noise["joint_encoder_bits"])
        self.lsb_motor = encoder_lsb(config.noise["motor_encoder_bits"])
        # sensor noise std per channel: the currents, then force and
        # torque of each FT sensor, then the IMU's acc and gyro
        noise = config.noise
        self._noise_std = np.concatenate([
            np.full(n, noise["current_std"]),
            np.tile(np.repeat([noise["ft_force_std"], noise["ft_torque_std"]],
                              3), len(self.model.ft_frames)),
            np.repeat([noise["imu_acc_std"], noise["imu_gyro_std"]], 3)])
        self._noise_live = np.flatnonzero(self._noise_std > 0)
        self._live_std = self._noise_std[self._noise_live]
        # R^T and offset of the IMU frame in the base frame
        imu = self.model.frame(self.model.imu_frame)[1]
        self._imu_RT, self._imu_r = imu.R.T, imu.p.tolist()

    # ------------------------------------------------------------------ events

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

    def initial_state(self, base_height=None):
        """The state at t = 0, at rest at zero joint and motor angles, with
        its evaluation at zero current.

        `base_height` (m) must be finite, and by default rests the soles
        on the ground with the static penalty penetration.  Raises
        ValueError otherwise.
        """
        if base_height is not None and not _finite(base_height):
            raise ValueError(f"base_height must be a finite number (m), "
                             f"got {base_height!r}")
        if base_height is None:
            # rest the soles on the ground with the static penalty penetration
            n_corners = len(self.model.sole_frames) * len(FOOT_CORNERS)
            weight = self.model.total_mass * np.linalg.norm(self.model.gravity)
            penetration = weight / (n_corners * self.config.contact["stiffness"])
            base_height = STANDING_HEIGHT - penetration
        return self._state(0.0, np.array([0.0, 0.0, base_height]), np.eye(3),
                           np.zeros(6), *np.zeros((5, self.n)))

    def _state(self, t, base_pos, base_R, base_twist, s, sdot, motor_pos,
               motor_vel, currents):
        """The state these values give, packed once as [p(3), rotvec(3),
        twist(6), s, sdot, phi, phidot] (phi the joint-side motor angle,
        the rotation vector relative to `base_R`) and evaluated once under
        `currents`; it keeps (this plant, y, ydot, currents) as `_made`."""
        y = np.concatenate([base_pos, np.zeros(3), base_twist, s, sdot,
                            motor_pos / self.reduction,
                            motor_vel / self.reduction])
        ydot, info = self._derivative(t, y, base_R, currents)
        truth = self._truth(info)
        state = PlantState(t, base_pos, base_R, base_twist, s, sdot,
                           motor_pos, motor_vel, **truth)
        for a in (base_pos, base_R, base_twist, s, sdot, motor_pos, motor_vel,
                  *truth.values(), y, ydot, currents):
            a.setflags(write=False)
        object.__setattr__(state, "_made", (self, y, ydot, currents))
        return state

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

        Returns the (n_links, 6) world-origin wrenches on the links; a
        sole none of whose corners touches has a zero row.  With no
        corner below the ground the zero block returns before the corner
        velocities and forces are formed.
        """
        wrenches = np.zeros((len(fp.H), 6))
        # homogeneous world corners (sole, xyz1, corner) and their
        # heights above the ground
        HC = fp.H[self._sole_links] @ self._corners
        z = HC[:, 2]
        if self.object_events:
            z = z - [self.ground_height(f, t, FOOT_CORNERS[:, 0])
                     for f in self.model.sole_frames]
        below = z < 0.0
        if not np.count_nonzero(below):
            return wrenches
        # damping of the world corner velocities (sole, xyz, corner) on
        # every axis, plus the normal spring on the penetration -z
        F = ((fp.v[self._sole_links] @ self._damped_twist).reshape(-1, 3, 4)
             @ HC)
        F[:, 2] -= self._contact_stiffness * z
        fz = F[:, 2]
        touch = below & (fz > 0.0)
        ft_mag = np.hypot(F[:, 0], F[:, 1])
        limit = self._contact_mu * fz
        slip = touch & (ft_mag > limit)
        if np.count_nonzero(slip):
            scale = np.ones_like(ft_mag)
            scale[slip] = limit[slip] / ft_mag[slip]
            F[:, :2] *= scale[:, None]
        F *= touch[:, None]
        # [sum F, sum P x F] of each sole from its sum of [P; 1] F^T
        soles = (HC @ F.transpose(0, 2, 1)).reshape(-1, 12) @ _WRENCH_OF_MOMENTS
        wrenches[self._sole_links] = soles
        return wrenches

    def _add_disturbances(self, t, fp, wrenches):
        """Add the active disturbances to the world-origin link wrenches."""
        for start, end, idx, origin, (fx, fy, fz), (mx, my, mz) in self._pushes:
            if not (start <= t < end):
                continue
            x, y, z = (fp.H[idx, :3] @ origin).tolist()
            wrenches[idx] += (fx, fy, fz, mx + (y * fz - z * fy),
                              my + (z * fx - x * fz), mz + (x * fy - y * fx))

    # ------------------------------------------------------------------ dynamics

    def _derivative(self, t, y, R0, currents):
        p, dlt, twist, s, sdot, _, phid = self._unpack(y)
        R = R0 @ exp_so3(dlt)
        base_pose = Transform(R, p)

        nu = np.concatenate([twist, sdot])
        fp = forward_pass(self.model, base_pose, s, nu,
                          Xs=joint_transforms(self.model, s))
        wrenches = self._contacts(t, fp)
        soles = wrenches[self._sole_links]
        self._add_disturbances(t, fp, wrenches)

        tau_f = scv_friction(self.scv, phid, self.config.friction_smoothing)
        # the transmission's spring and damper act on [phi - s, phid -
        # sdot], one difference of adjacent blocks of y
        tau = self._elastic * (y[12 + 2 * self.n:] - y[12:12 + 2 * self.n])
        tau = tau[:self.n] + tau[self.n:]
        phidd = ((self._gear_k_t * currents - tau_f - tau)
                 * self._inv_reflected_inertia)

        M = crba(fp)
        c = fp.inverse_dynamics(None, wrenches)
        if self.config.lock_base:
            a_static = static_proper_accel(fp)
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

        # rotation-vector rate w + dlt x w / 2 + dlt x (dlt x w) / 12,
        # on Python floats
        d, w = dlt.tolist(), twist[3:].tolist()
        dw = _cross(d, w)
        rate = [wi + 0.5 * dwi + ddwi / 12.0
                for wi, dwi, ddwi in zip(w, dw, _cross(d, dw))]
        ydot = np.concatenate([R @ twist[:3], rate, base_acc_coord, sdot, sdd,
                               phid, phidd])

        return ydot, dict(tau=tau, tau_friction=tau_f, base_prop_acc=a_prop[:6],
                          joint_acc=sdd, fp=fp, soles=soles)

    def _truth(self, info):
        """The truth fields of a state from the `_derivative` info of its
        evaluation, used up here: the pass gives the CoM and turns the
        `_contacts` sole rows into sole-frame wrenches, one row per sole."""
        fp, soles = info.pop("fp"), info.pop("soles")
        H = fp.H[self._sole_links] @ self._sole_offsets
        # rows [force, moment about the sole origin], then R^T of each
        # as a row times R
        w = soles.reshape(-1, 2, 3).copy()
        w[:, 1] -= [_cross(o, f) for o, f in zip(H[:, :3, 3].tolist(),
                                                  soles[:, :3].tolist())]
        return dict(info, contact_wrenches=(w @ H[:, :3, :3]).reshape(-1, 6),
                    com=com_position(fp))

    # ------------------------------------------------------------------ stepping

    def _first_stage(self, state, currents):
        """(y, k1): `state` packed and its RK4 k1 under `currents`, from the
        evaluation that made it, patched where new currents enter (linearly,
        the motor acceleration); ValueError for a state not this plant's."""
        plant, y, ydot, made_under = state._made or (None,) * 4
        if plant is not self:
            raise ValueError("Plant.step takes only a state this plant made "
                             "(initial_state or step)")
        di = currents - made_under
        if not np.count_nonzero(di):
            return y, ydot
        k1 = ydot.copy()
        k1[12 + 3 * self.n:] += (self._gear_k_t * di
                                 * self._inv_reflected_inertia)
        return y, k1

    def step(self, state, currents):
        """Advance one RK4 step; returns (new state, SensorBundle).

        k2..k4 and the evaluation that makes the new state are the four
        evaluations of a step; that last one serves as the next step's k1
        (`_first_stage`), as in the "first same as last" Runge-Kutta
        pairs (Dormand & Prince, 1980).  `state` must be one this plant
        made and `currents` hold one value (A) per joint, n in all, or
        ValueError is raised before any evaluation.  A step that
        overflows, makes an invalid operation or reaches a stage input or
        result that is not finite raises `SimulationDiverged` at its end
        time."""
        h, t = self.config.step, state.t
        # a copy: the new state keeps these currents
        currents = np.array(currents, dtype=float)
        if currents.shape != (self.n,):
            raise ValueError(f"currents must hold one value per joint, "
                             f"n = {self.n}, got shape {currents.shape}")
        R0 = state.base_R

        # solve ignores overflow, so each stage input is checked before
        # exp_so3 reads it
        try:
            with np.errstate(over="raise", invalid="raise"):
                y, k1 = self._first_stage(state, currents)
                k2, _ = self._derivative(t + h / 2, _stage(y + (h / 2) * k1),
                                         R0, currents)
                k3, _ = self._derivative(t + h / 2, _stage(y + (h / 2) * k2),
                                         R0, currents)
                k4, _ = self._derivative(t + h, _stage(y + h * k3), R0,
                                         currents)
                y_new = _stage(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
                p, dlt, twist, s, sdot, phi, phid = self._unpack(y_new)
                new = self._state(t + h, p, R0 @ exp_so3(dlt), twist, s, sdot,
                                  phi * self.reduction, phid * self.reduction,
                                  currents)
        except FloatingPointError:
            raise SimulationDiverged(t + h) from None
        return new, self._sample_sensors(new, currents)

    # ------------------------------------------------------------------ sensors

    def _sample_sensors(self, state, currents):
        n = self.n
        if self.config.noise["quantize"]:
            joint_pos = _quantize(state.s, self.lsb_joint)
            motor_pos = _quantize(state.motor_pos, self.lsb_motor)
        else:
            joint_pos = state.s.copy()
            motor_pos = state.motor_pos.copy()

        # one draw per step fills the channels whose std is not 0
        noise = np.zeros(len(self._noise_std))
        noise[self._noise_live] = self._live_std * self.rng.standard_normal(
            len(self._noise_live))
        cur = currents + noise[:n]
        # FT k sits at sole k and reads its contact wrench
        k = n + state.contact_wrenches.size
        ft = noise[n:k].reshape(-1, 6) + state.contact_wrenches

        # the proper acceleration of the IMU point r on the base, on
        # Python floats: a + w x v + dw x r + w x (w x r)
        twist, a, r = (state.base_twist.tolist(),
                       state.base_prop_acc.tolist(), self._imu_r)
        v, w = twist[:3], twist[3:]
        acc = [ai + c1 + c2 + c3 for ai, c1, c2, c3 in zip(
            a[:3], _cross(w, v), _cross(a[3:], r), _cross(w, _cross(w, r)))]
        imu_acc = self._imu_RT @ acc + noise[k:k + 3]
        imu_gyro = self._imu_RT @ state.base_twist[3:] + noise[k + 3:k + 6]

        return SensorBundle(t=state.t, joint_pos=joint_pos, motor_pos=motor_pos,
                            currents=cur, ft=ft, imu_acc=imu_acc, imu_gyro=imu_gyro)
