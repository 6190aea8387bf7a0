"""Ground-truth simulator: determinism, sensors, events, contact."""

import copy
import dataclasses
import operator
import pickle

import numpy as np
import pytest

from torquesense.friction import ScvParams
from torquesense.model import FrameError
from torquesense.plant import (
    Disturbance,
    ObjectEvent,
    Plant,
    ScenarioConfig,
    SimulationDiverged,
)

NAN, INF = float("nan"), float("inf")
QUIET_NOISE = {"quantize": False, "current_std": 0.0, "ft_force_std": 0.0,
               "ft_torque_std": 0.0, "imu_acc_std": 0.0, "imu_gyro_std": 0.0}


def make_plant(**kw):
    return Plant(ScenarioConfig(**kw))


def run_steps(plant, n_steps, currents=None):
    state = plant.initial_state()
    cur = np.zeros(plant.n) if currents is None else currents
    bundles = []
    for _ in range(n_steps):
        state, bundle = plant.step(state, cur)
        bundles.append(bundle)
    return state, bundles


def test_deterministic_repeat_is_bitwise_identical():
    s1, b1 = run_steps(make_plant(seed=3), 200)
    s2, b2 = run_steps(make_plant(seed=3), 200)
    assert np.array_equal(s1.base_pos, s2.base_pos)
    assert np.array_equal(s1.s, s2.s)
    assert np.array_equal(s1.tau, s2.tau)
    for a, b in zip(b1, b2):
        assert np.array_equal(a.joint_pos, b.joint_pos)
        assert np.array_equal(a.currents, b.currents)
        assert np.array_equal(a.ft, b.ft)


def test_initial_contact_forces_carry_the_weight():
    plant = make_plant()
    state = plant.initial_state()
    weight = plant.model.total_mass * 9.81
    assert state.contact_wrenches.shape == (2, 6)
    fz = state.contact_wrenches[:, 2].sum()
    assert abs(fz - weight) < 0.005 * weight
    # still true after a short free settling interval
    state, _ = run_steps(plant, 300)
    fz = state.contact_wrenches[:, 2].sum()
    assert abs(fz - weight) < 0.005 * weight


def test_sensors_exact_with_noise_off():
    plant = make_plant(noise=QUIET_NOISE)
    state, bundles = run_steps(plant, 10)
    b = bundles[-1]
    assert np.array_equal(b.joint_pos, state.s)
    assert np.array_equal(b.motor_pos, state.motor_pos)
    assert np.array_equal(b.currents, np.zeros(plant.n))
    # FT k reads sole k
    assert np.array_equal(b.ft, state.contact_wrenches)


def test_encoder_quantization_grid():
    plant = make_plant()
    bits = plant.config.noise
    assert plant.lsb_joint == 2 * np.pi / 2 ** bits["joint_encoder_bits"]
    assert plant.lsb_motor == 2 * np.pi / 2 ** bits["motor_encoder_bits"]
    state, bundles = run_steps(plant, 5)
    b = bundles[-1]
    assert np.allclose(b.joint_pos,
                       np.round(state.s / plant.lsb_joint) * plant.lsb_joint)
    assert np.allclose(b.motor_pos,
                       np.round(state.motor_pos / plant.lsb_motor) * plant.lsb_motor)


def test_sensor_noise_is_one_draw_in_channel_order():
    # a step's noise is one standard-normal draw whose slots follow the
    # channels: the currents, each FT sensor's force then torque, the
    # IMU's acc then gyro; a channel with std 0 takes no slot.  So it
    # equals the same seed drawn channel by channel.
    noise = {"ft_torque_std": 0.0}
    plant = make_plant(seed=5, noise=noise)
    quiet = make_plant(seed=5, noise={**noise, "current_std": 0.0,
                                      "ft_force_std": 0.0, "imu_acc_std": 0.0,
                                      "imu_gyro_std": 0.0})
    state = plant.initial_state()
    currents = np.linspace(-0.5, 0.5, plant.n)
    got = plant._sample_sensors(state, currents)
    clean = quiet._sample_sensors(state, currents)
    std = plant.config.noise
    rng = np.random.default_rng(5)
    assert np.array_equal(got.currents, currents + std["current_std"]
                          * rng.standard_normal(plant.n))
    for got_ft, clean_ft in zip(got.ft, clean.ft):
        expected = clean_ft.copy()
        expected[:3] += std["ft_force_std"] * rng.standard_normal(3)
        assert np.array_equal(got_ft, expected)
    assert np.array_equal(got.imu_acc, clean.imu_acc
                          + std["imu_acc_std"] * rng.standard_normal(3))
    assert np.array_equal(got.imu_gyro, clean.imu_gyro
                          + std["imu_gyro_std"] * rng.standard_normal(3))
    # the stream goes on where the per-channel draws left it
    assert plant.rng.standard_normal() == rng.standard_normal()


def test_sensor_noise_statistics():
    plant = make_plant(seed=7)
    state = plant.initial_state()
    n_samp = 100_000
    cur = np.empty((n_samp,))
    acc = np.empty((n_samp,))
    fz = np.empty((n_samp,))
    zero = np.zeros(plant.n)
    for k in range(n_samp):
        b = plant._sample_sensors(state, zero)
        cur[k] = b.currents[0]
        acc[k] = b.imu_acc[0]
        fz[k] = b.ft[0, 0]
    noise = plant.config.noise
    assert abs(np.std(cur) - noise["current_std"]) < 0.05 * noise["current_std"]
    assert abs(np.std(acc) - noise["imu_acc_std"]) < 0.05 * noise["imu_acc_std"]
    assert abs(np.std(fz) - noise["ft_force_std"]) < 0.05 * noise["ft_force_std"]


def test_sensors_sample_every_step():
    plant = make_plant(step=2e-3)
    _, bundles = run_steps(plant, 2)
    assert [b.t for b in bundles] == [0.002, 0.004]
    with pytest.raises(ValueError, match="step must be positive"):
        ScenarioConfig(step=0.0)


def test_ground_height_profile():
    plant = make_plant(object_events=[
        ObjectEvent(1.0, "right_sole", 0.03, "insert"),
        ObjectEvent(3.0, "right_sole", 0.03, "remove")])
    assert plant.ground_height("right_sole", 0.5) == 0.0
    # insertion ramps over the default 0.25 s
    assert plant.ground_height("right_sole", 1.125) == pytest.approx(0.015)
    assert plant.ground_height("right_sole", 2.0) == pytest.approx(0.03)
    # removal is instantaneous
    assert plant.ground_height("right_sole", 3.0) == 0.0
    assert plant.ground_height("left_sole", 2.0) == 0.0


def test_forefoot_region_only_raises_front_corners():
    plant = make_plant(object_events=[
        ObjectEvent(0.5, "right_sole", 0.02, "insert", region="front")])
    assert plant.ground_height("right_sole", 2.0, x_local=0.10) == pytest.approx(0.02)
    assert plant.ground_height("right_sole", 2.0, x_local=-0.06) == 0.0


def test_zero_magnitude_events_do_not_change_trajectory():
    base_state, base_b = run_steps(make_plant(seed=5), 300)

    p1 = make_plant(seed=5, disturbances=[Disturbance(0.05, 0.1, "torso_push")])
    s1, b1 = run_steps(p1, 300)
    assert np.array_equal(s1.base_pos, base_state.base_pos)
    assert np.array_equal(s1.s, base_state.s)

    p2 = make_plant(seed=5, object_events=[
        ObjectEvent(0.05, "right_sole", 0.0, "insert")])
    s2, _ = run_steps(p2, 300)
    assert np.array_equal(s2.base_pos, base_state.base_pos)
    assert np.array_equal(s2.s, base_state.s)


def test_disturbance_pushes_the_base():
    p = make_plant(seed=5, disturbances=[
        Disturbance(0.02, 0.2, "torso_push", (0.0, 60.0, 0.0))])
    s, _ = run_steps(p, 300)
    base, _ = run_steps(make_plant(seed=5), 300)
    assert s.base_pos[1] > base.base_pos[1] + 1e-4


def test_locked_base_stays_put():
    p = make_plant(lock_base=True)
    state = p.initial_state(base_height=2.0)
    for _ in range(100):
        state, _ = p.step(state, 0.2 * np.ones(p.n))
    assert np.array_equal(state.base_pos, [0.0, 0.0, 2.0])
    assert np.array_equal(state.base_twist, np.zeros(6))
    # joints still move under motor torque
    assert np.any(np.abs(state.motor_vel) > 0.0)


def test_divergence_raises_with_time():
    p = make_plant()
    state = p.initial_state()
    with pytest.raises(SimulationDiverged):
        p.step(state, np.full(p.n, np.nan))


@pytest.mark.parametrize("currents", [np.zeros(3), np.zeros(9),
                                      np.zeros((2, 8)), 0.1])
def test_currents_of_the_wrong_length_are_rejected_at_the_step(currents):
    # used to fail inside the step with a numpy broadcast error
    p = make_plant()
    state = p.initial_state()
    with pytest.raises(ValueError, match=r"^currents must hold one value per "
                       r"joint, n = 8, got shape"):
        p.step(state, currents)


def test_initial_state_starts_at_zero_joint_angles():
    p = make_plant()
    state = p.initial_state()
    for a in (state.s, state.sdot, state.motor_pos, state.motor_vel):
        assert np.array_equal(a, np.zeros(p.n))
    # at rest and level: the controller's filters start there without
    # reading the state
    assert np.array_equal(state.base_twist, np.zeros(6))
    assert np.array_equal(state.base_R, np.eye(3))
    with pytest.raises(ValueError, match="^base_height must be a finite"):
        p.initial_state(base_height=NAN)


def test_scenario_config_round_trip_and_hash():
    cfg = ScenarioConfig(
        seed=4, duration=2.0,
        disturbances=[Disturbance(1.0, 0.2, "torso_push", (0, 10, 0))],
        object_events=[ObjectEvent(1.0, "right_sole", 0.03, "insert",
                                   region="front")])
    back = ScenarioConfig(**cfg.to_dict())
    assert back.config_hash() == cfg.config_hash()
    assert isinstance(back.disturbances[0], Disturbance)
    assert isinstance(back.object_events[0], ObjectEvent)
    other = ScenarioConfig(seed=5, duration=2.0)
    assert other.config_hash() != cfg.config_hash()
    # a numpy bool, which the rules accept, used to fail to hash
    assert ScenarioConfig(lock_base=np.True_).config_hash() \
        == ScenarioConfig(lock_base=True).config_hash()


def test_legacy_elastic_transmission_key():
    # the elastic transmission is the plant's only one, and no config
    # field chooses it
    for value in (True, False):
        with pytest.raises(TypeError, match="unexpected keyword argument "
                           "'elastic_transmission'"):
            ScenarioConfig(elastic_transmission=value)


def test_legacy_tangential_stiffness_key():
    # the stick-spring contact is gone: its stiffness is an unknown
    # contact key, even at 0.0, the contact the plant models
    written = ScenarioConfig().to_dict()
    for value in (0.0, 4000.0):
        written["contact"]["tangential_stiffness"] = value
        with pytest.raises(ValueError,
                           match="contact key 'tangential_stiffness'"):
            ScenarioConfig(**written)


@pytest.mark.parametrize("kw, match", [
    ({"joints": {"torso_roll": {"frictions": {"coulomb": 0.3}}}},
     r"joints\['torso_roll'\] section 'frictions'"),
    ({"noise": {"current_sd": 0.0}}, "noise key 'current_sd'"),
    ({"contact": {"mu": 0.8, "friction": 0.8}}, "contact key 'friction'"),
])
def test_unknown_config_keys_are_rejected(kw, match):
    with pytest.raises(ValueError, match=match):
        ScenarioConfig(**kw)


# each of these used to end in an AttributeError ('list' object has no
# attribute 'items') or, for the events, a TypeError from `dataclasses`
@pytest.mark.parametrize("kw, label, what", [
    ({"joints": []}, "joints", "a mapping, got []"),
    ({"noise": []}, "noise", "a mapping, got []"),
    ({"contact": ["mu"]}, "contact", "a mapping, got ['mu']"),
    ({"joints": {"default": []}}, "joints['default']", "a mapping, got []"),
    ({"joints": {"default": {"motor": []}}}, "joints['default']['motor']",
     "a mapping, got []"),
    ({"disturbances": [5]}, "disturbances[0]",
     "a mapping or an event (Disturbance), got 5"),
    ({"object_events": [ObjectEvent(1.0, "left_sole", 0.03, "insert"),
                        Disturbance(1.0, 0.1, "torso_push")]},
     "object_events[1]", "a mapping or an event (ObjectEvent), got "
     "Disturbance("),
    # the event lists themselves: a number or None used to end in a
    # TypeError ('int' object is not iterable), and a mapping or a string
    # was read entry by entry, over its keys or its characters
    ({"disturbances": 5}, "disturbances", "a list or tuple, got 5"),
    ({"object_events": None}, "object_events", "a list or tuple, got None"),
    ({"disturbances": {"time": 1.0}}, "disturbances",
     "a list or tuple, got {'time': 1.0}"),
    ({"object_events": "ab"}, "object_events", "a list or tuple, got 'ab'"),
], ids=["joints", "noise", "contact", "joint", "section", "push", "object",
        "push-number", "object-none", "push-mapping", "object-string"])
def test_config_containers_that_are_not_mappings_are_rejected(kw, label,
                                                              what):
    with pytest.raises(ValueError) as exc:
        ScenarioConfig(**kw)
    assert str(exc.value).startswith(f"ScenarioConfig.{label} must be {what}")


# each of these used to end in a TypeError from the event's constructor
# that named neither the entry nor the field
@pytest.mark.parametrize("kw, message", [
    ({"disturbances": [{"time": 1.0, "duration": 0.1}]},
     "missing ScenarioConfig.disturbances[0] key 'frame'; required: time, "
     "duration, frame"),
    ({"disturbances": [Disturbance(1.0, 0.1, "torso_push"),
                       {"time": 1.0, "duration": 0.1, "frame": "torso_push",
                        "bogus": 1.0}]},
     "unknown ScenarioConfig.disturbances[1] key 'bogus'; known: time, "
     "duration, frame, force, torque"),
    ({"object_events": [{"time": 1.0, "height": 0.03}]},
     "missing ScenarioConfig.object_events[0] key 'frame', 'action'; "
     "required: time, frame, height, action"),
    ({"object_events": [{"time": 1.0, "frame": "left_sole", "height": 0.03,
                         "action": "insert", "bogus": 1.0}]},
     "unknown ScenarioConfig.object_events[0] key 'bogus'; known: time, "
     "frame, height, action, ramp, region"),
    # keys that do not sort together used to end in TypeError '<' not
    # supported between instances of 'str' and 'int'
    ({"object_events": [{"time": 1.0, "frame": "left_sole", "height": 0.03,
                         "action": "insert", "bogus": 1.0, 2: 0.0}]},
     "unknown ScenarioConfig.object_events[0] key 'bogus', 2; known: time, "
     "frame, height, action, ramp, region"),
], ids=["push-missing", "push-unknown", "object-missing", "object-unknown",
        "object-unsortable"])
def test_event_mappings_with_missing_or_unknown_keys_are_rejected(kw,
                                                                  message):
    with pytest.raises(ValueError) as exc:
        ScenarioConfig(**kw)
    assert str(exc.value) == message


# each of these used to build and then fail or misbehave in the loop: a
# numpy broadcast error, a NaN 'divergence' at the first steps, an
# IndexError in the metrics, a float-to-int error, a SeedSequence error,
# or (lock_base) a silently locked base
@pytest.mark.parametrize("field, value", [
    ("com_amplitude", (0.0, 0.01)), ("com_amplitude", (0.0, NAN, 0.0)),
    ("com_frequency", NAN), ("friction_smoothing", NAN), ("step", NAN),
    ("step", INF), ("duration", NAN), ("duration", INF), ("seed", 1.5),
    ("lock_base", "no"), ("gravity", (0.0, INF, -9.81)),
])
def test_scenario_fields_are_checked_at_construction(field, value):
    with pytest.raises(ValueError, match=rf"^ScenarioConfig\.{field} must be"):
        ScenarioConfig(**{field: value})
    # the checks leave the defaults, and so every config hash, as they were
    assert ScenarioConfig().config_hash() == "042d3125f3be1528"


# each of these used to build and then 'diverge' at the first step, warn
# in the contact kernel, or run as if nothing were wrong (a negative
# elastic stiffness or noise level, a fractional encoder)
@pytest.mark.parametrize("kw, key", [
    ({"joints": {"default": {"friction": {"coulomb": NAN}}}},
     r"joints\['default'\]\['friction'\]\['coulomb'\]"),
    ({"joints": {"torso_roll": {"motor": {"k_t": NAN}}}},
     r"joints\['torso_roll'\]\['motor'\]\['k_t'\]"),
    ({"joints": {"default": {"motor": {"reduction": 0.5}}}},
     r"joints\['default'\]\['motor'\]\['reduction'\]"),
    ({"joints": {"default": {"elasticity": {"stiffness": -1.0}}}},
     r"joints\['default'\]\['elasticity'\]\['stiffness'\]"),
    ({"contact": {"stiffness": NAN}}, r"contact\['stiffness'\]"),
    ({"contact": {"mu": -1.0}}, r"contact\['mu'\]"),
    ({"contact": {"damping": INF}}, r"contact\['damping'\]"),
    ({"noise": {"current_std": -1.0}}, r"noise\['current_std'\]"),
    ({"noise": {"joint_encoder_bits": 0}}, r"noise\['joint_encoder_bits'\]"),
    ({"noise": {"motor_encoder_bits": 2.5}},
     r"noise\['motor_encoder_bits'\]"),
    ({"noise": {"quantize": "yes"}}, r"noise\['quantize'\]"),
    # the motor settings `friction.MotorParams` checked a second time
    ({"joints": {"default": {"motor": {"k_t": 0.0}}}},
     r"joints\['default'\]\['motor'\]\['k_t'\]"),
    ({"joints": {"default": {"motor": {"reduction": NAN}}}},
     r"joints\['default'\]\['motor'\]\['reduction'\]"),
    ({"joints": {"default": {"motor": {"motor_inertia": -1e-6}}}},
     r"joints\['default'\]\['motor'\]\['motor_inertia'\]"),
    ({"joints": {"torso_roll": {"motor": {"reduction": 0.5}}}},
     r"joints\['torso_roll'\]\['motor'\]\['reduction'\]"),
    ({"joints": {"left_hip_roll": {"motor": {"motor_inertia": NAN}}}},
     r"joints\['left_hip_roll'\]\['motor'\]\['motor_inertia'\]"),
])
def test_joint_noise_and_contact_values_are_checked_at_construction(kw, key):
    with pytest.raises(ValueError, match=rf"^ScenarioConfig\.{key} must be"):
        ScenarioConfig(**kw)


def test_misspelt_joint_settings_are_rejected():
    # a misspelt joint name with a misspelt default key would otherwise
    # run every joint at the built-in friction without a message
    with pytest.raises(ValueError,
                       match=r"joints\['default'\]\['friction'\] key 'colomb'"):
        ScenarioConfig(joints={"left_hip_rol": {"friction": {"coulomb": 0.2}},
                               "default": {"friction": {"colomb": 0.3}}})
    with pytest.raises(ValueError, match="unknown joint 'left_hip_rol'"):
        ScenarioConfig(joints={"left_hip_rol": {"friction": {"coulomb": 0.2}},
                               "default": {"friction": {"coulomb": 0.3}}})


def test_per_joint_actuator_settings_resolve_and_validate():
    plant = make_plant(joints={
        "default": {"friction": {"coulomb": 0.8}},
        "torso_roll": {"friction": {"viscous": 0.2}}})
    j = plant.model.joint_names.index("torso_roll")
    # a named entry replaces "default"; each section merges over the
    # built-in defaults
    assert plant.scv[j] == ScvParams(1.0, 2.0, 0.1, 0.2)
    assert plant.scv[0] == ScvParams(0.8, 2.0, 0.1, 0.5)
    # the plant reads the table the config resolved
    assert plant.config.actuators["torso_roll"]["friction"]["viscous"] == 0.2
    assert list(plant.config.actuators) == plant.model.joint_names
    with pytest.raises(ValueError, match="motor inertia"):
        ScenarioConfig(joints={"torso_roll": {"motor": {"motor_inertia": 0.0}}})
    with pytest.raises(ValueError, match="friction_smoothing"):
        ScenarioConfig(friction_smoothing=-0.01)


# each of these used to build: the joint and event cases then made
# `Plant(config)` raise, as did the frame, action, region and remove
# cases of the event table below, and schema_version 99 ran
@pytest.mark.parametrize("kw, error, match", [
    ({"joints": {"nope": {}}}, ValueError, "unknown joint 'nope'"),
    ({"joints": {"default": {"friction": {"coulomb": 3.0}}}}, ValueError,
     r"joint 'left_hip_roll' has breakaway 2\.0 below its coulomb 3\.0"),
    ({"joints": {"torso_roll": {"friction": {"breakaway": 0.5}}}}, ValueError,
     r"joint 'torso_roll' has breakaway 0\.5 below its coulomb 1\.0"),
    # removed before it is inserted: the events are taken in time order
    ({"object_events": [ObjectEvent(2.0, "left_sole", 0.03, "insert"),
                        ObjectEvent(1.0, "left_sole", 0.03, "remove")]},
     ValueError, "object remove at t=1.0 with no object under left_sole"),
    ({"schema_version": 99}, ValueError,
     r"^ScenarioConfig\.schema_version must be 1, got 99"),
], ids=["joint", "breakaway-default", "breakaway-joint", "remove-first",
        "schema"])
def test_configs_the_plant_rejected_are_rejected_at_construction(kw, error,
                                                                 match):
    with pytest.raises(error, match=match):
        ScenarioConfig(**kw)
    with pytest.raises(error, match=match):
        dataclasses.replace(ScenarioConfig(), **kw)


def test_legacy_foot_key_is_refused_and_frame_is_written():
    event = {"time": 1.0, "frame": "right_sole", "height": 0.03,
             "action": "insert"}
    cfg = ScenarioConfig(seed=4, object_events=[event])
    written = cfg.to_dict()["object_events"][0]
    assert written["frame"] == "right_sole" and "foot" not in written
    legacy = {("foot" if k == "frame" else k): v for k, v in event.items()}
    with pytest.raises(ValueError, match=r"^unknown ScenarioConfig\."
                       r"object_events\[0\] key 'foot'; known: time, frame"):
        ScenarioConfig(object_events=[legacy])


@pytest.mark.parametrize("event, error, match", [
    (ObjectEvent(1.0, "left_foot", 0.03, "insert"), FrameError, "foot frame"),
    (ObjectEvent(1.0, "left_sole", 0.03, "lift"), ValueError, "action"),
    (ObjectEvent(1.0, "left_sole", 0.03, "insert", region="back"),
     ValueError, "region"),
    (ObjectEvent(1.0, "left_sole", -0.01, "insert"), ValueError, "nonnegative"),
    (ObjectEvent(1.0, "left_sole", 0.0, "remove"), ValueError, "no object"),
    (Disturbance(1.0, 0.1, "torso_psh"), FrameError, "unknown frame 'torso_psh'"),
    # each of these used to build: a NaN height or time silently left the
    # object out, a NaN push time never fired, a short force failed at
    # the push time with a numpy broadcast error
    (ObjectEvent(1.0, "left_sole", NAN, "insert"), ValueError,
     r"^ScenarioConfig\.object_events\[0\]\.height must be"),
    (ObjectEvent(NAN, "left_sole", 0.03, "insert"), ValueError,
     r"object_events\[0\]\.time must be finite"),
    (ObjectEvent(1.0, "left_sole", 0.03, "insert", ramp=-0.1), ValueError,
     r"object_events\[0\]\.ramp must be nonnegative"),
    (ObjectEvent(1.0, "left_sole", 0.03, "insert", ramp=INF), ValueError,
     r"object_events\[0\]\.ramp"),
    (Disturbance(NAN, 0.1, "torso_push"), ValueError,
     r"^ScenarioConfig\.disturbances\[0\]\.time must be finite"),
    (Disturbance(1.0, 0.0, "torso_push"), ValueError,
     r"disturbances\[0\]\.duration must be positive"),
    (Disturbance(1.0, INF, "torso_push"), ValueError,
     r"disturbances\[0\]\.duration"),
    (Disturbance(1.0, 0.1, "torso_push", (0.0, 20.0)), ValueError,
     r"disturbances\[0\]\.force must be 3 finite numbers"),
    (Disturbance(1.0, 0.1, "torso_push", torque=(0.0, NAN, 0.0)), ValueError,
     r"disturbances\[0\]\.torque must be 3 finite numbers"),
])
def test_config_object_events_are_checked_at_construction(event, error, match):
    kind = "disturbances" if isinstance(event, Disturbance) else "object_events"
    with pytest.raises(error, match=match):
        ScenarioConfig(**{kind: [event]})
    with pytest.raises(error, match=match):
        dataclasses.replace(ScenarioConfig(), **{kind: [event]})
    # the checks leave the defaults, and so every config hash, as they were
    assert ScenarioConfig().config_hash() == "042d3125f3be1528"


def test_partial_config_overrides_merge_with_defaults():
    cfg = ScenarioConfig(noise={"current_std": 0.0},
                         contact={"mu": 0.8})
    assert cfg.noise["current_std"] == 0.0
    assert cfg.noise["joint_encoder_bits"] == 12      # default preserved
    assert cfg.contact["mu"] == 0.8
    assert cfg.contact["stiffness"] == 2.0e4


def test_dict_events_are_converted_at_construction():
    cfg = ScenarioConfig(
        disturbances=[{"time": 0.0, "duration": 0.01, "frame": "torso_push",
                       "force": (0.0, 20.0, 0.0)}],
        object_events=[{"time": 0.0, "frame": "right_sole", "height": 0.01,
                        "action": "insert"}])
    assert isinstance(cfg.disturbances[0], Disturbance)
    assert isinstance(cfg.object_events[0], ObjectEvent)
    assert cfg.object_events[0].frame == "right_sole"
    plant = Plant(cfg)
    state = plant.initial_state()
    for _ in range(5):
        state, _ = plant.step(state, np.zeros(plant.n))
    assert np.all(np.isfinite(state.s))


def test_to_dict_is_a_copy():
    cfg = ScenarioConfig(
        disturbances=[Disturbance(1.0, 0.2, "torso_push", (0, 10, 0))],
        object_events=[ObjectEvent(1.0, "right_sole", 0.03, "insert")])
    d = cfg.to_dict()
    d["object_events"][0]["height"] = 9.0
    d["disturbances"][0]["time"] = 2.0
    d["noise"]["current_std"] = 1.0
    assert cfg.object_events[0].height == 0.03
    assert cfg.disturbances[0].time == 1.0
    assert cfg.noise["current_std"] == 0.005


@pytest.mark.parametrize("copy_of", [
    lambda cfg: pickle.loads(pickle.dumps(cfg)), copy.deepcopy],
    ids=["pickle", "deepcopy"])
def test_a_config_pickles_and_deep_copies(copy_of):
    # both used to raise "cannot pickle 'mappingproxy' object"
    cfg = ScenarioConfig(
        seed=3, joints={"torso_roll": {"friction": {"coulomb": 0.8}}},
        noise={"current_std": 0.01},
        disturbances=[Disturbance(1.0, 0.2, "torso_push", (0, 10, 0))],
        object_events=[ObjectEvent(1.0, "right_sole", 0.03, "insert")])
    twin = copy_of(cfg)
    assert twin == cfg and twin is not cfg
    assert twin.config_hash() == cfg.config_hash()
    assert twin.actuators == cfg.actuators
    with pytest.raises(TypeError):
        twin.noise["current_std"] = 1.0
    with pytest.raises(TypeError):
        twin.joints["torso_roll"]["friction"]["coulomb"] = 3.0
    with pytest.raises(TypeError):
        twin.actuators["torso_roll"]["motor"]["k_t"] = 1.0


def test_a_built_config_cannot_change():
    force, joints = [0.0, 10.0, 0.0], {"default": {"friction": {"coulomb": 0.8}}}
    cfg = ScenarioConfig(
        joints=joints, noise={"current_std": 0.01},
        disturbances=[Disturbance(1.0, 0.2, "torso_push", force)],
        object_events=[ObjectEvent(1.0, "right_sole", 0.03, "insert")])
    before = cfg.config_hash()
    # what the caller passed in stays theirs
    force[1] = 99.0
    joints["default"]["friction"]["coulomb"] = 3.0
    assert cfg.disturbances[0].force == (0.0, 10.0, 0.0)
    assert cfg.joints["default"]["friction"]["coulomb"] == 0.8
    edits = {
        "contact": lambda: operator.setitem(cfg.contact, "mu", -1.0),
        "noise": lambda: operator.setitem(cfg.noise, "current_std", -1.0),
        "noise-del": lambda: operator.delitem(cfg.noise, "current_std"),
        "joints": lambda: operator.setitem(cfg.joints, "torso_roll", {}),
        "joint-key": lambda: operator.setitem(
            cfg.joints["default"]["friction"], "coulomb", 3.0),
        "actuators": lambda: operator.setitem(
            cfg.actuators["torso_roll"]["motor"], "k_t", 0.0),
        "disturbances": lambda: cfg.disturbances.append(
            Disturbance(2.0, 0.1, "torso_push")),
        "disturbance": lambda: setattr(cfg.disturbances[0], "time", 0.0),
        "force": lambda: operator.setitem(cfg.disturbances[0].force, 0, 1e9),
        "object_events": lambda: cfg.object_events.append(
            ObjectEvent(2.0, "right_sole", 0.03, "remove")),
        "object_event": lambda: setattr(cfg.object_events[0], "height", 9.0),
        "gravity": lambda: operator.setitem(cfg.gravity, 2, 0.0),
        "actuators-field": lambda: setattr(cfg, "actuators", {}),
    }
    edits.update({f"field-{f.name}": (lambda name=f.name: setattr(
        cfg, name, getattr(ScenarioConfig(duration=0.1), name)))
        for f in dataclasses.fields(cfg)})
    for name, edit in edits.items():
        with pytest.raises((AttributeError, TypeError)):
            edit()
            pytest.fail(name)
    assert cfg.config_hash() == before
    assert cfg.contact["mu"] == 1.0 and cfg.noise["current_std"] == 0.01
    # a changed copy is a new config, checked as it is built
    with pytest.raises(ValueError, match=r"contact\['mu'\]"):
        dataclasses.replace(cfg, contact={**cfg.contact, "mu": -1.0})
    assert dataclasses.replace(cfg, duration=1.0).duration == 1.0


def count_evaluations(plant):
    """Wrap `plant._derivative`; the returned list grows by one per call."""
    calls = []
    derivative = plant._derivative

    def counted(*args):
        calls.append(args[0])
        return derivative(*args)

    plant._derivative = counted
    return calls


def changing_currents(k):
    # nonzero from the first step and different on every step
    freqs = np.array([0.7, 1.3, 2.1, 2.9, 1.1, 1.9, 0.5, 2.3])
    return 0.4 * np.sin(2 * np.pi * freqs * k * 1e-3 + 0.3)


PUSH_OBJECT = dict(
    disturbances=[{"time": 0.05, "duration": 0.1, "frame": "torso_push",
                   "force": (0.0, 30.0, 0.0)}],
    object_events=[{"time": 0.0, "frame": "right_sole", "height": 0.004,
                    "action": "insert", "region": "front"}])


@pytest.mark.parametrize("kw", [
    {}, {"lock_base": True}, PUSH_OBJECT,
], ids=["default", "locked_base", "push_object"])
def test_first_stage_is_exact_and_a_step_makes_four_evaluations(kw):
    plant = make_plant(seed=2, **kw)
    state = plant.initial_state(base_height=2.0 if kw.get("lock_base") else None)
    calls = count_evaluations(plant)
    worst = 0.0
    for k in range(200):
        currents = changing_currents(k)
        del calls[:]
        y, k1 = plant._first_stage(state, currents)
        # the evaluation that made the state, patched for the new currents
        assert len(calls) == 0
        fresh, _ = plant._derivative(state.t, y, state.base_R, currents)
        worst = max(worst, np.max(np.abs(k1 - fresh)) / np.max(np.abs(fresh)))
        del calls[:]
        new, _ = plant.step(state, currents)
        assert len(calls) == 4, k
        state = new
    assert worst <= 1e-12


def test_a_made_state_cannot_be_edited():
    # the next step reuses the evaluation the state was made with, so an
    # edit would step from numbers that evaluation was not made at
    plant = make_plant(seed=1)
    start = plant.initial_state()
    made, _ = plant.step(start, np.full(plant.n, 0.1))
    for state in (start, made):
        arrays = {f.name: getattr(state, f.name)
                  for f in dataclasses.fields(state)
                  if isinstance(getattr(state, f.name), np.ndarray)}
        # and the packed state, derivative and currents it was made with
        arrays.update(zip(("y", "ydot", "currents"), state._made[1:]))
        assert len(arrays) == 16
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0
                pytest.fail(name)
        for f in dataclasses.fields(state):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, f.name, None)
                pytest.fail(f.name)


def test_a_state_the_plant_did_not_make_is_refused_before_any_evaluation():
    plant, other = make_plant(seed=1), make_plant(seed=1)
    state = plant.initial_state()
    copies = {"replace": dataclasses.replace(state),
              "edited": dataclasses.replace(state, s=state.s + 0.05),
              "other-plant": other.initial_state()}
    calls = count_evaluations(plant)
    for name, copy in copies.items():
        with pytest.raises(ValueError, match=r"^Plant\.step takes only a "
                           r"state this plant made \(initial_state or step\)"):
            plant.step(copy, np.zeros(plant.n))
            pytest.fail(name)
    assert calls == []
    # a state that another plant made steps on that plant
    other.step(copies["other-plant"], np.zeros(plant.n))


def test_currents_edited_in_place_after_a_step():
    # a caller may reuse one currents array; the stored evaluation keeps
    # the currents it was made under, not a view of the caller's array
    plant = make_plant(seed=1)
    start = plant.initial_state()
    reused = np.full(plant.n, 0.1)
    a, _ = plant.step(start, reused)
    reused[:] = 0.3
    a, _ = plant.step(a, reused)
    b, _ = plant.step(start, np.full(plant.n, 0.1))
    b, _ = plant.step(b, np.full(plant.n, 0.3))
    assert np.array_equal(a.sdot, b.sdot)
    assert np.array_equal(a.motor_vel, b.motor_vel)
