"""Ground-truth simulator: determinism, sensors, events, contact."""

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
from torquesense.spatial import exp_so3

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
        for k in a.ft:
            assert np.array_equal(a.ft[k], b.ft[k])


def test_initial_contact_forces_carry_the_weight():
    plant = make_plant()
    state = plant.initial_state()
    weight = plant.model.total_mass * 9.81
    fz = sum(state.contact_wrenches[f][2] for f in plant.sole_frames)
    assert abs(fz - weight) < 0.005 * weight
    # still true after a short free settling interval
    state, _ = run_steps(plant, 300)
    fz = sum(state.contact_wrenches[f][2] for f in plant.sole_frames)
    assert abs(fz - weight) < 0.005 * weight


def test_sensors_exact_with_noise_off():
    plant = make_plant(noise=QUIET_NOISE)
    state, bundles = run_steps(plant, 10)
    b = bundles[-1]
    assert np.array_equal(b.joint_pos, state.s)
    assert np.array_equal(b.motor_pos, state.motor_pos)
    assert np.array_equal(b.currents, np.zeros(plant.n))
    for sole, ftf in zip(plant.sole_frames, plant.ft_frames):
        assert np.array_equal(b.ft[ftf], state.contact_wrenches[sole])


def test_encoder_quantization_grid():
    plant = make_plant()
    state, bundles = run_steps(plant, 5)
    b = bundles[-1]
    assert np.allclose(b.joint_pos,
                       np.round(state.s / plant.lsb_joint) * plant.lsb_joint)
    assert np.allclose(b.motor_pos,
                       np.round(state.motor_pos / plant.lsb_motor) * plant.lsb_motor)


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
        acc[k] = b.imu_acc["waist_imu"][0]
        fz[k] = b.ft["left_foot_ft"][0]
    noise = plant.config.noise
    assert abs(np.std(cur) - noise["current_std"]) < 0.05 * noise["current_std"]
    assert abs(np.std(acc) - noise["imu_acc_std"]) < 0.05 * noise["imu_acc_std"]
    assert abs(np.std(fz) - noise["ft_force_std"]) < 0.05 * noise["ft_force_std"]


def test_event_validation():
    plant = make_plant()
    with pytest.raises(FrameError):
        plant.schedule_disturbance(np.zeros(6), "nonexistent", 1.0, 0.1)
    with pytest.raises(FrameError):
        plant.schedule_object_event("nonexistent", 0.03, "insert", 1.0)
    with pytest.raises(ValueError, match="action"):
        plant.schedule_object_event("left_sole", 0.03, "wiggle", 1.0)
    with pytest.raises(ValueError, match="region"):
        plant.schedule_object_event("left_sole", 0.03, "insert", 1.0,
                                    region="back")
    with pytest.raises(ValueError, match="no object"):
        plant.schedule_object_event("left_sole", 0.0, "remove", 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        plant.schedule_object_event("left_sole", -0.01, "insert", 1.0)
    with pytest.raises(ValueError, match="positive"):
        ScenarioConfig(step=0.0)


def test_sensors_sample_every_step():
    plant = make_plant(step=2e-3)
    _, bundles = run_steps(plant, 2)
    assert [b.t for b in bundles] == [0.002, 0.004]


def test_ground_height_profile():
    plant = make_plant()
    plant.schedule_object_event("right_sole", 0.03, "insert", 1.0)
    plant.schedule_object_event("right_sole", 0.03, "remove", 3.0)
    assert plant.ground_height("right_sole", 0.5) == 0.0
    # insertion ramps over the default 0.25 s
    assert plant.ground_height("right_sole", 1.125) == pytest.approx(0.015)
    assert plant.ground_height("right_sole", 2.0) == pytest.approx(0.03)
    # removal is instantaneous
    assert plant.ground_height("right_sole", 3.0) == 0.0
    assert plant.ground_height("left_sole", 2.0) == 0.0


def test_forefoot_region_only_raises_front_corners():
    plant = make_plant()
    plant.schedule_object_event("right_sole", 0.02, "insert", 0.5,
                                region="front")
    assert plant.ground_height("right_sole", 2.0, x_local=0.10) == pytest.approx(0.02)
    assert plant.ground_height("right_sole", 2.0, x_local=-0.06) == 0.0


def test_zero_magnitude_events_do_not_change_trajectory():
    base_state, base_b = run_steps(make_plant(seed=5), 300)

    p1 = make_plant(seed=5)
    p1.schedule_disturbance(np.zeros(6), "torso_push", 0.05, 0.1)
    s1, b1 = run_steps(p1, 300)
    assert np.array_equal(s1.base_pos, base_state.base_pos)
    assert np.array_equal(s1.s, base_state.s)

    p2 = make_plant(seed=5)
    p2.schedule_object_event("right_sole", 0.0, "insert", 0.05)
    s2, _ = run_steps(p2, 300)
    assert np.array_equal(s2.base_pos, base_state.base_pos)
    assert np.array_equal(s2.s, base_state.s)


def test_disturbance_pushes_the_base():
    p = make_plant(seed=5)
    p.schedule_disturbance(np.array([0.0, 60.0, 0.0, 0.0, 0.0, 0.0]),
                           "torso_push", 0.02, 0.2)
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


def test_scenario_config_round_trip_and_hash():
    cfg = ScenarioConfig(
        seed=4, duration=2.0,
        disturbances=[Disturbance(1.0, 0.2, "torso_push", (0, 10, 0))],
        object_events=[ObjectEvent(1.0, "right_sole", 0.03, "insert",
                                   region="front")])
    back = ScenarioConfig.from_dict(cfg.to_dict())
    assert back.config_hash() == cfg.config_hash()
    assert isinstance(back.disturbances[0], Disturbance)
    assert isinstance(back.object_events[0], ObjectEvent)
    other = ScenarioConfig(seed=5, duration=2.0)
    assert other.config_hash() != cfg.config_hash()


def test_legacy_elastic_transmission_key():
    # the elastic transmission is the plant's only one
    assert ScenarioConfig.from_dict({"elastic_transmission": True}) \
        == ScenarioConfig()
    with pytest.raises(ValueError, match="^elastic_transmission: false"):
        ScenarioConfig.from_dict({"elastic_transmission": False})


def test_legacy_tangential_stiffness_key():
    # files written before the stick-spring contact was removed carry
    # its stiffness at 0.0, which is the contact the plant models
    written = ScenarioConfig().to_dict()
    written["contact"]["tangential_stiffness"] = 0.0
    assert ScenarioConfig.from_dict(written) == ScenarioConfig()
    assert "tangential_stiffness" in written["contact"]
    stick = {"contact": {"tangential_stiffness": 4000.0}}
    with pytest.raises(ValueError, match="contact key 'tangential_stiffness'"):
        ScenarioConfig.from_dict(stick)
    with pytest.raises(ValueError, match="contact key 'tangential_stiffness'"):
        ScenarioConfig(**stick)


@pytest.mark.parametrize("kw, match", [
    ({"joints": {"torso_roll": {"frictions": {"coulomb": 0.3}}}},
     r"joints\['torso_roll'\] section 'frictions'"),
    ({"noise": {"current_sd": 0.0}}, "noise key 'current_sd'"),
    ({"contact": {"mu": 0.8, "friction": 0.8}}, "contact key 'friction'"),
])
def test_unknown_config_keys_are_rejected(kw, match):
    with pytest.raises(ValueError, match=match):
        ScenarioConfig(**kw)


def test_misspelt_joint_settings_are_rejected():
    # a misspelt joint name with a misspelt default key would otherwise
    # run every joint at the built-in friction without a message
    with pytest.raises(ValueError,
                       match=r"joints\['default'\]\['friction'\] key 'colomb'"):
        ScenarioConfig(joints={"left_hip_rol": {"friction": {"coulomb": 0.2}},
                               "default": {"friction": {"colomb": 0.3}}})
    cfg = ScenarioConfig(joints={"left_hip_rol": {"friction": {"coulomb": 0.2}},
                                 "default": {"friction": {"coulomb": 0.3}}})
    with pytest.raises(ValueError, match="unknown joint 'left_hip_rol'"):
        Plant(cfg)


def test_per_joint_actuator_settings_resolve_and_validate():
    plant = make_plant(joints={
        "default": {"friction": {"coulomb": 0.8}},
        "torso_roll": {"friction": {"viscous": 0.2}}})
    j = plant.model.joint_names.index("torso_roll")
    # a named entry replaces "default"; each section merges over the
    # built-in defaults
    assert plant.scv[j] == ScvParams(1.0, 2.0, 0.1, 0.2)
    assert plant.scv[0] == ScvParams(0.8, 2.0, 0.1, 0.5)
    with pytest.raises(ValueError, match="motor inertia"):
        make_plant(joints={"torso_roll": {"motor": {"motor_inertia": 0.0}}})
    with pytest.raises(ValueError, match="breakaway"):
        make_plant(joints={"default": {"friction": {"coulomb": 3.0}}})
    with pytest.raises(ValueError, match="friction_smoothing"):
        ScenarioConfig(friction_smoothing=-0.01)


def test_legacy_foot_key_loads_and_frame_is_written():
    legacy = {"time": 1.0, "foot": "right_sole", "height": 0.03,
              "action": "insert"}
    d = {"seed": 4, "object_events": [legacy]}
    cfg = ScenarioConfig.from_dict(d)
    assert d["object_events"][0] is legacy and "frame" not in legacy
    ev = cfg.object_events[0]
    assert isinstance(ev, ObjectEvent)
    assert ev.frame == "right_sole"
    written = cfg.to_dict()["object_events"][0]
    assert written["frame"] == "right_sole"
    assert "foot" not in written
    with pytest.raises(ValueError, match="'frame'.*'foot'"):
        ScenarioConfig.from_dict(
            {"object_events": [dict(legacy, frame="right_sole")]})


@pytest.mark.parametrize("event, error, match", [
    (ObjectEvent(1.0, "left_foot", 0.03, "insert"), FrameError, "foot frame"),
    (ObjectEvent(1.0, "left_sole", 0.03, "lift"), ValueError, "action"),
    (ObjectEvent(1.0, "left_sole", 0.03, "insert", region="back"),
     ValueError, "region"),
    (ObjectEvent(1.0, "left_sole", -0.01, "insert"), ValueError, "nonnegative"),
])
def test_config_object_events_are_checked_at_construction(event, error, match):
    with pytest.raises(error, match=match):
        Plant(ScenarioConfig(object_events=[event]))


def test_rejected_object_event_is_not_kept():
    plant = make_plant()
    late = plant.schedule_object_event("left_sole", 0.03, "insert", 2.0)
    early = plant.schedule_object_event("right_sole", 0.02, "insert", 1.0)
    assert early.frame == "right_sole" and late.frame == "left_sole"
    with pytest.raises(ValueError, match="no object"):
        plant.schedule_object_event("left_sole", 0.0, "remove", 0.5)
    assert plant.object_events == [early, late]


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
        object_events=[{"time": 0.0, "foot": "right_sole", "height": 0.01,
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
        y = plant._pack(state)
        fresh, _ = plant._derivative(state.t, y, state.base_R, currents)
        del calls[:]
        k1 = plant._first_stage(state, y, currents)
        # the stored evaluation, patched for the new currents
        assert len(calls) == 0
        worst = max(worst, np.max(np.abs(k1 - fresh)) / np.max(np.abs(fresh)))
        del calls[:]
        new, _ = plant.step(state, currents)
        assert len(calls) == 4, k
        state = new
    assert worst <= 1e-12


def edit_base_height(state):
    state.base_pos[2] = 2.0


def edit_joint(state):
    state.s[1] += 0.05


def edit_attitude_in_place(state):
    state.base_R[:] = state.base_R @ exp_so3(np.array([0.0, 0.05, 0.1]))


@pytest.mark.parametrize("edit, kw", [
    (edit_base_height, {"lock_base": True}),
    (edit_joint, {}),
    (edit_attitude_in_place, {}),
], ids=["base_height", "joint", "attitude"])
def test_edited_state_is_evaluated_afresh(edit, kw):
    # the evaluation stored on a state serves the next step's first stage
    # only while the state is the one it was made at
    plant = make_plant(seed=1, **kw)
    edited, stripped = plant.initial_state(), plant.initial_state()
    for state in (edited, stripped):
        edit(state)
    del stripped._info
    currents = np.zeros(plant.n)
    a, _ = plant.step(edited, currents)
    b, _ = plant.step(stripped, currents)
    for name in ("base_pos", "base_R", "base_twist", "s", "sdot", "motor_pos",
                 "motor_vel", "tau", "tau_friction", "joint_acc"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y))), name


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
