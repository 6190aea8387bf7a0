"""The batched forward pass and contact kernel against per-link references.

`reference_dynamics` holds the recursions the pass replaced.  Every
quantity the pass yields must match them to 1e-12 relative on random
states, over models that exercise branching trees, rotated joint
origins, tilted joint axes, rotated inertial frames and zero dofs.
"""

import numpy as np
import pytest

from chains import pendulum, serial_leg, two_link_arm
import reference_dynamics as ref
from reference_spatial import apply, motion_matrix
from torquesense import dynamics
from torquesense.model import FOOT_CORNERS, RobotModel, desk_biped
from torquesense.plant import ObjectEvent, Plant, ScenarioConfig
from torquesense.spatial import Transform, exp_so3

TOL = 1e-12


def rotated(rotation_vector, inertia):
    """A principal-axes inertia turned into link axes."""
    R = exp_so3(rotation_vector)
    return R @ np.asarray(inertia, dtype=float) @ R.T


def joint_origin(rotation_vector, offset):
    return Transform(exp_so3(rotation_vector), offset)


def mixed_model():
    """A branch off the base (mount/tail), rotated joint origins, tilted
    axes and inertias in rotated frames, in an order where a row's parent
    is not always the row before it."""
    model = RobotModel([
        ("base", None, None, None, None, 4.0, (0.01, -0.02, 0.03),
         rotated([0.1, 0.2, 0.3], [[0.05, 0.002, -0.001], [0.002, 0.04, 0.0],
                                   [-0.001, 0.0, 0.03]])),
        ("mount", "bolt", "base", joint_origin([0.3, 0.0, -0.2], [0.0, 0.1, 0.05]),
         (0.0, 0.0, 1.0), 0.5, (0.0, 0.0, 0.02), 0.001 * np.eye(3)),
        ("tail", "wag", "base", joint_origin([0.0, 0.0, 0.0], [-0.15, 0.0, 0.0]),
         (0.0, 0.0, 1.0), 0.7, (-0.1, 0.0, 0.0), np.diag([0.001, 0.003, 0.003])),
        ("arm", "shoulder", "mount", joint_origin([0.0, 0.5, 0.0], [0.05, 0.0, 0.0]),
         (0.6, 0.0, 0.8), 1.2, (0.1, 0.0, 0.0),
         rotated([0.0, 0.3, 0.0], [[0.002, 0.0, 0.0], [0.0, 0.01, 0.0005],
                                   [0.0, 0.0005, 0.011]])),
        ("hand", "wrist", "arm", joint_origin([-0.4, 0.0, 0.1], [0.2, 0.0, 0.0]),
         (0.0, 0.6, -0.8), 0.3, (0.03, 0.01, 0.0), np.diag([0.0004, 0.0005, 0.0006])),
    ])
    model.add_frame("tip", "hand", Transform(exp_so3([0.2, -0.3, 0.1]),
                                             [0.05, 0.01, -0.02]))
    return model


def rigid_model():
    """The base alone: zero dofs, its center of mass off the frame origin."""
    return RobotModel([("base", None, None, None, None, 3.0, (0.05, 0.02, 0.0),
                        rotated([0.0, 0.0, 0.7], [0.1, 0.2, 0.2] * np.eye(3)))])


MODELS = {
    "desk_biped": desk_biped,
    "pendulum": pendulum,
    "two_link": two_link_arm,
    "serial_leg": serial_leg,
    "rigid": rigid_model,
    "mixed": mixed_model,
}


def close(a, b, tol=TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(b)), 1e-300)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= tol * scale


def random_states(model, count=4, seed=0):
    r = np.random.default_rng(seed)
    for _ in range(count):
        pose = Transform(exp_so3(0.5 * r.normal(size=3)), r.normal(size=3))
        yield (pose, r.uniform(-1.5, 1.5, model.ndof), r.normal(size=model.nv),
               r.normal(size=model.nv))


def frames_of(model):
    return list(model.sensor_frames) + [link.name for link in model.links]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pass_matches_per_link_recursions(name):
    model = MODELS[name]()
    frames = frames_of(model)
    r = np.random.default_rng(1)
    for pose, s, nu, accel in random_states(model):
        fp = dynamics.forward_pass(model, pose, s, nu)
        assert close(dynamics.crba(fp), ref.crba(model, s))
        wrenches = [(f, r.normal(size=6)) for f in r.choice(frames, 2)]
        link_wrenches = ref.link_wrenches(fp, wrenches)
        assert close(fp.inverse_dynamics(accel, link_wrenches),
                     ref.generalized_rnea(model, pose, s, nu, accel, wrenches))
        assert close(fp.inverse_dynamics(None, link_wrenches),
                     ref.coriolis_bias(model, pose, s, nu, wrenches))
        assert close(fp.inverse_dynamics(), ref.coriolis_bias(model, pose, s, nu))

        world, vels = ref.link_states(model, pose, s, nu)
        for H_ref, v_ref, H, v in zip(world, vels, fp.H, fp.v):
            assert close(H, H_ref.homogeneous())
            # body-frame velocity -> world frame, world origin
            assert close(v, motion_matrix(H_ref) @ v_ref)
        for frame, J in zip(frames, dynamics.frame_jacobian(fp, frames)):
            assert close(J, ref.frame_jacobian(model, pose, s, frame))
        assert close(dynamics.com_velocity(fp), ref.com_velocity(model, pose, s, nu))
        com = sum(l.mass * apply(H, l.com) for l, H in zip(model.links, world))
        assert close(dynamics.com_position(fp), com / model.total_mass)


def test_stacked_frame_jacobian_matches_per_frame_reference():
    # the frames the torque filter and the balancer stack in one call
    model = desk_biped()
    frames = ("left_foot_ft", "right_foot_ft", "torso_push",
              "left_sole", "right_sole")
    for pose, s, nu, _ in random_states(model, seed=2):
        J = dynamics.frame_jacobian(
            dynamics.forward_pass(model, pose, s, nu), frames)
        assert J.shape == (len(frames), 6, model.nv)
        for frame, J_frame in zip(frames, J):
            assert close(J_frame, ref.frame_jacobian(model, pose, s, frame))


def contact_plant(object_events=(), **contact):
    return Plant(ScenarioConfig(contact=contact,
                                object_events=list(object_events)))


def sole_wrenches(plant, fp, wrenches):
    """The sole-frame contact wrenches a state takes from the pass `fp`
    and the `_contacts` link wrenches."""
    soles = wrenches[plant._sole_links]
    return plant._truth({"fp": fp, "soles": soles})["contact_wrenches"]


def contact_states(plant, count=6, seed=3):
    """States with some sole corners in the ground, moving."""
    r = np.random.default_rng(seed)
    st = plant.initial_state()
    for _ in range(count):
        pose = Transform(exp_so3(0.03 * r.normal(size=3)),
                         st.base_pos + [0.0, 0.0, r.uniform(-0.004, 0.003)])
        s = st.s + 0.05 * r.normal(size=plant.n)
        nu = 0.05 * r.normal(size=6 + plant.n)
        yield pose, s, nu


@pytest.mark.parametrize("case", ["default", "front_object"])
def test_contact_kernel_matches_corner_loop(case):
    if case == "default":
        plant = contact_plant()
    else:
        plant = contact_plant(mu=0.6, object_events=[ObjectEvent(
            0.0, "right_sole", 0.004, "insert", region="front")])
    t = 0.1
    seen = {"touch": 0, "clipped": 0}
    for pose, s, nu in contact_states(plant):
        world, vels = ref.link_states(plant.model, pose, s, nu)
        fp = dynamics.forward_pass(plant.model, pose, s, nu)
        wrenches = plant._contacts(t, fp)
        contacts = sole_wrenches(plant, fp, wrenches)
        expected = ref.contact_wrenches(plant, t, world, vels, seen)
        # row by row, so a lifted sole's row must be exactly zero
        for got, want in zip(contacts, expected):
            assert close(got, want)
        # the world-origin wrenches are the sole wrenches moved to the origin
        assert close(wrenches, ref.link_wrenches(
            fp, zip(plant.model.sole_frames, expected)))
    # the friction cone clipped some touching corners and not others
    assert 0 < seen["clipped"] < seen["touch"], seen

    # airborne: no corner below the ground, every row an exact zero
    for pose, s, nu in contact_states(plant, count=3, seed=4):
        lifted = Transform(pose.R, pose.p + [0.0, 0.0, 0.02])
        assert np.max(corner_penetrations(plant, t, lifted, s)) < 0.0
        fp = dynamics.forward_pass(plant.model, lifted, s, nu)
        assert not np.any(plant._contacts(t, fp))
    # one corner 0.1 mm below the ground, at rest: its sole alone gets a
    # force, as the corner loop gives it
    pose, s, _ = next(contact_states(plant, count=1, seed=5))
    nu = np.zeros(6 + plant.n)
    pen = corner_penetrations(plant, t, pose, s)
    assert np.sort(pen)[-2] < np.max(pen) - 1e-4
    pose = Transform(pose.R, pose.p + [0.0, 0.0, np.max(pen) - 1e-4])
    one = {"touch": 0, "clipped": 0}
    world, vels = ref.link_states(plant.model, pose, s, nu)
    expected = ref.contact_wrenches(plant, t, world, vels, one)
    assert one["touch"] == 1
    fp = dynamics.forward_pass(plant.model, pose, s, nu)
    got = sole_wrenches(plant, fp, plant._contacts(t, fp))
    for got_row, want in zip(got, expected):
        assert close(got_row, want)
    assert np.count_nonzero(np.any(got != 0.0, axis=1)) == 1


def corner_penetrations(plant, t, pose, s):
    """Depth below the ground of every sole corner, sole by sole."""
    world, _ = ref.link_states(plant.model, pose, s, np.zeros(6 + plant.n))
    depths = []
    for frame in plant.model.sole_frames:
        idx, offset = plant.model.frame(frame)
        for corner in FOOT_CORNERS:
            height = apply(world[idx], apply(offset, corner))[2]
            depths.append(plant.ground_height(frame, t, corner[0]) - height)
    return np.array(depths)


def run_both(config, steps=200):
    plants = [Plant(config), ref.ReferencePlant(config)]
    height = 2.0 if config.lock_base else None
    states = [p.initial_state(base_height=height) for p in plants]
    for k in range(steps):
        currents = 0.4 * np.sin(2 * np.pi * np.array([0.7, 1.3, 2.1, 2.9, 1.1,
                                                      1.9, 0.5, 2.3]) * k * 1e-3)
        states = [p.step(st, currents)[0] for p, st in zip(plants, states)]
    return states


@pytest.mark.parametrize("config", [
    ScenarioConfig(seed=2),
    ScenarioConfig(seed=2, lock_base=True),
    ScenarioConfig(seed=2,
                   disturbances=[{"time": 0.05, "duration": 0.1,
                                  "frame": "torso_push",
                                  "force": (0.0, 30.0, 0.0)}],
                   object_events=[{"time": 0.0, "frame": "right_sole",
                                   "height": 0.004, "action": "insert",
                                   "region": "front"}]),
], ids=["default", "locked_base", "push_object"])
def test_steps_through_pass_match_reference_plant(config):
    new, old = run_both(config)
    for field in ("base_pos", "base_R", "base_twist", "s", "sdot", "motor_pos",
                  "motor_vel", "tau", "tau_friction", "base_prop_acc",
                  "joint_acc", "com"):
        assert close(getattr(new, field), getattr(old, field), 1e-9), field
    for got, want in zip(new.contact_wrenches, old.contact_wrenches):
        assert close(got, want, 1e-9)


PUSH = [{"time": 0.0, "duration": 1.0, "frame": "torso_push",
         "force": (10.0, 30.0, -5.0), "torque": (1.0, -2.0, 0.5)}]


def evaluation_states(plant, lift, count=12, seed=7):
    """(t, y, R0, currents) at seeded random packed states near the
    standing pose, with the base `lift` m higher: every part of y is
    moving, the attitude has an offset R0 and a rotation vector."""
    r = np.random.default_rng(seed)
    n = plant.n
    y0, _ = plant._first_stage(plant.initial_state(), np.zeros(n))
    for _ in range(count):
        y = y0.copy()
        y[2] += lift + r.uniform(-0.003, 0.002)
        y[3:6] = 0.03 * r.normal(size=3)
        y[6:12] = 0.1 * r.normal(size=6)
        y[12:12 + n] += 0.05 * r.normal(size=n)
        y[12 + n:12 + 2 * n] = r.normal(size=n)
        y[12 + 2 * n:12 + 3 * n] = y[12:12 + n] + 0.01 * r.normal(size=n)
        y[12 + 3 * n:] = r.normal(size=n)
        yield 0.5, y, exp_so3(0.02 * r.normal(size=3)), r.normal(size=n)


@pytest.mark.parametrize("case", ["free_push", "locked_base", "airborne"])
def test_one_evaluation_matches_reference_plant(case):
    # the whole evaluation, not only the pass and the contact kernel:
    # the derivative and every truth field the state takes from it
    config = ScenarioConfig(seed=2, lock_base=case == "locked_base",
                            disturbances=PUSH if case == "free_push" else [])
    lift = {"free_push": 0.0, "locked_base": 1.5, "airborne": 0.05}[case]
    plant, oracle = Plant(config), ref.ReferencePlant(config)
    seen = {"touch": 0, "clipped": 0}
    for t, y, R0, currents in evaluation_states(plant, lift):
        got, info = plant._derivative(t, y, R0, currents)
        want, ref_info = oracle._derivative(t, y, R0, currents)
        assert close(got, want)
        for H, H_ref in zip(info["fp"].H, ref_info["world"]):
            assert close(H, H_ref.homogeneous())
        truth, ref_truth = plant._truth(info), oracle._truth(ref_info)
        assert truth.keys() == ref_truth.keys()
        for field in truth:
            assert close(truth[field], ref_truth[field]), field
        # count the touching and the clipped corners
        n = plant.n
        pose = Transform(R0 @ exp_so3(y[3:6]), y[:3])
        nu = np.concatenate([y[6:12], y[12 + n:12 + 2 * n]])
        world, vels = ref.link_states(plant.model, pose, y[12:12 + n], nu)
        ref.contact_wrenches(plant, t, world, vels, seen)
        assert bool(ref.disturbance_wrenches(plant, t, world)) == (
            case == "free_push")
    if case == "free_push":
        # the friction cone clipped some touching corners and not others
        assert 0 < seen["clipped"] < seen["touch"], seen
    else:
        assert seen["touch"] == 0
