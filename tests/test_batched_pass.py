"""The batched forward pass and contact kernel against per-link references.

`reference_dynamics` holds the recursions the pass replaced.  Every
quantity the pass yields must match them to 1e-12 relative on random
states, over models that exercise branching trees, fixed joints, a
rotated root-joint origin, tilted joint axes and zero dofs.
"""

import numpy as np
import pytest

from chains import pendulum_urdf, serial_leg_urdf, two_link_arm_urdf
import reference_dynamics as ref
from torquesense import dynamics
from torquesense.model import parse_model
from torquesense.models import desk_biped
from torquesense.plant import Plant, ScenarioConfig
from torquesense.spatial import Transform, exp_so3

TOL = 1e-12

# a fixed joint with a rotated origin, a rotated root-joint origin (which
# the dynamics ignore: link 0 sits at the base pose), tilted axes, a
# branch off the base and rotated inertial frames
MIXED_URDF = """
<robot name="mixed">
  <link name="base">
    <inertial><origin xyz="0.01 -0.02 0.03" rpy="0.1 0.2 0.3"/><mass value="4"/>
      <inertia ixx="0.05" iyy="0.04" izz="0.03" ixy="0.002" ixz="-0.001"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="base"/>
    <origin xyz="0.1 -0.2 0.3" rpy="0.2 -0.1 0.4"/></joint>
  <link name="mount">
    <inertial><origin xyz="0 0 0.02"/><mass value="0.5"/>
      <inertia ixx="0.001" iyy="0.001" izz="0.001"/></inertial>
  </link>
  <joint name="bolt" type="fixed"><parent link="base"/><child link="mount"/>
    <origin xyz="0 0.1 0.05" rpy="0.3 0 -0.2"/></joint>
  <link name="arm">
    <inertial><origin xyz="0.1 0 0" rpy="0 0.3 0"/><mass value="1.2"/>
      <inertia ixx="0.002" iyy="0.01" izz="0.011" iyz="0.0005"/></inertial>
  </link>
  <joint name="shoulder" type="revolute"><parent link="mount"/><child link="arm"/>
    <origin xyz="0.05 0 0" rpy="0 0.5 0"/><axis xyz="0.6 0 0.8"/></joint>
  <link name="hand">
    <inertial><origin xyz="0.03 0.01 0"/><mass value="0.3"/>
      <inertia ixx="0.0004" iyy="0.0005" izz="0.0006"/></inertial>
  </link>
  <joint name="wrist" type="revolute"><parent link="arm"/><child link="hand"/>
    <origin xyz="0.2 0 0" rpy="-0.4 0 0.1"/><axis xyz="0 0.6 -0.8"/></joint>
  <link name="tail">
    <inertial><origin xyz="-0.1 0 0"/><mass value="0.7"/>
      <inertia ixx="0.001" iyy="0.003" izz="0.003"/></inertial>
  </link>
  <joint name="wag" type="revolute"><parent link="base"/><child link="tail"/>
    <origin xyz="-0.15 0 0"/><axis xyz="0 0 1"/></joint>
</robot>"""

# zero dofs, two links: the base and a bolted-on block
RIGID_URDF = """
<robot name="rigid">
  <link name="base">
    <inertial><mass value="2"/><inertia ixx="0.1" iyy="0.1" izz="0.1"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="base"/></joint>
  <link name="block">
    <inertial><origin xyz="0.05 0 0"/><mass value="1"/>
      <inertia ixx="0.01" iyy="0.02" izz="0.02"/></inertial>
  </link>
  <joint name="bolt" type="fixed"><parent link="base"/><child link="block"/>
    <origin xyz="0.2 0.1 0" rpy="0 0 0.7"/></joint>
</robot>"""


def mixed_model():
    model = parse_model(MIXED_URDF)
    model.add_frame("tip", "hand", Transform(exp_so3([0.2, -0.3, 0.1]),
                                             [0.05, 0.01, -0.02]))
    return model


MODELS = {
    "desk_biped": desk_biped,
    "pendulum": lambda: parse_model(pendulum_urdf()),
    "two_link": lambda: parse_model(two_link_arm_urdf()),
    "serial_leg": lambda: parse_model(serial_leg_urdf()),
    "rigid": lambda: parse_model(RIGID_URDF),
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
        assert close(fp.mass_matrix(), ref.crba(model, s))
        assert close(dynamics.crba(model, s), ref.crba(model, s))
        wrenches = [(f, r.normal(size=6)) for f in r.choice(frames, 2)]
        assert close(dynamics.generalized_rnea(model, pose, s, nu, accel, wrenches),
                     ref.generalized_rnea(model, pose, s, nu, accel, wrenches))
        assert close(dynamics.coriolis_bias(model, pose, s, nu, wrenches),
                     ref.coriolis_bias(model, pose, s, nu, wrenches))
        assert close(fp.inverse_dynamics(), ref.coriolis_bias(model, pose, s, nu))

        world, vels = ref.link_states(model, pose, s, nu)
        for H_ref, v_ref, H, v in zip(world, vels, fp.H, fp.v):
            assert close(H, H_ref.homogeneous())
            # body-frame velocity -> world frame, world origin
            assert close(v, H_ref.motion_matrix() @ v_ref)
        assert close(np.array([T.homogeneous() for T in
                               dynamics.forward_kinematics(model, pose, s)]),
                     np.array([T.homogeneous() for T in world]))
        for frame in frames:
            assert close(fp.frame_jacobian(frame),
                         ref.frame_jacobian(model, pose, s, frame))
        assert close(fp.com_velocity(), ref.com_velocity(model, pose, s, nu))
        assert close(dynamics.com_velocity(model, pose, s, nu),
                     ref.com_velocity(model, pose, s, nu))
        com = sum(l.mass * H.apply(l.com) for l, H in zip(model.links, world))
        assert close(fp.com_position(), com / model.total_mass)
        assert close(dynamics.com_position(model, pose, s), com / model.total_mass)


def contact_plant(**contact):
    return Plant(ScenarioConfig(contact=contact))


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
        plant = contact_plant(mu=0.6)
        plant.schedule_object_event("right_sole", 0.004, "insert", 0.0,
                                    region="front")
    t = 0.1
    seen = {"touch": 0, "clipped": 0}
    for pose, s, nu in contact_states(plant):
        world, vels = ref.link_states(plant.model, pose, s, nu)
        fp = dynamics.forward_pass(plant.model, pose, s, nu)
        contacts, wrenches = plant._contacts(t, fp)
        expected = ref.contact_wrenches(plant, t, world, vels, seen)
        assert contacts.keys() == expected.keys()
        for frame, w in expected.items():
            assert close(contacts[frame], w)
        # the world-origin wrenches are the sole wrenches moved to the origin
        applied = fp.link_wrenches(expected.items())
        assert close(wrenches, np.zeros_like(wrenches) if applied is None
                     else applied)
    # the friction cone clipped some touching corners and not others
    assert 0 < seen["clipped"] < seen["touch"], seen


def run_both(config, steps=200):
    plants = [Plant(config), ref.ReferencePlant(config)]
    states = [p.initial_state() for p in plants]
    if config.lock_base:
        for st in states:
            st.base_pos[2] = 2.0
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
    assert new.contact_wrenches.keys() == old.contact_wrenches.keys()
    for frame, w in old.contact_wrenches.items():
        assert close(new.contact_wrenches[frame], w, 1e-9)
