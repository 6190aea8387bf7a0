"""The link-table constructor, its checks, frame lookup and the desk
biped's state layout."""

import numpy as np
import pytest

from chains import pendulum, serial_leg
from torquesense.model import FrameError, RobotModel, desk_biped
from torquesense.spatial import Transform

ORIGIN = (0.0, 0.0, 0.0)
Z = (0.0, 0.0, 1.0)


def row(name, joint=None, parent=None, axis=Z, mass=1.0,
        inertia=0.1 * np.eye(3)):
    """A table row; the base's (no joint) when `joint` is None."""
    if joint is None:
        return (name, None, parent, None, None, mass, ORIGIN, inertia)
    return (name, joint, parent, Transform(), axis, mass, ORIGIN, inertia)


def test_serial_leg_traversal():
    model = serial_leg()
    assert model.ndof == 3
    assert model.nv == 9
    # topological order: each link's parent comes earlier
    assert model.links[0].parent == -1
    for link in model.links[1:]:
        assert 0 <= link.parent < link.index
        assert link.dof == link.index - 1
    assert model.joint_names == ["hip", "knee", "ankle"]


def test_pendulum_model_basics():
    model = pendulum(mass=2.0, length=0.5)
    assert model.ndof == 1
    assert model.total_mass == pytest.approx(2.0 + model.links[0].mass)


@pytest.mark.parametrize("rows, message", [
    ([row("base"), row("a", "j", "b"), row("b", "k", "base")],
     "parent 'b' is not an earlier row"),
    ([row("base"), row("a", "j")], "parent 'None' is not an earlier row"),
    ([row("base", parent="base")], "parent 'base' is not an earlier row"),
    ([row("base"), row("base", "j", "base")], "repeats an earlier name"),
    ([row("base"), row("a", "j", "base"), row("b", "j", "a")],
     "repeats an earlier name"),
    ([row("base", mass=0.0)], "nonpositive mass"),
    ([row("base"), row("a", "j", "base", mass=-1.0)], "nonpositive mass"),
    ([row("base", inertia=np.diag([-0.1, 0.1, 0.1]))],
     "not symmetric positive definite"),
    ([row("base"), row("a", "j", "base",
                       inertia=0.1 * np.eye(3) + np.triu(0.01 * np.ones(3), 1))],
     "not symmetric positive definite"),
    ([row("base"), row("a", "j", "base", axis=(0.0, 0.0, 2.0))],
     "axis is not unit norm"),
], ids=["parent-later", "parent-none", "base-parent", "duplicate-link",
        "duplicate-joint", "mass-zero", "mass-negative", "inertia-indefinite",
        "inertia-asymmetric", "axis"])
def test_table_rejects(rows, message):
    with pytest.raises(ValueError, match=message):
        RobotModel(rows)


def test_frame_lookup():
    model = desk_biped()
    for name in ("right_sole", "left_sole", "right_foot_ft", "waist_imu"):
        idx, X = model.frame(name)
        assert 0 <= idx < len(model.links)
        assert isinstance(X, Transform)
    # bare link names resolve with an identity offset
    idx, X = model.frame(model.links[0].name)
    assert idx == 0
    assert np.allclose(X.homogeneous(), np.eye(4))
    with pytest.raises(FrameError):
        model.frame("nonexistent")
    with pytest.raises(FrameError):
        model.add_frame("f", "nonexistent_link", Transform())


def test_desk_biped_structure():
    model = desk_biped()
    assert model.ndof == 8
    assert model.nv == 14
    assert model.total_mass > 0.0
    assert len(set(model.joint_names)) == model.ndof


def test_desk_biped_state_layout():
    # the row order of the table is the order of every state vector and
    # per-joint array: reordering it must show up here
    model = desk_biped()
    assert [l.name for l in model.links] == [
        "pelvis", "left_hip", "right_hip", "torso_lower", "torso",
        "right_shank", "right_foot", "left_shank", "left_foot"]
    assert model.joint_names == [
        "left_hip_roll", "right_hip_roll", "torso_pitch", "torso_roll",
        "right_hip_pitch", "right_ankle_pitch", "left_hip_pitch",
        "left_ankle_pitch"]
    assert [(name, model.links[i].name)
            for name, (i, _) in model.sensor_frames.items()] == [
        ("left_sole", "left_foot"), ("left_foot_ft", "left_foot"),
        ("right_sole", "right_foot"), ("right_foot_ft", "right_foot"),
        ("waist_imu", "pelvis"), ("torso_push", "torso")]
    assert model.total_mass == pytest.approx(24.4)


def test_desk_biped_ft_sensors_sit_at_their_soles():
    # the plant reports sole k's contact wrench, about the sole origin, as
    # FT k's reading: that is exact only if the two frames coincide
    model = desk_biped()
    assert model.sole_frames == ("left_sole", "right_sole")
    assert model.ft_frames == ("left_foot_ft", "right_foot_ft")
    assert model.imu_frame == "waist_imu"
    assert model.push_frame == "torso_push"
    for sole, ft in zip(model.sole_frames, model.ft_frames, strict=True):
        (sole_link, sole_offset), (ft_link, ft_offset) = map(model.frame,
                                                             (sole, ft))
        assert ft_link == sole_link
        assert np.array_equal(ft_offset.homogeneous(),
                              sole_offset.homogeneous())
