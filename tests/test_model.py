"""Model description parsing, validation and frame lookup."""

import numpy as np
import pytest

from chains import pendulum_urdf, serial_leg_urdf
from torquesense.model import (
    FrameError,
    ParseError,
    StructureError,
    ValidationError,
    parse_model,
)
from torquesense.models import desk_biped
from torquesense.spatial import Transform


def _doc(body):
    return f'<robot name="t">{body}</robot>'


LINK = """
<link name="{name}">
  <inertial>
    <origin xyz="0 0 0"/>
    <mass value="1.0"/>
    <inertia ixx="0.1" iyy="0.1" izz="0.1"/>
  </inertial>
</link>
"""

ROOT = '<joint name="root" type="floating"><parent link="world"/><child link="base"/></joint>'


def test_serial_leg_traversal():
    model = parse_model(serial_leg_urdf())
    assert model.ndof == 3
    assert model.nv == 9
    # topological order: each link's parent comes earlier
    for link in model.links[1:]:
        assert 0 <= link.parent < link.index
    assert model.links[0].joint_type == "floating"
    assert len(model.joint_names) == 3


def test_pendulum_model_basics():
    model = parse_model(pendulum_urdf(mass=2.0, length=0.5))
    assert model.ndof == 1
    assert model.total_mass == pytest.approx(2.0 + model.links[0].mass)


def test_malformed_xml_reports_line():
    doc = '<robot name="t">\n<link name="a">\n</robot>'
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_model(doc)


def test_unsupported_elements_rejected():
    with pytest.raises(ParseError, match="unsupported element"):
        parse_model(_doc(LINK.format(name="base") + ROOT + "<gazebo/>"))
    with pytest.raises(ParseError, match="unsupported element"):
        parse_model(_doc(
            LINK.format(name="base").replace("</inertial>",
                                             "</inertial><visual/>") + ROOT))
    with pytest.raises(ParseError, match="unsupported type"):
        parse_model(_doc(LINK.format(name="base") + ROOT +
                         LINK.format(name="a") +
                         '<joint name="j" type="prismatic">'
                         '<parent link="base"/><child link="a"/></joint>'))


def test_structure_errors():
    base = LINK.format(name="base")
    # no floating root
    with pytest.raises(StructureError, match="floating root"):
        parse_model(_doc(base))
    # floating root not attached to world
    with pytest.raises(StructureError, match="world"):
        parse_model(_doc(base + LINK.format(name="a") +
                         '<joint name="root" type="floating">'
                         '<parent link="a"/><child link="base"/></joint>'))
    # duplicate link name
    with pytest.raises(StructureError, match="duplicate"):
        parse_model(_doc(base + base + ROOT))
    # joint referencing a missing child link
    with pytest.raises(StructureError, match="missing"):
        parse_model(_doc(base + ROOT +
                         '<joint name="j" type="revolute">'
                         '<parent link="base"/><child link="ghost"/>'
                         '<axis xyz="0 0 1"/></joint>'))
    # unreachable link
    with pytest.raises(StructureError, match="not reachable"):
        parse_model(_doc(base + LINK.format(name="orphan") + ROOT))


def test_validation_errors():
    bad_mass = LINK.format(name="base").replace('value="1.0"', 'value="0"')
    with pytest.raises(ValidationError, match="mass"):
        parse_model(_doc(bad_mass + ROOT))
    bad_inertia = LINK.format(name="base").replace('ixx="0.1"', 'ixx="-0.1"')
    with pytest.raises(ValidationError, match="positive definite"):
        parse_model(_doc(bad_inertia + ROOT))
    # non-unit joint axis
    with pytest.raises(ValidationError, match="unit"):
        parse_model(_doc(LINK.format(name="base") + LINK.format(name="a") +
                         ROOT +
                         '<joint name="j" type="revolute">'
                         '<parent link="base"/><child link="a"/>'
                         '<axis xyz="0 0 2"/></joint>'))


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
    # joint ordering is deterministic across repeated parses
    assert desk_biped().joint_names == model.joint_names
