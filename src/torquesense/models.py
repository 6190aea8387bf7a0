"""Built-in model: a desk-scale biped.

The desk biped is a floating-base robot with two 3-joint legs
(hip roll, hip pitch, ankle pitch) and a 2-joint torso, eight actuated
joints in total and roughly 24 kg of mass.  It is small enough for fast
closed-loop tests while still exercising floating-base estimation with
two feet, force/torque sensors and a waist IMU.
"""

import numpy as np

from .model import parse_model
from .spatial import Transform

# foot sole geometry: corner offsets in the sole frame (m)
FOOT_CORNERS = np.array([
    [0.10, 0.05, 0.0],
    [0.10, -0.05, 0.0],
    [-0.06, 0.05, 0.0],
    [-0.06, -0.05, 0.0],
])

# sole frame sits this far below the ankle joint
SOLE_DROP = 0.05
# vertical distance pelvis origin -> sole at zero joint angles
STANDING_HEIGHT = 0.50


def _leg(side, sign):
    return f"""
  <link name="{side}_hip">
    <inertial><mass value="0.8"/><inertia ixx="0.002" iyy="0.002" izz="0.002"/></inertial>
  </link>
  <joint name="{side}_hip_roll" type="revolute">
    <parent link="pelvis"/><child link="{side}_hip"/>
    <origin xyz="0 {sign * 0.10} -0.05"/><axis xyz="1 0 0"/>
  </joint>
  <link name="{side}_shank">
    <inertial><origin xyz="0 0 -0.2"/><mass value="2.4"/>
      <inertia ixx="0.035" iyy="0.035" izz="0.003"/></inertial>
  </link>
  <joint name="{side}_hip_pitch" type="revolute">
    <parent link="{side}_hip"/><child link="{side}_shank"/>
    <origin xyz="0 0 0"/><axis xyz="0 1 0"/>
  </joint>
  <link name="{side}_foot">
    <inertial><origin xyz="0.02 0 -0.03"/><mass value="1.0"/>
      <inertia ixx="0.008" iyy="0.010" izz="0.012"/></inertial>
  </link>
  <joint name="{side}_ankle_pitch" type="revolute">
    <parent link="{side}_shank"/><child link="{side}_foot"/>
    <origin xyz="0 0 -0.4"/><axis xyz="0 1 0"/>
  </joint>
"""


def desk_biped_urdf():
    """URDF text of the desk-scale biped."""
    return f"""
<robot name="desk_biped">
  <link name="pelvis">
    <inertial><mass value="8"/><inertia ixx="0.08" iyy="0.06" izz="0.05"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="pelvis"/></joint>
  <link name="torso_lower">
    <inertial><mass value="2"/><inertia ixx="0.01" iyy="0.01" izz="0.01"/></inertial>
  </link>
  <joint name="torso_pitch" type="revolute">
    <parent link="pelvis"/><child link="torso_lower"/>
    <origin xyz="0 0 0.10"/><axis xyz="0 1 0"/>
  </joint>
  <link name="torso">
    <inertial><origin xyz="0 0 0.15"/><mass value="6"/>
      <inertia ixx="0.06" iyy="0.05" izz="0.03"/></inertial>
  </link>
  <joint name="torso_roll" type="revolute">
    <parent link="torso_lower"/><child link="torso"/>
    <origin xyz="0 0 0.05"/><axis xyz="1 0 0"/>
  </joint>
{_leg("left", 1)}
{_leg("right", -1)}
</robot>
"""


def desk_biped():
    """Desk-scale biped with sole, FT and IMU frames attached."""
    model = parse_model(desk_biped_urdf())
    for side in ("left", "right"):
        sole = Transform(p=np.array([0.02, 0.0, -SOLE_DROP]))
        model.add_frame(f"{side}_sole", f"{side}_foot", sole)
        model.add_frame(f"{side}_foot_ft", f"{side}_foot", sole)
    model.add_frame("waist_imu", "pelvis", Transform(p=np.array([0.0, 0.0, 0.05])))
    model.add_frame("torso_push", "torso", Transform(p=np.array([0.0, 0.0, 0.15])))
    return model
