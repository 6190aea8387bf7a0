"""URDF text of small test chains: a pendulum, a planar two-link arm
and a three-link serial leg, each on a floating base."""


def pendulum_urdf(mass=1.0, length=1.0, axis="0 -1 0"):
    """Floating base with a single revolute arm; COM `length` along +x.

    With axis -y and the arm horizontal, the static holding torque is
    +mass*9.81*length.
    """
    return f"""
<robot name="pendulum">
  <link name="base">
    <inertial><mass value="5"/><inertia ixx="0.1" iyy="0.1" izz="0.1"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="base"/></joint>
  <link name="arm">
    <inertial><origin xyz="{length} 0 0"/><mass value="{mass}"/>
      <inertia ixx="1e-6" iyy="1e-6" izz="1e-6"/></inertial>
  </link>
  <joint name="shoulder" type="revolute">
    <parent link="base"/><child link="arm"/><axis xyz="{axis}"/>
  </joint>
</robot>
"""


def two_link_arm_urdf(m1=1.2, m2=0.7, l1=0.6, l2=0.4):
    """Planar 2-link arm (both joints about -y) hanging from the base.

    Link COMs sit at the link midpoints; rotational inertias are those
    of slender rods so the Lagrangian oracle stays simple.
    """
    i1 = m1 * l1 * l1 / 12.0
    i2 = m2 * l2 * l2 / 12.0
    return f"""
<robot name="two_link">
  <link name="base">
    <inertial><mass value="10"/><inertia ixx="0.2" iyy="0.2" izz="0.2"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="base"/></joint>
  <link name="upper">
    <inertial><origin xyz="{l1 / 2} 0 0"/><mass value="{m1}"/>
      <inertia ixx="1e-9" iyy="{i1}" izz="{i1}"/></inertial>
  </link>
  <joint name="q1" type="revolute">
    <parent link="base"/><child link="upper"/><axis xyz="0 -1 0"/>
  </joint>
  <link name="lower">
    <inertial><origin xyz="{l2 / 2} 0 0"/><mass value="{m2}"/>
      <inertia ixx="1e-9" iyy="{i2}" izz="{i2}"/></inertial>
  </link>
  <joint name="q2" type="revolute">
    <parent link="upper"/><child link="lower"/>
    <origin xyz="{l1} 0 0"/><axis xyz="0 -1 0"/>
  </joint>
</robot>
"""


def serial_leg_urdf():
    """3-link serial chain used by the parser/tree-traversal tests."""
    return """
<robot name="leg3">
  <link name="base">
    <inertial><mass value="3"/><inertia ixx="0.02" iyy="0.02" izz="0.02"/></inertial>
  </link>
  <joint name="root" type="floating"><parent link="world"/><child link="base"/></joint>
  <link name="thigh">
    <inertial><origin xyz="0 0 -0.2"/><mass value="1.5"/>
      <inertia ixx="0.01" iyy="0.01" izz="0.002"/></inertial>
  </link>
  <joint name="hip" type="revolute">
    <parent link="base"/><child link="thigh"/>
    <origin xyz="0 0.1 0"/><axis xyz="0 1 0"/>
  </joint>
  <link name="shin">
    <inertial><origin xyz="0 0 -0.15"/><mass value="1.0"/>
      <inertia ixx="0.008" iyy="0.008" izz="0.001"/></inertial>
  </link>
  <joint name="knee" type="revolute">
    <parent link="thigh"/><child link="shin"/>
    <origin xyz="0 0 -0.4"/><axis xyz="0 1 0"/>
  </joint>
  <link name="foot">
    <inertial><origin xyz="0.05 0 0"/><mass value="0.5"/>
      <inertia ixx="0.001" iyy="0.001" izz="0.001"/></inertial>
  </link>
  <joint name="ankle" type="revolute">
    <parent link="shin"/><child link="foot"/>
    <origin xyz="0 0 -0.3"/><axis xyz="0 1 0"/>
  </joint>
</robot>
"""
