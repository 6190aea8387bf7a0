"""Small test chains on a floating base, built from link tables: a
pendulum, a planar two-link arm and a three-link serial leg."""

import numpy as np

from torquesense.model import RobotModel
from torquesense.spatial import Transform

ORIGIN = (0.0, 0.0, 0.0)
MINUS_Y = (0.0, -1.0, 0.0)


def pendulum(mass=1.0, length=1.0, gravity=(0.0, 0.0, -9.81)):
    """Floating base with a single revolute arm; COM `length` along +x.

    With axis -y and the arm horizontal, the static holding torque is
    +mass*9.81*length.
    """
    return RobotModel([
        ("base", None, None, None, None, 5.0, ORIGIN, 0.1 * np.eye(3)),
        ("arm", "shoulder", "base", Transform(), MINUS_Y,
         mass, (length, 0.0, 0.0), 1e-6 * np.eye(3)),
    ], gravity)


def two_link_arm(m1=1.2, m2=0.7, l1=0.6, l2=0.4):
    """Planar 2-link arm (both joints about -y) hanging from the base.

    Link COMs sit at the link midpoints; rotational inertias are those
    of slender rods so the Lagrangian oracle stays simple.
    """
    i1 = m1 * l1 * l1 / 12.0
    i2 = m2 * l2 * l2 / 12.0
    return RobotModel([
        ("base", None, None, None, None, 10.0, ORIGIN, 0.2 * np.eye(3)),
        ("upper", "q1", "base", Transform(), MINUS_Y,
         m1, (l1 / 2, 0.0, 0.0), np.diag([1e-9, i1, i1])),
        ("lower", "q2", "upper", Transform(p=(l1, 0.0, 0.0)), MINUS_Y,
         m2, (l2 / 2, 0.0, 0.0), np.diag([1e-9, i2, i2])),
    ])


def serial_leg():
    """3-link serial chain: hip, knee and ankle about +y."""
    y = (0.0, 1.0, 0.0)
    return RobotModel([
        ("base", None, None, None, None, 3.0, ORIGIN, 0.02 * np.eye(3)),
        ("thigh", "hip", "base", Transform(p=(0.0, 0.1, 0.0)), y,
         1.5, (0.0, 0.0, -0.2), np.diag([0.01, 0.01, 0.002])),
        ("shin", "knee", "thigh", Transform(p=(0.0, 0.0, -0.4)), y,
         1.0, (0.0, 0.0, -0.15), np.diag([0.008, 0.008, 0.001])),
        ("foot", "ankle", "shin", Transform(p=(0.0, 0.0, -0.3)), y,
         0.5, (0.05, 0.0, 0.0), 0.001 * np.eye(3)),
    ])
