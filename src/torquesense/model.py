"""Robot model: a floating-base kinematic tree built from a table, and
the desk biped.

A model is a table with one row per link, in index order:

    (link name, joint name, parent link, joint origin, axis,
     mass, center of mass, inertia)

Row 0 is the floating base; its joint name, parent, joint origin and
axis are None.  Every other row hangs from its parent, an earlier row,
by a revolute joint: the joint origin is the parent<-link `Transform` at
zero joint angle and the axis a unit vector in the link frame.  Row i
moves with dof i - 1, so the generalized coordinates are [base (6),
joints in row order].  The center of mass is in link coordinates and the
3x3 rotational inertia is about it, in link axes.  Units are meters,
kilograms and radians.
"""

import numpy as np

from .spatial import Transform, skew


class FrameError(ValueError):
    """Requested frame or link does not exist in the model."""


class Link:
    __slots__ = ("name", "parent", "origin", "axis", "mass", "com",
                 "inertia", "index", "dof")

    def __init__(self, index, parent, name, origin, axis, mass, com,
                 inertia):
        self.index = index
        self.dof = index - 1
        self.parent = parent
        self.name = name
        self.origin = origin
        self.axis = axis
        self.mass = mass
        self.com = com
        self.inertia = inertia


class LinkArrays:
    """The tree compiled into flat arrays, one row per link in index order.

    Link i moves with dof i - 1, so the joint rows of every per-link
    array are the slice 1:.  `home` holds each link's joint origin as a
    4x4 parent<-link transform (the identity for the base, which has no
    parent link) and `rodrigues` (n, 2, 16) the two flattened 4x4 terms
    of each joint's Rodrigues rotation, O K and O K^2 for the origin
    rotation O and the skew matrix K of the axis, so that a joint
    transform is `home + [sin(s), 1 - cos(s)] @ rodrigues` on the rows
    1:.  `axis` holds the joint axes of the dofs in their links' frames.
    `paths[i]` lists the links from the base's child down to link i,
    padded at the end with the base index 0 to one length for all links,
    so the product of their transforms is base<-link i.  `ancestors[i, d]`
    is 1.0 when the joint of dof d sits on link i or on one of its
    ancestors, else 0.0.  `mass` and `com_h` (the link-frame center of
    mass with a trailing 1) locate the link bodies; `spatial_inertia`
    holds each body's 6x6 spatial inertia about its link origin in link
    coordinates, [[m 1, -m C], [m C, I_c + m C C^T]] with C the skew
    matrix of the center of mass and I_c the rotational inertia about
    it, which a world<-link force transform F carries to the world frame
    as F I F^T.
    """

    def __init__(self, links):
        n_links = len(links)
        self.home = np.zeros((n_links, 4, 4))
        self.home[:, 3, 3] = 1.0
        self.home[0] = np.eye(4)
        for l in links[1:]:
            self.home[l.index, :3, :3] = l.origin.R
            self.home[l.index, :3, 3] = l.origin.p
        self.axis = np.array([l.axis for l in links[1:]],
                             dtype=float).reshape(-1, 3)
        K = np.zeros((n_links - 1, 4, 4))
        K[:, :3, :3] = np.array([skew(a) for a in self.axis]).reshape(-1, 3, 3)
        O = self.home[1:]
        self.rodrigues = np.stack([O @ K, O @ (K @ K)], axis=1).reshape(-1, 2, 16)

        chains = [[]]
        for l in links[1:]:
            chains.append(chains[l.parent] + [l.index])
        depth = max(1, max(map(len, chains)))
        self.paths = np.array([c + [0] * (depth - len(c)) for c in chains],
                              dtype=np.intp)
        self.ancestors = np.array([np.isin(np.arange(1, n_links), c)
                                   for c in chains],
                                  dtype=float).reshape(n_links, -1)

        self.mass = np.array([l.mass for l in links], dtype=float)
        self.com_h = np.array([np.append(l.com, 1.0) for l in links])
        self.spatial_inertia = np.zeros((n_links, 6, 6))
        for l, I in zip(links, self.spatial_inertia):
            C = skew(l.com)
            I[:3, :3] = l.mass * np.eye(3)
            I[:3, 3:] = -l.mass * C
            I[3:, :3] = l.mass * C
            I[3:, 3:] = l.inertia + l.mass * (C @ C.T)


class RobotModel:
    """Immutable floating-base kinematic tree built from a link table
    (see the module docstring), under `gravity` (m/s^2, world frame).
    Its sensor wiring names added frames: the contact `sole_frames`, the
    `ft_frames` (FT k sits at sole k), the base `imu_frame` and the
    `push_frame` external pushes act at; a bare table has none of them.

    Raises ValueError for a row whose parent is not an earlier row, a
    repeated link or joint name, a nonpositive mass, an inertia that is
    not symmetric positive definite or a joint axis that is not unit.
    """

    def __init__(self, rows, gravity=(0.0, 0.0, -9.81)):
        self.links = []
        self.link_index = {}
        self.joint_names = []
        for index, (name, joint, parent, origin, axis, mass, com,
                    inertia) in enumerate(rows):
            if name in self.link_index or joint in self.joint_names:
                raise ValueError(f"link '{name}' or its joint '{joint}' "
                                 f"repeats an earlier name")
            if not (parent in self.link_index if index else parent is None):
                raise ValueError(f"link '{name}': parent '{parent}' is not an "
                                 f"earlier row (only row 0, the floating "
                                 f"base, has none)")
            inertia = np.asarray(inertia, dtype=float)
            if mass <= 0.0:
                raise ValueError(f"link '{name}' has nonpositive mass {mass}")
            if (not np.allclose(inertia, inertia.T, atol=1e-12)
                    or np.min(np.linalg.eigvalsh(inertia)) <= 0.0):
                raise ValueError(f"link '{name}' inertia is not symmetric "
                                 f"positive definite")
            if index > 0:
                axis = np.asarray(axis, dtype=float)
                if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
                    raise ValueError(f"joint '{joint}' axis is not unit norm")
                self.joint_names.append(joint)
            self.link_index[name] = index
            self.links.append(Link(index, self.link_index.get(parent, -1),
                                   name, origin, axis, float(mass),
                                   np.asarray(com, dtype=float), inertia))
        self.gravity = np.asarray(gravity, dtype=float)
        self.ndof = len(self.links) - 1
        self.nv = 6 + self.ndof
        self.sensor_frames = {}
        self._frame_stacks = {}
        self.sole_frames, self.ft_frames = (), ()
        self.imu_frame = self.push_frame = None
        self.total_mass = sum(l.mass for l in self.links)
        self.arrays = LinkArrays(self.links)

    def add_frame(self, name, parent_link, transform):
        """Attach a named sensor/contact frame rigidly to a link."""
        if parent_link not in self.link_index:
            raise FrameError(f"unknown parent link '{parent_link}' for frame '{name}'")
        self.sensor_frames[name] = (self.link_index[parent_link], transform)
        self._frame_stacks.clear()

    def frame(self, name):
        """Return (link index, fixed transform) of a named frame or link."""
        if name in self.sensor_frames:
            return self.sensor_frames[name]
        if name in self.link_index:
            return self.link_index[name], Transform()
        raise FrameError(f"unknown frame '{name}'")

    def frame_stack(self, names):
        """(link indices (k,), link<-frame transforms (k, 4, 4)) of a
        sequence of frame or link names, as read-only arrays.

        Each tuple of names is resolved once; later calls with it reuse
        the arrays until a frame is added.
        """
        key = tuple(names)
        stack = self._frame_stacks.get(key)
        if stack is None:
            resolved = [self.frame(name) for name in key]
            idx = np.array([i for i, _ in resolved], dtype=np.intp)
            offsets = np.array([offset.homogeneous() for _, offset in resolved]
                               ).reshape(-1, 4, 4)
            idx.flags.writeable = offsets.flags.writeable = False
            stack = self._frame_stacks[key] = (idx, offsets)
        return stack


# The desk biped: a floating pelvis, two 3-joint legs (hip roll, hip
# pitch, ankle pitch) and a 2-joint torso, eight actuated joints and 24.4
# kg in all.  It is small enough for fast closed-loop tests while still
# exercising floating-base estimation with two feet, force/torque sensors
# and a waist IMU.  Its row order fixes the order of every state vector
# and per-joint array.
_X, _Y, _ORIGIN = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)
_HIP = np.diag([0.002, 0.002, 0.002])
_SHANK = np.diag([0.035, 0.035, 0.003])
_FOOT = np.diag([0.008, 0.010, 0.012])
DESK_BIPED = [
    ("pelvis", None, None, None, None,
     8.0, _ORIGIN, np.diag([0.08, 0.06, 0.05])),
    ("left_hip", "left_hip_roll", "pelvis",
     Transform(p=(0.0, 0.10, -0.05)), _X, 0.8, _ORIGIN, _HIP),
    ("right_hip", "right_hip_roll", "pelvis",
     Transform(p=(0.0, -0.10, -0.05)), _X, 0.8, _ORIGIN, _HIP),
    ("torso_lower", "torso_pitch", "pelvis",
     Transform(p=(0.0, 0.0, 0.10)), _Y, 2.0, _ORIGIN, np.diag([0.01, 0.01, 0.01])),
    ("torso", "torso_roll", "torso_lower",
     Transform(p=(0.0, 0.0, 0.05)), _X, 6.0, (0.0, 0.0, 0.15),
     np.diag([0.06, 0.05, 0.03])),
    ("right_shank", "right_hip_pitch", "right_hip",
     Transform(p=_ORIGIN), _Y, 2.4, (0.0, 0.0, -0.2), _SHANK),
    ("right_foot", "right_ankle_pitch", "right_shank",
     Transform(p=(0.0, 0.0, -0.4)), _Y, 1.0, (0.02, 0.0, -0.03), _FOOT),
    ("left_shank", "left_hip_pitch", "left_hip",
     Transform(p=_ORIGIN), _Y, 2.4, (0.0, 0.0, -0.2), _SHANK),
    ("left_foot", "left_ankle_pitch", "left_shank",
     Transform(p=(0.0, 0.0, -0.4)), _Y, 1.0, (0.02, 0.0, -0.03), _FOOT),
]

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


def desk_biped(gravity=(0.0, 0.0, -9.81)):
    """Desk-scale biped under `gravity` (m/s^2, world frame), wired with
    two soles, an FT sensor at each sole and a waist IMU, plus the torso
    `push_frame` disturbances act at."""
    model = RobotModel(DESK_BIPED, gravity)
    for side in ("left", "right"):
        sole = Transform(p=np.array([0.02, 0.0, -SOLE_DROP]))
        model.add_frame(f"{side}_sole", f"{side}_foot", sole)
        model.add_frame(f"{side}_foot_ft", f"{side}_foot", sole)
    model.add_frame("waist_imu", "pelvis", Transform(p=np.array([0.0, 0.0, 0.05])))
    model.add_frame("torso_push", "torso", Transform(p=np.array([0.0, 0.0, 0.15])))
    model.sole_frames = ("left_sole", "right_sole")
    model.ft_frames = ("left_foot_ft", "right_foot_ft")
    model.imu_frame = "waist_imu"
    model.push_frame = "torso_push"
    return model
