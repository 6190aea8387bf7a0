"""Per-vector spatial algebra for the per-link reference recursions.

6-vectors are ordered [linear, angular] and expressed in body-fixed
frames: a motion vector holds (linear velocity of the frame origin,
angular velocity), a force vector (force, moment about the frame
origin).  `reference_dynamics` builds its recursions on these; the
batched pass in `torquesense.dynamics` does not use them.
"""

import numpy as np

from torquesense.spatial import Transform, cross3, skew


def rotation_about_axis(axis, angle):
    """Rotation matrix for a rotation of `angle` about a unit `axis` (Rodrigues)."""
    K = skew(np.asarray(axis, dtype=float))
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def compose(a, b):
    """H_ac from H_ab and H_bc."""
    return Transform(a.R @ b.R, a.R @ b.p + a.p)


def inverse(H):
    """H_ba, given H_ab."""
    Rt = H.R.T
    return Transform(Rt, -Rt @ H.p)


def apply(H, point):
    """Coordinates in frame a of a point given in frame b, given H_ab."""
    return H.R @ point + H.p


def motion_matrix(H):
    """6x6 matrix mapping motion vectors from frame b to frame a, given H_ab."""
    X = np.zeros((6, 6))
    X[:3, :3] = H.R
    X[:3, 3:] = skew(H.p) @ H.R
    X[3:, 3:] = H.R
    return X


def force_matrix(H):
    """6x6 matrix mapping force vectors from frame b to frame a, given H_ab."""
    X = np.zeros((6, 6))
    X[:3, :3] = H.R
    X[3:, :3] = skew(H.p) @ H.R
    X[3:, 3:] = H.R
    return X


def transform_motion(H, v):
    """Express the motion vector v (frame b) in frame a, given H_ab."""
    out = np.empty(6)
    out[3:] = H.R @ v[3:]
    out[:3] = H.R @ v[:3] + cross3(H.p, out[3:])
    return out


def transform_motion_inv(H, v):
    """Express the motion vector v (frame a) in frame b, given H_ab."""
    out = np.empty(6)
    out[3:] = H.R.T @ v[3:]
    out[:3] = H.R.T @ (v[:3] - cross3(H.p, v[3:]))
    return out


def transform_force(H, f):
    """Express the force vector f (frame b) in frame a, given H_ab."""
    out = np.empty(6)
    out[:3] = H.R @ f[:3]
    out[3:] = H.R @ f[3:] + cross3(H.p, out[:3])
    return out


def cross_motion(v, m):
    """Spatial cross product of two motion vectors (v x m)."""
    out = np.empty(6)
    out[:3] = cross3(v[3:], m[:3]) + cross3(v[:3], m[3:])
    out[3:] = cross3(v[3:], m[3:])
    return out


def cross_force(v, f):
    """Spatial cross product of a motion vector with a force vector (v x* f)."""
    out = np.empty(6)
    out[:3] = cross3(v[3:], f[:3])
    out[3:] = cross3(v[:3], f[:3]) + cross3(v[3:], f[3:])
    return out


def spatial_inertia(mass, com, inertia_com):
    """6x6 spatial inertia of a body about the link frame origin.

    `com` is the COM offset in the link frame, `inertia_com` the 3x3
    rotational inertia about the COM.
    """
    C = skew(com)
    I = np.zeros((6, 6))
    I[:3, :3] = mass * np.eye(3)
    I[:3, 3:] = mass * C.T
    I[3:, :3] = mass * C
    I[3:, 3:] = inertia_com + mass * (C @ C.T)
    return I


def link_inertia(link):
    """Spatial inertia of a model link about its frame origin."""
    return spatial_inertia(link.mass, link.com, link.inertia)
