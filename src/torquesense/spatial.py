"""Spatial (6D) vector algebra for rigid-body dynamics.

All 6-vectors are ordered [linear, angular].  Motion vectors hold
(linear velocity of the frame origin, angular velocity); force vectors
hold (force, moment about the frame origin).
"""

import numpy as np


def cross3(a, b):
    """Cross product of two 3-vectors (faster than np.cross for scalars)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def skew(v):
    """3x3 skew-symmetric matrix such that skew(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def rotation_about_axis(axis, angle):
    """Rotation matrix for a rotation of `angle` about a unit `axis` (Rodrigues)."""
    a = np.asarray(axis, dtype=float)
    K = skew(a)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def exp_so3(w):
    """Exponential map from a rotation vector to SO(3)."""
    angle = np.linalg.norm(w)
    if angle < 1e-12:
        K = skew(w)
        return np.eye(3) + K + 0.5 * (K @ K)
    return rotation_about_axis(w / angle, angle)


def log_so3(R):
    """Rotation vector of R (inverse of exp_so3), valid away from angle pi."""
    cos_angle = max(-1.0, min(1.0, (np.trace(R) - 1.0) / 2.0))
    angle = np.arccos(cos_angle)
    if angle < 1e-10:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    axis = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return axis * (angle / (2.0 * np.sin(angle)))


class Transform:
    """Homogeneous transform H_ab mapping coordinates of frame b into frame a."""

    __slots__ = ("R", "p")

    def __init__(self, R=None, p=None):
        self.R = np.eye(3) if R is None else np.asarray(R, dtype=float)
        self.p = np.zeros(3) if p is None else np.asarray(p, dtype=float)

    def __mul__(self, other):
        return Transform(self.R @ other.R, self.R @ other.p + self.p)

    def motion_matrix(self):
        """6x6 matrix mapping motion vectors from frame b to frame a."""
        X = np.zeros((6, 6))
        X[:3, :3] = self.R
        X[:3, 3:] = skew(self.p) @ self.R
        X[3:, 3:] = self.R
        return X

    def homogeneous(self):
        H = np.eye(4)
        H[:3, :3] = self.R
        H[:3, 3] = self.p
        return H

    def __repr__(self):
        return f"Transform(R={self.R!r}, p={self.p!r})"


# _SKEW_BASIS[j] = skew(e_j), flattened: v @ _SKEW_BASIS stacks skew(v)
_SKEW_BASIS = np.array([skew(e) for e in np.eye(3)]).reshape(3, 9)


def batch_skew(v):
    """Skew-symmetric matrices of stacked 3-vectors, (..., 3) -> (..., 3, 3)."""
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


def batch_cross(a, b):
    """Cross products of stacked 3-vectors along the last axis (broadcasting)."""
    return (batch_skew(a) @ b[..., None])[..., 0]
