"""Spatial (6D) vector algebra for rigid-body dynamics.

All 6-vectors are ordered [linear, angular].  Motion vectors hold
(linear velocity of the frame origin, angular velocity); force vectors
hold (force, moment about the frame origin).
"""

import math

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


def exp_so3(w):
    """Exponential map from a rotation vector to SO(3).

    The Rodrigues form I + sin(angle) K + (1 - cos(angle)) K^2 with K
    the skew matrix of the unit axis, written out on Python floats; below
    an angle of 1e-12 it is the series I + K + K^2 / 2 with K the skew
    matrix of `w` itself.  An angle that overflows raises FloatingPointError.
    """
    x, y, z = np.asarray(w, dtype=float).tolist()
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-12:
        s, c = 1.0, 0.5
    elif angle == math.inf:
        raise FloatingPointError("rotation angle overflows")
    else:
        x, y, z = x / angle, y / angle, z / angle
        s, c = math.sin(angle), 1.0 - math.cos(angle)
    return np.array([
        1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y,
        c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x,
        c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y),
    ]).reshape(3, 3)


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

    def homogeneous(self):
        H = np.empty((4, 4))
        H[:3, :3] = self.R
        H[:3, 3] = self.p
        H[3] = (0.0, 0.0, 0.0, 1.0)
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
