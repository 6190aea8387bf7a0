"""Floating-base rigid-body dynamics from one batched kinematics pass.

Generalized coordinates are (base pose, joint positions s); generalized
velocity is nu = [base twist in the base frame (6), sdot (n)].  All
accelerations are *proper* accelerations: the base rows of a generalized
acceleration vector are the base spatial acceleration minus the gravity
column [R_B^T g, 0].  With this convention gravity never appears inside
the dynamics; a body at rest has base proper acceleration [-R_B^T g, 0]
and a body in free fall has proper acceleration zero.

`forward_pass` evaluates every link at one state with a fixed number of
array operations: the joint rotations of all joints at once (one product
of [sin s, 1 - cos s] with the Rodrigues terms `LinkArrays.rodrigues`),
world poses as products along each link's path from the base (one
batched product per depth), then each link's world<-link force transform
F = [[R, 0], [P R, R]] and motion transform X = [[R, P R], [0, R]] (P
the skew matrix of the link origin) in one product, and link Jacobians
without a recursion.  The world spatial inertia of link i is
F_i L_i F_i^T, with L_i its spatial inertia about the link origin in
link coordinates (`LinkArrays.spatial_inertia`), and the joint motion
subspaces are X's angular-velocity columns times the link-frame axes.

Inside the pass every spatial vector is in world coordinates about the
world origin, ordered [linear, angular]: a link velocity is [velocity of
the body point at the world origin, angular velocity], a wrench is
[force, moment about the world origin].  In that frame

    J_i = [X_B | A_i * S]
    M   = sum_i J_i^T I_i J_i
    Q   = sum_i J_i^T (I_i a_i + v_i x* I_i v_i) - sum_i J_i^T w_i

where X_B maps the base twist into the world frame, the columns of S are
the world motion subspaces of the joints, the mask A_i keeps the joints
between the base and link i, I_i is link i's spatial inertia in the
world frame, v_i = J_i nu, a_i = J_i accel + sum over those joints of
v_j x S_j sdot_j, and w_i is the external wrench on link i.  Because the
J_i map the body-coordinate nu, M and Q come out in the coordinates of
nu: Q is [base wrench in the base frame, joint torques].

`ForwardPass.inverse_dynamics` is the one route to Q.  Its bias vectors
are Q at particular accelerations: at accel = 0 it is the Coriolis,
centrifugal and external-wrench bias of the proper-acceleration form,
M a_prop = B tau - Q(0); at `static_proper_accel` it adds gravity, the
bias of the coordinate-acceleration form, and at zero velocity it is
the generalized gravity force.  Its `link_wrenches` are world-origin
wrenches, as the plant's contact kernel builds them; the controller maps
a wrench f at a named frame, in its coordinates, as -J^T f through
`frame_jacobian` (the filter, the balancer and the RNEA feedback).

Every quantity below is one function of a `ForwardPass`: a caller
builds the pass once per state with `forward_pass` and reads as many
quantities from it as it needs.
"""

import numpy as np

from .spatial import batch_cross, batch_skew, skew


def _crm(v):
    """Spatial cross-product matrix [[W, V], [0, W]] of a motion vector."""
    X = np.zeros((6, 6))
    X[:3, :3] = X[3:, 3:] = skew(v[3:])
    X[:3, 3:] = skew(v[:3])
    return X


def _transforms(h, R):
    """[[h_3 R, 0], [P R, h_3 R]] and [[h_3 R, P R], [0, h_3 R]], with P
    the skew matrix of h[:3], stacked.

    Both are bilinear in the 4-vector h and the 3x3 R; at h = [p, 1]
    they are the world<-link force and motion transforms of the pose
    (R, p).
    """
    F = np.zeros((2, 6, 6))
    F[:, :3, :3] = F[:, 3:, 3:] = h[3] * R
    F[0, 3:, :3] = F[1, :3, 3:] = skew(h[:3]) @ R
    return F


# row j is the 6x6 block of the unit vector e_j, flattened: for a block
# linear in its vector, x @ basis stacks the blocks of the rows of x
_CRM_BASIS = np.array([_crm(e).ravel() for e in np.eye(6)])
# the same for the bilinear transforms, whose vector is the flattened
# outer product of h and the flattened R
_TRANSFORM_BASIS = np.array([_transforms(h, R).ravel() for h in np.eye(4)
                             for R in np.eye(9).reshape(9, 3, 3)])


def static_proper_accel(fp):
    """Proper acceleration [-R_B^T g, 0] of a body at rest at `fp`'s state."""
    a = np.zeros(fp.model.nv)
    a[:3] = -fp.H[0, :3, :3].T @ fp.model.gravity
    return a


def joint_transforms(model, s):
    """Parent<-link transforms of every link, an (n_links, 4, 4) array.

    Row 0 is the base's identity.  Row i > 0 turns link i's joint origin
    by s[i - 1]: the origin plus [sin s, 1 - cos s] times the joint's
    two Rodrigues terms, one product for all joints.
    """
    arrays = model.arrays
    X = arrays.home.copy()
    weights = np.concatenate((np.sin(s), 1.0 - np.cos(s))).reshape(2, -1)
    X[1:] += (weights.T[:, None] @ arrays.rodrigues).reshape(-1, 4, 4)
    return X


class ForwardPass:
    """Everything the dynamics needs about the links at one state.

    World frame, world origin, [linear, angular] throughout (see the
    module docstring).  `H` holds the world<-link transforms, `J` the
    link Jacobians (n_links, 6, nv), `v` the link velocities, `IJ` the
    products I_i J_i with the world spatial inertias and `f_vel` the
    velocity-dependent part of each link's net wrench.
    """

    __slots__ = ("model", "H", "J", "v", "IJ", "f_vel")

    def __init__(self, model, H, J, v, IJ, f_vel):
        self.model = model
        self.H = H
        self.J = J
        self.v = v
        self.IJ = IJ
        self.f_vel = f_vel

    def inverse_dynamics(self, accel=None, link_wrenches=None):
        """Generalized force realizing `accel` (zero if None).

        `link_wrenches` is an (n_links, 6) array of external wrenches,
        world frame about the world origin, or None.  The result is
        [base wrench in the base frame, joint torques].
        """
        f = self.f_vel if accel is None else self.IJ @ accel + self.f_vel
        if link_wrenches is not None:
            f = f - link_wrenches
        return self.J.reshape(-1, self.model.nv).T @ f.ravel()


def forward_pass(model, base_pose, s, nu, Xs=None):
    """The batched kinematics pass at state (base_pose, s, nu).

    `Xs` is `joint_transforms(model, s)` when the caller already has it.
    """
    arrays = model.arrays
    if Xs is None:
        Xs = joint_transforms(model, s)
    nu = np.asarray(nu, dtype=float)
    # world<-link transforms: the base pose times the joint transforms
    # along each link's path, one batched product per path position
    path = Xs[arrays.paths]
    H = base_pose.homogeneous() @ path[:, 0]
    for k in range(1, path.shape[1]):
        H = H @ path[:, k]

    # world<-link force and motion transforms, F = [[R, 0], [P R, R]]
    # and X = [[R, P R], [0, R]] with P the skew matrix of the link
    # origin p, from the products of [p, 1] and R
    R = H[:, :3, :3].reshape(-1, 1, 9)
    FX = (H[:, :, 3:] * R).reshape(-1, 36) @ _TRANSFORM_BASIS
    F, X = FX.reshape(-1, 2, 6, 6).transpose(1, 0, 2, 3)
    # joint motion subspaces: X's angular-velocity columns [P R; R] times
    # the link-frame axis, S[d] = [origin x axis, axis] of dof d
    S = X[1:, :, 3:] @ arrays.axis[:, :, None]
    J = np.empty((len(H), 6, model.nv))
    J[:, :, :6] = X[0]
    np.multiply(arrays.ancestors[:, None, :], S[:, :, 0].T, out=J[:, :, 6:])
    v = J @ nu

    # world spatial inertias F I F^T of the link-frame inertias
    inertia = F @ arrays.spatial_inertia @ F.transpose(0, 2, 1)
    IJ = inertia @ J
    momentum = IJ @ nu

    # spatial cross-product matrices, linear in v: v x m = crm m with
    # crm = [[W, V], [0, W]] for V, W the skew matrices of v's linear
    # and angular parts, and v x* f = -crm^T f
    crm = (v @ _CRM_BASIS).reshape(-1, 6, 6)
    # S_j sdot_j moves with link j, which adds v_j x S_j sdot_j to the
    # acceleration of link j and of every link below it
    vp = crm[1:] @ (S * nu[6:, None, None])
    a_vp = arrays.ancestors @ vp[:, :, 0]
    # the net link wrenches at zero accel: I a_vp + v x* (I v)
    f_vel = (inertia @ a_vp[:, :, None]
             - crm.transpose(0, 2, 1) @ momentum[:, :, None])[:, :, 0]

    return ForwardPass(model, H, J, v, IJ, f_vel)


def crba(fp):
    """Joint-space mass matrix sum_i J_i^T I_i J_i.

    The matrix is expressed in body coordinates [base twist, sdot] and
    therefore depends only on the joint configuration.
    """
    nv = fp.model.nv
    return fp.J.reshape(-1, nv).T @ fp.IJ.reshape(-1, nv)


def frame_jacobian(fp, frame_names):
    """Stacked (k, 6, 6+n) Jacobians of the named frames or links.

    Block i maps nu to the velocity [linear, angular] of the origin of
    frame `frame_names[i]`, in that frame's coordinates.  All k blocks
    come from one gather of the link Jacobians and batched products; the
    names resolve once per tuple (`RobotModel.frame_stack`).
    """
    idx, offsets = fp.model.frame_stack(frame_names)
    H = fp.H[idx] @ offsets
    Rt = H[:, :3, :3].transpose(0, 2, 1)
    J = fp.J[idx]
    out = np.empty_like(J)
    out[:, :3] = Rt @ (J[:, :3] - batch_skew(H[:, :3, 3]) @ J[:, 3:])
    out[:, 3:] = Rt @ J[:, 3:]
    return out


def _link_coms(fp):
    """World centers of mass of the links, (n_links, 3)."""
    return (fp.H @ fp.model.arrays.com_h[:, :, None])[:, :3, 0]


def com_position(fp):
    """World center of mass."""
    return fp.model.arrays.mass @ _link_coms(fp) / fp.model.total_mass


def com_velocity(fp):
    """World center-of-mass velocity."""
    v_com = fp.v[:, :3] + batch_cross(fp.v[:, 3:], _link_coms(fp))
    return fp.model.arrays.mass @ v_com / fp.model.total_mass
