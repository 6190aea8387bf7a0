"""Floating-base rigid-body dynamics from one batched kinematics pass.

Generalized coordinates are (base pose, joint positions s); generalized
velocity is nu = [base twist in the base frame (6), sdot (n)].  All
accelerations are *proper* accelerations: the base rows of a generalized
acceleration vector are the base spatial acceleration minus the gravity
column [R_B^T g, 0].  With this convention gravity never appears inside
the dynamics; a body at rest has base proper acceleration [-R_B^T g, 0]
and a body in free fall has proper acceleration zero.

`forward_pass` evaluates every link at one state with a fixed number of
array operations: the joint rotations of all joints at once, world poses
one tree level at a time, then link Jacobians without a recursion.
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
nu: Q is [base wrench in the base frame, joint torques].  The bias
vector is Q at accel = 0 (Coriolis, centrifugal and external terms) or
at the static proper acceleration (adding gravity).

The functions below that take `fp=None` read their result from `fp`, the
forward pass at the same state, when the caller already has one: a
caller needing several quantities at one state builds one pass.
"""

import numpy as np

from .spatial import Transform, batch_cross, batch_skew, cross3, skew


class DynamicsTerms:
    """Mass matrix, bias vector, contact Jacobians and selection matrix.

    `bias` is the full bias vector (Coriolis, centrifugal and gravity)
    of the coordinate-acceleration form: M [accel] + bias = B tau + J^T f
    with accel = proper acceleration + [R^T g, 0] on the base rows.
    At zero velocity `bias` equals the generalized gravity force.
    """

    __slots__ = ("M", "bias", "jacobians", "selection")

    def __init__(self, M, bias, jacobians, selection):
        self.M = M
        self.bias = bias
        self.jacobians = jacobians
        self.selection = selection


def _static_proper_accel(model, base_pose):
    a = np.zeros(model.nv)
    a[:3] = -base_pose.R.T @ model.gravity
    return a


def joint_transforms(model, s):
    """Parent<-link transforms of every link, an (n_links, 4, 4) array."""
    arrays = model.arrays
    X = arrays.home.copy()
    terms = arrays.rotation_terms
    X[arrays.dof_link, :3, :3] += (np.sin(s)[:, None, None] * terms[0]
                                   + (1.0 - np.cos(s))[:, None, None] * terms[1])
    return X


def _link_coms(model, H):
    """World centers of mass of the links, (n_links, 3)."""
    return (H @ model.arrays.com_h[:, :, None])[:, :3, 0]


def _world_transforms(model, base_pose, Xs):
    """World<-link transforms (n_links, 4, 4), one batched step per level."""
    H = np.empty_like(Xs)
    H[0] = base_pose.homogeneous()
    for links, parents in model.arrays.levels:
        H[links] = H[parents] @ Xs[links]
    return H


class ForwardPass:
    """Everything the dynamics needs about the links at one state.

    World frame, world origin, [linear, angular] throughout (see the
    module docstring).  `H` holds the world<-link transforms, `J` the
    link Jacobians (n_links, 6, nv), `v` the link velocities, `com` the
    world link centers of mass, `IJ` the products I_i J_i with the world
    spatial inertias, `momentum` the products I_i v_i and `f_vel` the
    velocity-dependent part of each link's net wrench.
    """

    __slots__ = ("model", "H", "J", "v", "com", "IJ", "momentum", "f_vel")

    def __init__(self, model, H, J, v, com, IJ, momentum, f_vel):
        self.model = model
        self.H = H
        self.J = J
        self.v = v
        self.com = com
        self.IJ = IJ
        self.momentum = momentum
        self.f_vel = f_vel

    def mass_matrix(self):
        """Joint-space mass matrix sum_i J_i^T I_i J_i (depends on s only)."""
        nv = self.model.nv
        return self.J.reshape(-1, nv).T @ self.IJ.reshape(-1, nv)

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

    def frame_pose(self, frame_name):
        """(link index, world<-frame 4x4 transform) of a named frame or link."""
        idx, offset = self.model.frame(frame_name)
        return idx, self.H[idx] @ offset.homogeneous()

    def frame_jacobian(self, frame_name):
        """6x(6+n) Jacobian mapping nu to the frame velocity in frame coordinates."""
        idx, H = self.frame_pose(frame_name)
        Rt = H[:3, :3].T
        J = self.J[idx]
        out = np.empty_like(J)
        out[:3] = Rt @ (J[:3] - skew(H[:3, 3]) @ J[3:])
        out[3:] = Rt @ J[3:]
        return out

    def link_wrenches(self, frame_wrenches):
        """(n_links, 6) world-origin wrenches from (frame name, wrench) pairs.

        Each wrench is given in its frame's coordinates at the frame
        origin; None when there are none.
        """
        out = None
        for frame_name, wrench in frame_wrenches:
            idx, H = self.frame_pose(frame_name)
            w = np.asarray(wrench, dtype=float)
            force = H[:3, :3] @ w[:3]
            if out is None:
                out = np.zeros((len(self.H), 6))
            out[idx, :3] += force
            out[idx, 3:] += H[:3, :3] @ w[3:] + cross3(H[:3, 3], force)
        return out

    def com_position(self):
        """World center of mass."""
        return self.model.arrays.mass @ self.com / self.model.total_mass

    def com_velocity(self):
        """World center-of-mass velocity."""
        v_com = self.v[:, :3] + batch_cross(self.v[:, 3:], self.com)
        return self.model.arrays.mass @ v_com / self.model.total_mass

    def mechanical_energy(self):
        """Total kinetic plus gravitational potential energy."""
        kinetic = 0.5 * np.sum(self.v * self.momentum)
        potential = -(self.model.arrays.mass @ self.com) @ self.model.gravity
        return kinetic + potential


def forward_pass(model, base_pose, s, nu, Xs=None):
    """The batched kinematics pass at state (base_pose, s, nu).

    `Xs` is `joint_transforms(model, s)` when the caller already has it.
    """
    arrays = model.arrays
    if Xs is None:
        Xs = joint_transforms(model, s)
    nu = np.asarray(nu, dtype=float)
    dofs = arrays.dof_link
    H = _world_transforms(model, base_pose, Xs)
    R, p = H[:, :3, :3], H[:, :3, 3]

    # joint motion subspaces: rotation about the world axis through the
    # joint origin, [origin x axis, axis]
    axis = (R[dofs] @ arrays.axis[:, :, None])[:, :, 0]
    S = np.concatenate([batch_cross(p[dofs], axis), axis], axis=1).T
    J = np.empty((len(H), 6, model.nv))
    J[:, :, :6] = base_pose.motion_matrix()
    J[:, :, 6:] = arrays.ancestors[:, None, :] * S
    v = J @ nu

    # world spatial inertias: [[m 1, -m C], [m C, I_c + m C C^T]] with C
    # the skew matrix of the world center of mass
    com = _link_coms(model, H)
    C = batch_skew(com)
    mC = arrays.mass[:, None, None] * C
    inertia = np.empty((len(H), 6, 6))
    inertia[:, :3, :3] = arrays.mass_eye
    inertia[:, :3, 3:] = -mC
    inertia[:, 3:, :3] = mC
    inertia[:, 3:, 3:] = R @ arrays.inertia @ R.transpose(0, 2, 1) - mC @ C
    IJ = inertia @ J
    momentum = IJ @ nu

    # spatial cross-product matrices: v x m = crm m with crm = [[W, V],
    # [0, W]] for V, W the skew matrices of v's linear and angular parts,
    # and v x* f = -crm^T f
    VW = batch_skew(v.reshape(-1, 2, 3))
    crm = np.zeros((len(H), 6, 6))
    crm[:, :3, :3] = crm[:, 3:, 3:] = VW[:, 1]
    crm[:, :3, 3:] = VW[:, 0]
    # S_j sdot_j moves with link j, which adds v_j x S_j sdot_j to the
    # acceleration of link j and of every link below it
    vp = crm[dofs] @ (S.T * nu[6:, None])[:, :, None]
    a_vp = arrays.ancestors @ vp[:, :, 0]
    # the net link wrenches at zero accel: I a_vp + v x* (I v)
    f_vel = (inertia @ a_vp[:, :, None]
             - crm.transpose(0, 2, 1) @ momentum[:, :, None])[:, :, 0]

    return ForwardPass(model, H, J, v, com, IJ, momentum, f_vel)


def forward_kinematics(model, base_pose, s):
    """World transform of every link, in link-index order."""
    H = _world_transforms(model, base_pose, joint_transforms(model, s))
    return [Transform(h[:3, :3], h[:3, 3]) for h in H]


def frame_transform(model, base_pose, s, frame_name):
    """World transform of a named frame (sensor frame or link frame)."""
    idx, offset = model.frame(frame_name)
    return forward_kinematics(model, base_pose, s)[idx] * offset


def generalized_rnea(model, base_pose, s, nu, accel, contact_wrenches=()):
    """Inverse dynamics over the full generalized force vector.

    Returns the (6+n,) vector [base wrench (base frame), joint torques]
    required to realize the given proper acceleration under the given
    contact wrenches.  `contact_wrenches` is a list of (frame_name,
    wrench) with the wrench expressed in the contact frame.
    """
    fp = forward_pass(model, base_pose, s, nu)
    return fp.inverse_dynamics(np.asarray(accel, dtype=float),
                               fp.link_wrenches(contact_wrenches))


def rnea(model, base_pose, s, nu, accel, contact_wrenches=()):
    """Joint torques realizing the given proper acceleration (RNEA)."""
    return generalized_rnea(model, base_pose, s, nu, accel, contact_wrenches)[6:]


def crba(model, s, fp=None):
    """Joint-space mass matrix.

    The matrix is expressed in body coordinates [base twist, sdot] and
    therefore depends only on the joint configuration.
    """
    if fp is None:
        fp = forward_pass(model, Transform(), s, np.zeros(model.nv))
    return fp.mass_matrix()


def frame_jacobian(model, base_pose, s, frame_name, fp=None):
    """6x(6+n) Jacobian mapping nu to the frame velocity in frame coordinates."""
    if fp is None:
        fp = forward_pass(model, base_pose, s, np.zeros(model.nv))
    return fp.frame_jacobian(frame_name)


def compute_dynamics_terms(model, base_pose, s, nu, contact_frames=(), fp=None):
    """Mass matrix, full bias vector and contact Jacobians at the given state."""
    if fp is None:
        fp = forward_pass(model, base_pose, s, nu)
    bias = fp.inverse_dynamics(_static_proper_accel(model, base_pose))
    jacobians = {name: fp.frame_jacobian(name) for name in contact_frames}
    selection = np.zeros((model.nv, model.ndof))
    selection[6:, :] = np.eye(model.ndof)
    return DynamicsTerms(fp.mass_matrix(), bias, jacobians, selection)


def coriolis_bias(model, base_pose, s, nu, contact_wrenches=(), fp=None):
    """Generalized Coriolis/centrifugal bias minus contact forces.

    This is the bias of the proper-acceleration form (gravity lives in
    the proper acceleration, not here): M a_prop + coriolis = B tau + J^T f
    rearranged as M a_prop = B tau - coriolis_bias(...).
    """
    if fp is None:
        fp = forward_pass(model, base_pose, s, nu)
    return fp.inverse_dynamics(None, fp.link_wrenches(contact_wrenches))


def forward_dynamics(model, base_pose, s, nu, tau, contact_wrenches=()):
    """Generalized proper acceleration given joint torques and contact wrenches."""
    fp = forward_pass(model, base_pose, s, nu)
    rhs = -fp.inverse_dynamics(None, fp.link_wrenches(contact_wrenches))
    rhs[6:] += tau
    try:
        return np.linalg.solve(fp.mass_matrix(), rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"mass matrix solve failed: {exc}") from None


def com_position(model, base_pose, s, fp=None):
    """World center of mass."""
    if fp is None:
        H = _world_transforms(model, base_pose, joint_transforms(model, s))
        return model.arrays.mass @ _link_coms(model, H) / model.total_mass
    return fp.com_position()


def com_velocity(model, base_pose, s, nu, fp=None):
    """World center-of-mass velocity."""
    if fp is None:
        fp = forward_pass(model, base_pose, s, nu)
    return fp.com_velocity()


def mechanical_energy(model, base_pose, s, nu):
    """Total kinetic plus gravitational potential energy."""
    return forward_pass(model, base_pose, s, nu).mechanical_energy()
