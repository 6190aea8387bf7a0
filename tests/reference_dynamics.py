"""Per-link reference implementations of the dynamics and the contact model.

These are the straightforward recursions: one Python step per link,
spatial vectors in link coordinates, and one per corner for the foot
contacts.  The batched pass in `torquesense.dynamics` and the contact
kernel in `torquesense.plant` must agree with them to rounding; the
tests in `test_batched_pass.py` check that.
"""

import numpy as np

from torquesense.friction import scv_friction
from torquesense.model import FOOT_CORNERS
from torquesense.plant import Plant
from torquesense.spatial import Transform, cross3, exp_so3

from reference_spatial import (apply, compose, cross_force, force_matrix,
                               inverse, link_inertia, motion_matrix,
                               rotation_about_axis, transform_force,
                               transform_motion, transform_motion_inv)


def joint_transforms(model, s):
    """Per-link transforms parent<-link for joint configuration s."""
    Xs = [Transform()]
    for link in model.links[1:]:
        Rj = rotation_about_axis(link.axis, s[link.dof])
        Xs.append(Transform(link.origin.R @ Rj, link.origin.p))
    return Xs


def forward_kinematics(model, base_pose, s, Xs=None):
    """World transform of every link, in link-index order."""
    if Xs is None:
        Xs = joint_transforms(model, s)
    world = [base_pose]
    for link in model.links[1:]:
        world.append(compose(world[link.parent], Xs[link.index]))
    return world


def generalized_rnea(model, base_pose, s, nu, accel, contact_wrenches=(), Xs=None):
    """Recursive Newton-Euler over [base wrench (base frame), joint torques]."""
    n_links = len(model.links)
    if Xs is None:
        Xs = joint_transforms(model, s)

    fext = [None] * n_links
    for frame_name, wrench in contact_wrenches:
        idx, offset = model.frame(frame_name)
        w = transform_force(offset, np.asarray(wrench, dtype=float))
        fext[idx] = w if fext[idx] is None else fext[idx] + w

    v = [None] * n_links
    a = [None] * n_links
    f = [None] * n_links
    v[0] = np.asarray(nu[:6], dtype=float)
    a[0] = np.asarray(accel[:6], dtype=float)
    inertias = [link_inertia(link) for link in model.links]
    f[0] = inertias[0] @ a[0] + cross_force(v[0], inertias[0] @ v[0])
    if fext[0] is not None:
        f[0] = f[0] - fext[0]

    for link in model.links[1:]:
        i = link.index
        vi = transform_motion_inv(Xs[i], v[link.parent])
        ai = transform_motion_inv(Xs[i], a[link.parent])
        w = link.axis * nu[6 + link.dof]
        vi[3:] += w
        ai[3:] += link.axis * accel[6 + link.dof]
        # cross_motion(vi, [0, w]) exploiting the zero linear part
        ai[:3] += cross3(vi[:3], w)
        ai[3:] += cross3(vi[3:], w)
        v[i] = vi
        a[i] = ai
        fi = inertias[i] @ ai + cross_force(vi, inertias[i] @ vi)
        if fext[i] is not None:
            fi = fi - fext[i]
        f[i] = fi

    out = np.zeros(model.nv)
    for link in reversed(model.links[1:]):
        i = link.index
        out[6 + link.dof] = link.axis @ f[i][3:]
        f[link.parent] = f[link.parent] + transform_force(Xs[i], f[i])
    out[:6] = f[0]
    return out


def coriolis_bias(model, base_pose, s, nu, contact_wrenches=(), Xs=None):
    """RNEA at zero proper acceleration."""
    return generalized_rnea(model, base_pose, s, nu, np.zeros(model.nv),
                            contact_wrenches, Xs=Xs)


def crba(model, s, Xs=None):
    """Joint-space mass matrix via the composite-rigid-body algorithm."""
    nv = model.nv
    if Xs is None:
        Xs = joint_transforms(model, s)
    # motion transform of the inverse is the transpose of the force transform
    Xf = [force_matrix(X) for X in Xs]

    Ic = [link_inertia(link) for link in model.links]
    for link in reversed(model.links[1:]):
        Xfi = Xf[link.index]
        Ic[link.parent] += Xfi @ Ic[link.index] @ Xfi.T

    M = np.zeros((nv, nv))
    M[:6, :6] = Ic[0]
    for link in model.links[1:]:
        j = link.dof
        F = Ic[link.index][:, 3:] @ link.axis
        M[6 + j, 6 + j] = link.axis @ F[3:]
        i = link.index
        while model.links[i].parent >= 0:
            F = Xf[i] @ F
            i = model.links[i].parent
            li = model.links[i]
            if i > 0:
                M[6 + li.dof, 6 + j] = li.axis @ F[3:]
                M[6 + j, 6 + li.dof] = M[6 + li.dof, 6 + j]
        M[:6, 6 + j] = F
        M[6 + j, :6] = F
    return M


def link_states(model, base_pose, s, nu, Xs=None):
    """World transform and body-frame spatial velocity of every link."""
    if Xs is None:
        Xs = joint_transforms(model, s)
    world = forward_kinematics(model, base_pose, s, Xs=Xs)
    vels = [np.asarray(nu[:6], dtype=float)]
    for link in model.links[1:]:
        vp = transform_motion_inv(Xs[link.index], vels[link.parent])
        vp[3:] += link.axis * nu[6 + link.dof]
        vels.append(vp)
    return world, vels


def frame_jacobian(model, base_pose, s, frame_name):
    """6x(6+n) Jacobian mapping nu to the frame velocity in frame coordinates."""
    idx, offset = model.frame(frame_name)
    world = forward_kinematics(model, base_pose, s)
    H_frame = compose(world[idx], offset)

    J = np.zeros((6, model.nv))
    H_fb = compose(inverse(H_frame), base_pose)
    J[:, :6] = motion_matrix(H_fb)
    i = idx
    while i > 0:
        link = model.links[i]
        S = np.concatenate([np.zeros(3), link.axis])
        H_fl = compose(inverse(H_frame), world[i])
        J[:, 6 + link.dof] = transform_motion(H_fl, S)
        i = link.parent
    return J


def link_wrenches(fp, frame_wrenches):
    """(n_links, 6) world-origin wrenches, the form
    `ForwardPass.inverse_dynamics` takes, from (frame name, wrench)
    pairs at the pass `fp`'s state; None when there are none.

    Each wrench is given in its frame's coordinates at the frame origin.
    """
    out = None
    for frame_name, wrench in frame_wrenches:
        idx, offset = fp.model.frame(frame_name)
        H = fp.H[idx] @ offset.homogeneous()
        w = np.asarray(wrench, dtype=float)
        force = H[:3, :3] @ w[:3]
        if out is None:
            out = np.zeros((len(fp.H), 6))
        out[idx, :3] += force
        out[idx, 3:] += H[:3, :3] @ w[3:] + cross3(H[:3, 3], force)
    return out


def com_velocity(model, base_pose, s, nu):
    """World center-of-mass velocity."""
    world, v = link_states(model, base_pose, s, nu)
    vel = np.zeros(3)
    for link, H, vi in zip(model.links, world, v):
        v_com_local = vi[:3] + cross3(vi[3:], link.com)
        vel += link.mass * (H.R @ v_com_local)
    return vel / model.total_mass


def mechanical_energy(model, base_pose, s, nu):
    """Total kinetic plus gravitational potential energy."""
    world, v = link_states(model, base_pose, s, nu)
    kinetic = 0.0
    potential = 0.0
    for link, H, vi in zip(model.links, world, v):
        kinetic += 0.5 * vi @ (link_inertia(link) @ vi)
        potential -= link.mass * model.gravity @ apply(H, link.com)
    return kinetic + potential


def contact_wrenches(plant, t, world, vels, counts=None):
    """(soles, 6) contact wrenches in the sole frames, one corner at a
    time; zero for a sole none of whose corners touches.

    `counts`, if given, is a dict whose "touch" and "clipped" entries
    grow by the touching corners and by those the friction cone clips.
    """
    cfg = plant.config.contact
    out = np.zeros((len(plant.model.sole_frames), 6))
    for k, frame in enumerate(plant.model.sole_frames):
        idx, offset = plant.model.frame(frame)
        H = compose(world[idx], offset)
        v_link = vels[idx]
        F_tot = np.zeros(3)
        N_tot = np.zeros(3)
        for ci, corner in enumerate(FOOT_CORNERS):
            c_link = apply(offset, corner)
            p_w = apply(world[idx], c_link)
            pen = plant.ground_height(frame, t, corner[0]) - p_w[2]
            if pen <= 0.0:
                continue
            v_w = world[idx].R @ (v_link[:3] + cross3(v_link[3:], c_link))
            fz = cfg["stiffness"] * pen - cfg["damping"] * v_w[2]
            if fz <= 0.0:
                continue
            ft = -cfg["tangential_damping"] * v_w[:2]
            ft_mag = np.hypot(ft[0], ft[1])
            limit = cfg["mu"] * fz
            if ft_mag > limit:
                ft = ft * (limit / ft_mag)
            if counts is not None:
                counts["touch"] += 1
                counts["clipped"] += ft_mag > limit
            F = np.array([ft[0], ft[1], fz])
            F_tot += F
            N_tot += cross3(p_w - H.p, F)
        out[k] = np.concatenate([H.R.T @ F_tot, H.R.T @ N_tot])
    return out


def disturbance_wrenches(plant, t, world):
    """Active disturbances as (frame, wrench in frame coordinates)."""
    out = []
    for ev in plant.config.disturbances:
        if not (ev.time <= t < ev.time + ev.duration):
            continue
        idx, offset = plant.model.frame(ev.frame)
        H = compose(world[idx], offset)
        w = np.concatenate([H.R.T @ np.asarray(ev.force, dtype=float),
                            H.R.T @ np.asarray(ev.torque, dtype=float)])
        out.append((ev.frame, w))
    return out


class ReferencePlant(Plant):
    """`Plant` whose derivative runs the per-link recursions above."""

    def _derivative(self, t, y, R0, currents):
        n = self.n
        p, dlt, twist, s, sdot, phi, phid = self._unpack(y)
        R = R0 @ exp_so3(dlt)
        base_pose = Transform(R, p)

        Xs = joint_transforms(self.model, s)
        nu = np.concatenate([twist, sdot])
        world, vels = link_states(self.model, base_pose, s, nu, Xs=Xs)

        contacts = contact_wrenches(self, t, world, vels)
        wrenches = list(zip(self.model.sole_frames, contacts))
        wrenches += disturbance_wrenches(self, t, world)

        motor_torque = self.reduction * self.k_t * currents
        tau_f = scv_friction(self.scv, phid, self.config.friction_smoothing)
        tau = self.elastic_k * (phi - s) + self.elastic_d * (phid - sdot)
        phidd = (motor_torque - tau_f - tau) / (self.reduction ** 2 * self.motor_inertia)

        M = crba(self.model, s, Xs=Xs)
        c = coriolis_bias(self.model, base_pose, s, nu, wrenches, Xs=Xs)
        if self.config.lock_base:
            a_static = np.zeros(self.model.nv)
            a_static[:3] = -R.T @ self.model.gravity
            rhs = tau - c[6:] - M[6:, :6] @ a_static[:6]
            sdd = np.linalg.solve(M[6:, 6:], rhs)
            a_prop = np.concatenate([a_static[:6], sdd])
            base_acc_coord = np.zeros(6)
        else:
            rhs = -c
            rhs[6:] += tau
            a_prop = np.linalg.solve(M, rhs)
            base_acc_coord = a_prop[:6].copy()
            base_acc_coord[:3] += R.T @ self.model.gravity
            sdd = a_prop[6:]

        w = twist[3:]
        ydot = np.empty_like(y)
        ydot[0:3] = R @ twist[:3]
        ydot[3:6] = w + 0.5 * cross3(dlt, w) + cross3(dlt, cross3(dlt, w)) / 12.0
        ydot[6:12] = 0.0 if self.config.lock_base else base_acc_coord
        ydot[12:12 + n] = sdot
        ydot[12 + n:12 + 2 * n] = sdd
        ydot[12 + 2 * n:12 + 3 * n] = phid
        ydot[12 + 3 * n:12 + 4 * n] = phidd

        info = {
            "tau": tau, "tau_friction": tau_f, "contact_wrenches": contacts,
            "base_prop_acc": a_prop[:6], "joint_acc": sdd, "world": world,
        }
        return ydot, info

    def _truth(self, info):
        com = np.zeros(3)
        for link, H in zip(self.model.links, info.pop("world")):
            com += link.mass * apply(H, link.com)
        return dict(info, com=com / self.model.total_mass)
