"""Unscented filter machinery and the joint-torque estimator."""

import numpy as np
import pytest

from chains import pendulum
from reference_ukf import (measurement_model, measurement_noise,
                           merwe_weights, process_model, reference_step,
                           sigma_points, step_terms, unscented_moments)
from torquesense.control import ControlConfig
from torquesense.experiments import run_scenario
from torquesense.model import FrameError, RobotModel, desk_biped
from torquesense.plant import ScenarioConfig
from torquesense.spatial import Transform, exp_so3
from torquesense.ukf import Belief, TorqueUkf


def random_spd(dim, seed, scale=1.0):
    r = np.random.default_rng(seed)
    A = r.normal(size=(dim, dim))
    return scale * (A @ A.T + dim * np.eye(dim))


def wire_imu(model):
    """`model` with an IMU and a push frame on its base, no FT sensors."""
    model.add_frame("imu", "base", Transform())
    model.add_frame("push", "base", Transform())
    model.imu_frame = "imu"
    model.push_frame = "push"
    return model


def pendulum_ukf(friction=True):
    return TorqueUkf(wire_imu(pendulum()), gear_torque=10.0,
                     dt=1e-3, friction=friction)


def biped_ukf(friction=True):
    return TorqueUkf(desk_biped(), gear_torque=10.0, dt=1e-3,
                     friction=friction)


def test_merwe_weights_sum():
    for dim in (1, 5, 48):
        wm, wc, lam = merwe_weights(dim, 1e-3, 2.0, 0.0)
        assert np.isclose(wm.sum(), 1.0, atol=1e-12)
        assert len(wm) == 2 * dim + 1


def test_sigma_point_reconstruction():
    for dim, seed in ((3, 0), (10, 1), (48, 2)):
        mean = np.random.default_rng(seed + 100).normal(size=dim)
        cov = random_spd(dim, seed)
        pts, wm, wc = sigma_points(mean, cov)
        m2, c2 = unscented_moments(pts, wm, wc)
        assert np.max(np.abs(m2 - mean)) < 1e-10
        assert np.max(np.abs(c2 - cov)) < 1e-10 * np.max(np.abs(cov))


def test_unscented_transform_exact_for_linear_maps():
    dim = 6
    mean = np.arange(dim, dtype=float)
    cov = random_spd(dim, 3)
    r = np.random.default_rng(4)
    A = r.normal(size=(4, dim))
    b = r.normal(size=4)
    pts, wm, wc = sigma_points(mean, cov)
    mapped = pts @ A.T + b
    m2 = mapped[0] + wm @ (mapped - mapped[0])
    d = mapped - m2
    c2 = (wc[:, None] * d).T @ d
    assert np.allclose(m2, A @ mean + b, atol=1e-9)
    assert np.allclose(c2, A @ cov @ A.T, atol=1e-9 * np.max(np.abs(cov)))


def test_sigma_points_degenerate_covariance_error():
    with pytest.raises(ArithmeticError, match="Cholesky"):
        sigma_points(np.zeros(3), -np.eye(3))


def test_step_rejects_degenerate_prior_covariance():
    ukf = pendulum_ukf()
    belief = ukf.initial_belief()
    z = measurement_model(ukf, belief.mean)[0]
    bad = belief.cov.copy()
    bad[0, 0] = -1e-3  # beyond the 1e-6 jitter the prior check allows
    with pytest.raises(ArithmeticError, match="prior covariance"):
        ukf.step(belief._replace(cov=bad), np.zeros(1), z)
    # a zero variance is a covariance and passes
    bad[0, 0] = 0.0
    m, c = ukf.step(belief._replace(cov=bad), np.zeros(1), z)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(c))


def test_step_factors_only_a_prior_it_did_not_make(monkeypatch):
    ukf = pendulum_ukf()
    belief = ukf.initial_belief()
    z = measurement_model(ukf, belief.mean)[0]
    sizes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: sizes.append(len(a)) or cholesky(a))
    array_form = len(z) + ukf.dim + 1

    def step(prior):
        sizes.clear()
        return ukf.step(prior, np.zeros(1), z)

    made = step(belief)
    assert sizes == [ukf.dim, array_form]
    # the belief its last step returned: the array form alone
    made = step(made)
    assert sizes == [array_form]
    # the same numbers in a belief built elsewhere are checked
    step(made._replace(cov=made.cov.copy()))
    assert sizes == [ukf.dim, array_form]


def test_a_belief_the_filter_made_cannot_be_edited():
    # the next step trusts it unchecked, so an edit would reach the
    # array form unseen
    ukf = pendulum_ukf()
    belief = ukf.initial_belief()
    made = ukf.step(belief, np.zeros(1),
                    measurement_model(ukf, belief.mean)[0])
    for a in made:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # a belief built from it is the caller's to edit
    copy = Belief(*(a.copy() for a in made))
    copy.cov[0, 0] = 1.0


def test_step_rejects_an_innovation_covariance_that_is_no_covariance():
    # a gyro measurement variance more negative than its prior and
    # process variances together
    ukf = pendulum_ukf()
    belief = ukf.initial_belief()
    z = measurement_model(ukf, belief.mean)[0]
    ukf.R[-1, -1] = -1.0
    with pytest.raises(ArithmeticError,
                       match="innovation covariance not positive definite"):
        ukf.step(belief, np.zeros(1), z)


def test_step_rejects_a_posterior_that_is_no_covariance():
    # a process variance more negative than the prior variance on the
    # external wrench, which no channel measures and which the
    # pendulum's base push frame keeps out of the joint velocity: the
    # innovation covariance stays positive definite, the posterior does
    # not
    ukf = pendulum_ukf()
    belief = ukf.initial_belief()
    z = measurement_model(ukf, belief.mean)[0]
    ext = ukf.slices["f_ext"].start
    ukf.Q[ext, ext] = -2.0 * belief.cov[ext, ext]
    with pytest.raises(ArithmeticError,
                       match="posterior covariance not positive definite"):
        ukf.step(belief, np.zeros(1), z)


def test_every_covariance_of_a_run_is_exactly_symmetric(monkeypatch):
    # the step forms the posterior as L22 L22^T and does not symmetrize
    # it: numpy's symmetric rank-k product makes it exactly symmetric
    covs = []
    step = TorqueUkf.step

    def recorded(self, *args):
        belief = step(self, *args)
        covs.append(belief.cov)
        return belief

    monkeypatch.setattr(TorqueUkf, "step", recorded)
    report, _ = run_scenario(ScenarioConfig(duration=0.6),
                             ControlConfig(mode="UKF-NoComp"))
    assert not report["diverged"] and len(covs) == 600
    assert all(np.array_equal(cov, cov.T) for cov in covs)


def jointless():
    """A floating base alone: its filter reads the IMU's 6 channels."""
    return wire_imu(RobotModel([("base", None, None, None, None, 5.0,
                                 (0.0, 0.0, 0.0), 0.1 * np.eye(3))]))


# the desk biped reads 42 channels with friction and 34 without; a model
# with no joints builds its one channel set too
@pytest.mark.parametrize("model, friction, channels, expected", [
    pytest.param(desk_biped, True, 43, 42, id="long-friction"),
    pytest.param(desk_biped, False, 35, 34, id="long-masked"),
    pytest.param(desk_biped, True, 41, 42, id="short-friction"),
    pytest.param(desk_biped, False, 33, 34, id="short-masked"),
    pytest.param(desk_biped, True, 34, 42, id="masked-to-friction"),
    pytest.param(desk_biped, False, 42, 34, id="friction-to-masked"),
    pytest.param(jointless, True, 12, 6, id="no-joints"),
])
def test_step_rejects_a_measurement_of_the_wrong_length(model, friction,
                                                        channels, expected):
    ukf = TorqueUkf(model(), gear_torque=10.0, dt=1e-3,
                    friction=friction)
    with pytest.raises(ValueError, match=f"^{channels} measurement channels, "
                       f"expected {expected}$"):
        ukf.step(ukf.initial_belief(), np.zeros(ukf.n), np.zeros(channels))


def relative_error(value, reference):
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


def random_base_motion(r):
    """A random base attitude and base linear velocity (2 m/s std): inputs
    the filter does not read and only the reference takes."""
    return exp_so3(r.normal(size=3)), r.normal(scale=2.0, size=3)


def test_step_terms_match_the_reference_at_any_base_pose_and_velocity():
    # the filter's pass runs at the identity base pose with zero base
    # linear velocity; the reference's runs at a random attitude and
    # velocity, so this pins both invariances.  The reference's affine
    # process map, applied to the zero state and to each unit state,
    # gives its c and the columns of its G.
    ukf = biped_ukf()
    r = np.random.default_rng(7)
    sd = ukf.slices["sdot"]
    unit = np.vstack([np.zeros(ukf.dim), np.eye(ukf.dim)])
    for _ in range(20):
        s = r.uniform(-1.0, 1.0, ukf.n)
        mean = r.normal(size=ukf.dim)
        G, c = ukf._step_terms(s, mean)
        terms = step_terms(ukf, s, *random_base_motion(r), mean)
        out = process_model(ukf, unit, terms)[:, sd]
        c_ref = out[0]
        G_ref = (out[1:] - unit[1:, sd] - c_ref).T
        assert relative_error(c, c_ref) <= 1e-12
        assert relative_error(G, G_ref) <= 1e-12


# alpha = 1 spreads the sigma points over the belief and the moment sums
# are well conditioned.  alpha = 1e-3 is the spread the filter used: its
# weights reach 1/alpha^2 and the reference's own moment sums lose ~6
# digits to cancellation, most visible in the weakly observed external
# wrench (the closed form agrees with an extended-precision evaluation
# of the same update to ~1e-14, the alpha = 1e-3 reference to ~3e-9).
# The reference runs at a random base attitude and velocity each step,
# which the filter does not read.
@pytest.mark.parametrize("alpha, mean_tol", [(1.0, 1e-9), (1e-3, 1e-8)])
@pytest.mark.parametrize("friction", [True, False], ids=["friction", "masked"])
def test_step_matches_sigma_point_reference(alpha, mean_tol, friction):
    ukf = biped_ukf(friction)
    r = np.random.default_rng(0)
    belief = ukf.initial_belief()
    A = r.normal(size=(ukf.dim, ukf.dim))
    belief = belief._replace(mean=r.normal(scale=0.5, size=ukf.dim),
                             cov=belief.cov + 0.01 * A @ A.T / ukf.dim)
    for _ in range(200):
        s = r.normal(scale=0.3, size=ukf.n)
        base_R, base_lin_vel = random_base_motion(r)
        truth = belief.mean + r.normal(scale=0.5, size=ukf.dim)
        z = measurement_model(ukf, truth, friction)[0]
        # both steps start from the reference's belief
        b1 = ukf.step(belief, s, z)
        belief = reference_step(ukf, belief, s, base_R, base_lin_vel, z,
                                alpha=alpha)
        assert relative_error(b1.mean, belief.mean) <= mean_tol
        assert relative_error(b1.cov, belief.cov) <= 1e-12


def test_step_is_a_function_of_its_inputs():
    ukf = biped_ukf()
    r = np.random.default_rng(1)
    belief = ukf.initial_belief()
    belief = ukf.step(belief, r.normal(scale=0.3, size=ukf.n),
                      measurement_model(ukf, r.normal(size=ukf.dim))[0])
    s = r.normal(scale=0.3, size=ukf.n)
    z = measurement_model(ukf, r.normal(size=ukf.dim))[0]
    copy = Belief(*(a.copy() for a in belief))
    first = ukf.step(belief, s, z)
    second = ukf.step(belief, s, z)
    # a second filter on the same model, run from a copy of the belief
    other = biped_ukf()
    third = other.step(copy, s, z)
    for a, b, c in zip(first, second, third):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    for a, b in zip(belief, copy):
        assert np.array_equal(a, b)  # the belief passed in is not changed


def test_state_layout_and_dimensions():
    n = 8
    for friction in (True, False):
        ukf = biped_ukf(friction)
        assert ukf.dim == n * 3 + 6 * 2 + 6 + 3 + 3
        mean, cov = ukf.initial_belief()
        assert mean.shape == (ukf.dim,)
        assert np.min(np.linalg.eigvalsh(cov)) > 0.0
        # the one channel set built from the block table is the layout
        # spelt out block by block, with the friction channel only if the
        # filter is built with it
        H = measurement_model(ukf, np.eye(ukf.dim), friction).T
        R = measurement_noise(ukf, friction)
        assert len(H) == n + n + n * friction + 12 + 3 + 3
        assert np.array_equal(ukf.H, H) and np.array_equal(ukf.R, R)
        assert np.array_equal(ukf._R_inv, 1.0 / np.diag(R))
    # friction or not, the states and their process noise are the same
    assert np.array_equal(ukf.Q, biped_ukf().Q)


def test_imu_frame_must_be_on_base():
    model = desk_biped()
    model.imu_frame = model.push_frame
    with pytest.raises(ValueError, match="base"):
        TorqueUkf(model, gear_torque=10.0, dt=1e-3, friction=True)


def test_wrench_frames_are_resolved_when_the_filter_is_built():
    # an unknown external-wrench frame used to build and raise FrameError
    # at the first step
    model = desk_biped()
    model.push_frame = "nope"
    with pytest.raises(FrameError, match="unknown frame 'nope'"):
        TorqueUkf(model, gear_torque=10.0, dt=1e-3, friction=True)
    model = wire_imu(pendulum())
    model.ft_frames = ("ft",)
    with pytest.raises(FrameError, match="unknown frame 'ft'"):
        TorqueUkf(model, gear_torque=10.0, dt=1e-3, friction=True)
    # a model that declares no push frame has no frame for the wrench
    model = wire_imu(pendulum())
    model.push_frame = None
    with pytest.raises(FrameError, match="unknown frame 'None'"):
        TorqueUkf(model, gear_torque=10.0, dt=1e-3, friction=True)


def test_process_model_only_advances_velocities():
    ukf = pendulum_ukf()
    r = np.random.default_rng(5)
    mean = r.normal(size=ukf.dim) * 0.1
    G, c = ukf._step_terms(np.zeros(1), mean)
    sl = ukf.slices
    for x in r.normal(size=(7, ukf.dim)):
        out = ukf.process_model(x, G, c)
        for name in ("tau_m", "tau_f", "f_ext", "alpha", "omega"):
            assert np.array_equal(out[sl[name]], x[sl[name]])
        assert not np.allclose(out[sl["sdot"]], x[sl["sdot"]])


def test_assemble_measurement_matches_model_layout():
    ukf = biped_ukf()
    n = ukf.n
    ft = np.arange(12.0).reshape(2, 6)
    z = ukf.assemble_measurement(np.ones(n), 0.5 * np.ones(n),
                                 2.0 * np.ones(n), ft, np.zeros(3),
                                 np.zeros(3))
    assert len(z) == measurement_model(ukf, np.zeros(ukf.dim)).shape[1]
    assert np.array_equal(z[2 * n:3 * n], 2.0 * np.ones(n))
    # a filter built without the friction channel does not read it
    masked = biped_ukf(friction=False)
    z_masked = masked.assemble_measurement(np.ones(n), 0.5 * np.ones(n),
                                           None, ft, np.zeros(3),
                                           np.zeros(3))
    assert np.array_equal(z_masked, np.delete(z, np.s_[2 * n:3 * n]))
    # FT wrenches appear in the model's ft_frames order
    assert np.array_equal(z[3 * n:3 * n + 12], np.arange(12.0))


def test_joint_torque_estimate():
    ukf = pendulum_ukf()
    mean = np.zeros(ukf.dim)
    mean[ukf.slices["tau_m"]] = 5.0
    mean[ukf.slices["tau_f"]] = 1.2
    assert np.allclose(ukf.joint_torque_estimate(mean), 3.8)


def static_pendulum_truth(ukf):
    """A fixed point of the filter's process model for the pendulum."""
    import torquesense.dynamics as dyn
    model = ukf.model
    fp = dyn.forward_pass(model, Transform(), np.zeros(1), np.zeros(model.nv))
    gravity_tau = fp.inverse_dynamics(dyn.static_proper_accel(fp))[6:]
    truth = np.zeros(ukf.dim)
    truth[ukf.slices["tau_f"]] = 0.4
    truth[ukf.slices["tau_m"]] = gravity_tau + 0.4
    truth[ukf.slices["alpha"]] = [0.0, 0.0, 9.81]
    return truth


def test_zero_noise_self_consistency_contracts():
    ukf = pendulum_ukf()
    truth = static_pendulum_truth(ukf)
    # the truth state is stationary under the process model
    G, c = ukf._step_terms(np.zeros(1), truth)
    assert np.allclose(ukf.process_model(truth, G, c), truth, atol=1e-12)

    z = measurement_model(ukf, truth)[0]
    # start well away from the truth
    belief = ukf.initial_belief()._replace(mean=truth + 0.5)
    errs = []
    for _ in range(3000):
        belief = ukf.step(belief, np.zeros(1), z)
        errs.append(np.max(np.abs(ukf.joint_torque_estimate(belief.mean)
                                  - ukf.joint_torque_estimate(truth))))
    assert errs[-1] < 1e-6
    assert errs[-1] < errs[0]


def test_covariance_stays_psd_under_filtering():
    ukf = pendulum_ukf()
    truth = static_pendulum_truth(ukf)
    z = measurement_model(ukf, truth)[0]
    r = np.random.default_rng(6)
    belief = ukf.initial_belief()
    for k in range(500):
        zn = z + r.normal(scale=0.01, size=len(z))
        belief = ukf.step(belief, np.zeros(1), zn)
        cov = belief.cov
        if k % 100 == 0:
            assert np.allclose(cov, cov.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-12
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def test_masked_step_ignores_friction_measurement():
    ukf = pendulum_ukf(friction=False)
    truth = static_pendulum_truth(ukf)

    def measure(tau_f):
        return ukf.assemble_measurement(
            truth[ukf.slices["sdot"]],
            truth[ukf.slices["tau_m"]] / ukf.gear_torque, tau_f,
            np.zeros((0, 6)), truth[ukf.slices["alpha"]],
            truth[ukf.slices["omega"]])

    z_masked = measure(None)
    assert len(z_masked) == ukf.n * 2 + 3 + 3
    # with the channel masked, the friction state only moves through the
    # dynamics coupling, so the update does not depend on any friction
    # measurement value at all
    assert np.array_equal(measure(1e6 * np.ones(ukf.n)), z_masked)
    m1 = ukf.step(ukf.initial_belief(), np.zeros(1), z_masked).mean
    assert np.all(np.isfinite(m1))
