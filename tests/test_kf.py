"""Constant-acceleration encoder filter: propagation, update, traces."""

import json

import numpy as np
import pytest

from reference_kf import (KfState, backward_difference, filter_trace_one,
                          kf_predict, kf_update, make_kf)
from torquesense import kf
from torquesense.kf import (
    encoder_lsb,
    filter_trace,
    process_noise,
    quantization_variance,
    save_gains,
    steady_state_gain,
    transition_matrix,
)


def test_encoder_quantization():
    assert encoder_lsb(12) == pytest.approx(2 * np.pi / 4096)
    lsb = encoder_lsb(12)
    assert quantization_variance(lsb) == pytest.approx(lsb * lsb / 12.0)
    # empirical variance of uniform rounding error matches lsb^2/12
    r = np.random.default_rng(0)
    x = r.uniform(-np.pi, np.pi, 200_000)
    err = np.round(x / lsb) * lsb - x
    assert np.isclose(np.var(err), quantization_variance(lsb), rtol=0.02)


def test_predict_propagation_examples():
    st = make_kf(dt=1e-3, lsb=encoder_lsb(12))
    st.mean[:] = [0.0, 1.0, 0.0]
    out = kf_predict(st)
    assert np.allclose(out.mean, [1e-3, 1.0, 0.0])
    st2 = make_kf(dt=0.5, lsb=encoder_lsb(12))
    st2.mean[:] = [0.0, 0.0, 2.0]
    out2 = kf_predict(st2)
    assert np.allclose(out2.mean, [0.25, 1.0, 2.0])
    F = transition_matrix(0.5)
    assert np.allclose(out2.mean, F @ st2.mean)


def test_zero_innovation_on_exact_quadratic():
    # exactly initialized state, Q = 0, unquantized quadratic input
    dt = 0.01
    x0, v0, a0 = 0.2, -0.5, 1.5
    st = KfState(np.array([x0, v0, a0]), np.diag([1.0, 1.0, 1.0]),
                 np.zeros((3, 3)), 1e-6, dt)
    for k in range(1, 50):
        st = kf_predict(st)
        t = k * dt
        z = x0 + v0 * t + 0.5 * a0 * t * t
        assert abs(st.mean[0] - z) < 1e-12
        st = kf_update(st, z)


def test_update_limits():
    st = make_kf(dt=1e-3, lsb=encoder_lsb(12))
    st.mean[:] = [1.0, 2.0, 3.0]
    # uninformative measurement leaves the state unchanged
    big_r = KfState(st.mean.copy(), st.cov.copy(), st.Q, 1e12, st.dt)
    out = kf_update(big_r, 5.0)
    assert np.allclose(out.mean, st.mean, atol=1e-9)
    # exact measurement pins the position
    small_r = KfState(st.mean.copy(), np.eye(3), st.Q, 1e-15, st.dt)
    out = kf_update(small_r, 5.0)
    assert abs(out.mean[0] - 5.0) < 1e-9


def test_covariance_symmetric_psd_over_many_cycles():
    st = make_kf(dt=1e-3, lsb=encoder_lsb(12), q_accel=0.5, q_jerk=50.0)
    r = np.random.default_rng(1)
    for _ in range(10_000):
        st = kf_predict(st)
        st = kf_update(st, r.normal())
    assert np.allclose(st.cov, st.cov.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(st.cov)) > 0.0


def test_unbiased_on_quadratic_trajectory():
    # exact model, exact measurements: velocity error converges to zero
    dt = 1e-3
    n = 5000
    t = np.arange(n) * dt
    z = 0.1 + 0.7 * t + 0.5 * 3.0 * t * t
    _, (v,), _ = filter_trace(z, dt, lsb=encoder_lsb(20), q_accel=[1e-3],
                              q_jerk=[1e3])
    true_v = 0.7 + 3.0 * t
    assert abs(v[-1] - true_v[-1]) < 1e-9


def test_filter_trace_matches_stepwise_filter():
    # the Joseph-form stepwise filter against the batched recursion's
    # scalar-measurement covariance step, over the GA-bounds candidates
    dt = 1e-3
    lsb = encoder_lsb(12)
    r = np.random.default_rng(2)
    z = np.cumsum(r.normal(scale=1e-3, size=300)) + 0.3
    q_accel, q_jerk = (np.concatenate([[q], qs]) for q, qs in
                       zip((0.7, 120.0), ga_bounds_candidates()))
    xs, vs, accs = filter_trace(z, dt, lsb, q_accel, q_jerk)
    for b, (qa, qj) in enumerate(zip(q_accel, q_jerk)):
        st = make_kf(dt, lsb, q_accel=qa, q_jerk=qj, initial_pos=z[0])
        for k in range(len(z)):
            st = kf_predict(st)
            st = kf_update(st, z[k])
            assert abs(st.mean[0] - xs[b, k]) < 1e-12
            assert abs(st.mean[1] - vs[b, k]) < 1e-10
            assert abs(st.mean[2] - accs[b, k]) < 1e-9


def test_smoother_than_finite_difference_on_quantized_input():
    # the tuning target: estimated jerk variance below finite-difference jerk
    dt = 1e-3
    lsb = encoder_lsb(12)
    t = np.arange(4000) * dt
    z = np.round(np.sin(2 * np.pi * t) / lsb) * lsb
    _, (v,), _ = filter_trace(z, dt, lsb, q_accel=[1e-2], q_jerk=[1e2])
    fd_v = backward_difference(z, dt)
    jerk = np.var(np.diff(v, 2) / dt ** 2)
    fd_jerk = np.var(np.diff(fd_v, 2) / dt ** 2)
    assert jerk < fd_jerk


def test_backward_difference():
    z = np.array([0.0, 1.0, 3.0, 6.0])
    assert np.allclose(backward_difference(z, 0.5), [0.0, 2.0, 4.0, 6.0])


def ga_bounds_candidates():
    """Densities across the GA's default bounds (log10 q_accel in
    [-4, 4], log10 q_jerk in [-2, 8]): the corners, the default gains
    and random draws."""
    r = np.random.default_rng(5)
    q_accel = np.concatenate([[1e-4, 1e4, 1e-4, 1e4, 1e-3],
                              10.0 ** r.uniform(-4.0, 4.0, 7)])
    q_jerk = np.concatenate([[1e-2, 1e8, 1e8, 1e-2, 200.0],
                             10.0 ** r.uniform(-2.0, 8.0, 7)])
    return q_accel, q_jerk


def test_batched_filter_matches_the_per_candidate_filter():
    dt, lsb = 1e-3, encoder_lsb(12)
    t = np.arange(1000) * dt
    z = np.round((0.3 * np.sin(2 * np.pi * 1.3 * t)
                  + 0.2 * np.sin(2 * np.pi * 0.5 * t + 1.0)) / lsb) * lsb
    q_accel, q_jerk = ga_bounds_candidates()
    xs, vs, accs = filter_trace(z, dt, lsb, q_accel, q_jerk)
    assert xs.shape == vs.shape == accs.shape == (len(q_accel), len(z))
    for b, (qa, qj) in enumerate(zip(q_accel, q_jerk)):
        x, v, a = filter_trace_one(z, dt, lsb, qa, qj)
        assert np.array_equal(xs[b], x)
        assert np.array_equal(vs[b], v)
        assert np.array_equal(accs[b], a)
    # a one-member batch gives that member's (1, n) traces
    x, v, a = filter_trace(z, dt, lsb, q_accel[4:5], q_jerk[4:5])
    assert x.shape == (1, len(z))
    assert np.array_equal(v[0], vs[4])


def recursion_limit(dt, lsb, q_accel, q_jerk, n_steps=20000):
    """(B, 3) gains of the plain covariance recursion (the steps of
    `gain_schedule`) after `n_steps` samples, one member per entry of
    the (B,) `lsb`."""
    r = quantization_variance(np.asarray(lsb, dtype=float))[:, None, None]
    F, Q = transition_matrix(dt), process_noise(dt, q_accel, q_jerk)
    P = np.zeros((len(r), 3, 3))
    P[:, 0, 0], P[:, 1, 1], P[:, 2, 2] = r[:, 0, 0], 1.0, 10.0
    for _ in range(n_steps):
        P = F @ P @ F.T + Q
        p, s = P[:, :, :1], P[:, :1, :1] + r
        P = P - p * p.transpose(0, 2, 1) / s
    return (p / s)[:, :, 0]


@pytest.mark.parametrize("q_accel, q_jerk, bits", [
    (1e-3, 200.0, [12, 16]), (1e4, 1e8, [12]),
    (1e-3, 200.0, range(1, 65))], ids=["default", "ga-corner", "1-64-bits"])
def test_the_steady_state_gain_is_the_limit_of_the_recursion(q_accel, q_jerk,
                                                             bits):
    # the 12-bit default gain used to stop 1.23e-12 short of the limit,
    # where a relative gain change of 1e-14 froze the recursion
    dt = 1e-3
    lsb = [encoder_lsb(b) for b in bits]
    K = steady_state_gain(dt, lsb, q_accel, q_jerk)
    ref = recursion_limit(dt, lsb, q_accel, q_jerk)
    assert K.shape == (len(lsb), 3)
    assert np.all(np.abs(K - ref) <= 1e-13 * np.abs(ref))


def test_the_steady_state_gain_of_a_member_does_not_depend_on_the_batch():
    dt = 1e-3
    lsb = np.array([encoder_lsb(bits) for bits in range(1, 65)])
    # the candidates hold the default densities
    for q_accel, q_jerk in zip(*ga_bounds_candidates()):
        K = steady_state_gain(dt, lsb, q_accel, q_jerk)
        for b, step in enumerate(lsb):
            assert np.array_equal(
                K[b], steady_state_gain(dt, step, q_accel, q_jerk)[0])


@pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4, 1e-6, 2.5e-9])
def test_every_steady_state_gain_is_finite_and_stable(dt):
    # under warnings-as-errors: nothing overflows or divides by zero on
    # the way, at every resolution and over the GA's bounds
    lsb = np.array([encoder_lsb(bits) for bits in range(1, 65)])
    F = transition_matrix(dt)
    for q_accel, q_jerk in zip(*ga_bounds_candidates()):
        K = steady_state_gain(dt, lsb, q_accel, q_jerk)
        assert np.all(np.isfinite(K))
        loop = F @ (np.eye(3) - K[:, :, None] * [1.0, 0.0, 0.0])
        assert np.max(np.abs(np.linalg.eigvals(loop))) < 1.0


@pytest.mark.parametrize("q_jerk", [0.0, -1.0])
def test_a_jerk_density_that_is_not_positive_is_refused(q_jerk):
    # with no jerk noise the acceleration is a constant the noise never
    # reaches, and no filter gain is stabilising
    with pytest.raises(ValueError) as exc:
        steady_state_gain(1e-3, encoder_lsb(12), 1e-3, q_jerk)
    assert str(exc.value) == ("the encoder-filter gain needs a positive "
                              f"q_jerk, got q_jerk={q_jerk:g}")


def test_a_scalar_lsb_is_one_member():
    # used to fail in _gain_blocks with "len() of unsized object"
    dt, lsb = 1e-3, encoder_lsb(12)
    K = steady_state_gain(dt, lsb, 1e-3, 200.0)
    assert K.shape == (1, 3)
    assert np.array_equal(K, steady_state_gain(dt, [lsb], 1e-3, 200.0))


def test_a_steady_state_gain_that_never_settles_is_rejected(monkeypatch):
    # every member converges within MAX_DOUBLINGS.  At 1 ms the 16-bit
    # gain takes 9 doublings and the 1-bit one 14, so a bound of 9
    # leaves the 1-bit member moving, and the message names it
    monkeypatch.setattr(kf, "MAX_DOUBLINGS", 9)
    steady_state_gain(1e-3, encoder_lsb(16), 1e-3, 200.0)
    with pytest.raises(ValueError) as exc:
        steady_state_gain(1e-3, [encoder_lsb(16), encoder_lsb(1)], 1e-3,
                          200.0)
    assert str(exc.value) == (
        "the encoder-filter gain for q_accel=0.001, q_jerk=200 at lsb "
        "3.14159 rad and a 0.001 s step does not converge within 9 "
        "doublings")


def test_validation_and_error_paths(tmp_path):
    with pytest.raises(ValueError):
        process_noise(1e-3, -1.0, 1.0)
    with pytest.raises(ValueError):
        process_noise(1e-3, np.array([1.0, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        KfState(np.zeros(3), np.eye(3), np.eye(3), 0.1, dt=0.0)
    with pytest.raises(ValueError):
        KfState(np.zeros(3), np.array([[1.0, 0.5, 0.0],
                                       [0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0]]), np.eye(3), 0.1, 1e-3)
    with pytest.raises(ValueError):
        filter_trace([1.0], 1e-3, encoder_lsb(12), [1.0], [1.0])
    bad = KfState(np.zeros(3), np.diag([-1.0, 1.0, 1.0]), np.zeros((3, 3)),
                  0.5, 1e-3)
    with pytest.raises(ArithmeticError):
        kf_update(bad, 0.0)


def test_gain_serialization_round_trip(tmp_path):
    gains = {"left_hip_pitch": {"q_accel": 0.12, "q_jerk": 345.0}}
    path = tmp_path / "gains.json"
    save_gains(path, gains)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc == {"schema_version": 1, "gains": gains}
