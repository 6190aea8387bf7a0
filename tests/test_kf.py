"""Constant-acceleration encoder filter: propagation, update, traces."""

import json

import numpy as np
import pytest

from reference_kf import (KfState, backward_difference, filter_trace_one,
                          gain_schedule, kf_predict, kf_update, make_kf)
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
    r = quantization_variance(lsb)
    steps = [len(gain_schedule(dt, process_noise(dt, qa, qj), r, len(z)))
             for qa, qj in zip(q_accel, q_jerk)]
    # members that freeze early, late and never within the trace
    assert min(steps) < 100 and max(steps) == len(z)
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


def schedules(dt, lsb, n):
    """Process noises and per-member reference gain schedules of the
    GA-bounds candidates over n samples."""
    q_accel, q_jerk = ga_bounds_candidates()
    Q = process_noise(dt, q_accel, q_jerk)
    r = quantization_variance(lsb)
    return Q, r, [gain_schedule(dt, Qb, r, n) for Qb in Q]


@pytest.mark.parametrize("block", ["freeze-first", "freeze-last", 7, 64])
def test_gain_blocks_match_the_per_member_schedule(monkeypatch, block):
    dt, lsb, n = 1e-3, encoder_lsb(12), 1000
    Q, r, refs = schedules(dt, lsb, n)
    # the distinct freeze lengths: two members may freeze at one step
    steps = sorted({len(ref) for ref in refs})
    assert steps[0] < steps[1] < steps[-1] == n
    # a member freezes at the step len(ref) - 1: first in a block, so
    # tested against the last gain of the block before, or last in one
    size = {"freeze-first": steps[1] - 1,
            "freeze-last": steps[1]}.get(block, block)
    monkeypatch.setattr(kf, "GAIN_BLOCK", size)
    gains = np.concatenate([G for G, _ in kf._gain_blocks(
        dt, Q, np.full(len(Q), r), n)])
    # some members never freeze within n, so the blocks cover every sample
    assert gains.shape == (n, 3, len(Q))
    for b, ref in enumerate(refs):
        held = np.array(ref + ref[-1:] * (n - len(ref)))
        assert np.array_equal(gains[:, :, b], held)
    z = np.round(0.3 * np.sin(np.arange(n) * dt * 8.0) / lsb) * lsb
    xs, vs, _ = filter_trace(z, dt, lsb, *ga_bounds_candidates())
    for b, (qa, qj) in enumerate(zip(*ga_bounds_candidates())):
        x, v, _ = filter_trace_one(z, dt, lsb, qa, qj)
        assert np.array_equal(xs[b], x) and np.array_equal(vs[b], v)


@pytest.mark.parametrize("size", [7, 64])
def test_gain_recursion_stops_with_the_block_of_the_last_freeze(monkeypatch,
                                                                 size):
    dt, lsb, n = 1e-3, encoder_lsb(12), 20000
    Q, r, refs = schedules(dt, lsb, n)
    # the members that freeze within n, at steps far apart
    keep = [b for b, ref in enumerate(refs) if len(ref) < n]
    Q, refs = Q[keep], [refs[b] for b in keep]
    last = max(len(ref) for ref in refs)
    assert len(refs) > 3 and min(len(ref) for ref in refs) < last / 10
    monkeypatch.setattr(kf, "GAIN_BLOCK", size)
    blocks = [G for G, _ in kf._gain_blocks(dt, Q, np.full(len(Q), r), n)]
    # every block but the last is full, and the last holds the final freeze
    assert [len(G) for G in blocks] == [size] * len(blocks)
    assert (len(blocks) - 1) * size < last <= len(blocks) * size
    for b, ref in enumerate(refs):
        assert np.array_equal(blocks[-1][-1][:, b], ref[-1])


def test_steady_state_gain_is_the_last_gain_of_the_schedule():
    dt = 1e-3
    lsb = np.array([encoder_lsb(12), encoder_lsb(16), encoder_lsb(20)])
    K = steady_state_gain(dt, lsb, 1e-3, 200.0)
    assert K.shape == (3, 3)
    for b in range(3):
        ref = gain_schedule(dt, process_noise(dt, 1e-3, 200.0),
                            quantization_variance(lsb[b]), 20000)
        assert len(ref) < 20000
        assert np.array_equal(K[b], ref[-1])


@pytest.mark.parametrize("q_accel, q_jerk", [(1e-3, 200.0), (1e4, 1e8)],
                         ids=["default", "ga-corner"])
def test_the_settle_verdict_does_not_depend_on_the_resolution(q_accel,
                                                              q_jerk):
    # at the default densities and at a corner of the GA's bounds the
    # gain settles at every resolution from 1 to 64 bits, and a finer
    # encoder settles no later, up to one step: from 24 bits on, the
    # default gain's last relative change is 0.9-1.03e-14, within
    # rounding of GAIN_TOL.  An absolute test |K_k - K_(k-1)|_1 < 1e-14
    # on gains up to ~5e5 settled 24 bits and refused 30, 40 and 64
    dt = 1e-3
    lsb = np.array([encoder_lsb(bits) for bits in range(1, 65)])
    assert steady_state_gain(dt, lsb, q_accel, q_jerk).shape == (64, 3)
    Q = process_noise(dt, q_accel, q_jerk)
    steps = [len(gain_schedule(dt, Q, quantization_variance(step), 20000))
             for step in lsb]
    assert max(steps) < 20000
    for b in range(1, 64):
        assert steps[b] <= min(steps[:b]) + 1, (b + 1, steps)


def test_a_scalar_lsb_is_one_member():
    # used to fail in _gain_blocks with "len() of unsized object"
    dt, lsb = 1e-3, encoder_lsb(12)
    K = steady_state_gain(dt, lsb, 1e-3, 200.0)
    assert K.shape == (1, 3)
    assert np.array_equal(K, steady_state_gain(dt, [lsb], 1e-3, 200.0))
    with pytest.raises(ValueError, match=r"q_accel=275, q_jerk=0\.0284 at "
                       r"lsb 0\.00153398 rad does not settle"):
        steady_state_gain(dt, lsb, 275.0, 0.0284)


def test_a_steady_state_gain_that_never_settles_is_rejected():
    # still moving ~2e-4 per step at step 20000
    with pytest.raises(ValueError, match=r"q_accel=275, q_jerk=0\.0284 at "
                       r"lsb 0\.00153398 rad does not settle"):
        steady_state_gain(1e-3, [encoder_lsb(12)], 275.0, 0.0284)


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
