"""Learned friction estimator: gradients, loss algebra, training, files."""

import json

import numpy as np
import pytest

import reference_pinn
from reference_pinn import hybrid_loss
from torquesense import pinn
from torquesense.friction import ScvParams, scv_friction
from torquesense.pinn import (
    FrictionNet,
    build_samples,
    load_nets,
    loss_and_grads,
    physics_targets,
    predict,
    predict_bounded,
    save_nets,
    train,
    validation_mse,
)

SCV = ScvParams(coulomb=1.0, breakaway=2.0, stribeck_vel=0.1, viscous=0.5)


def make_net(buffer_len=3, hidden1=6, hidden2=5, lam=0.3, seed=0):
    return FrictionNet(buffer_len, hidden1, hidden2, lam, SCV, seed=seed)


def constant_net(value, buffer_len=1, lam=0.5):
    net = FrictionNet(buffer_len, 2, 2, lam, SCV, seed=0)
    net.params["W3"][:] = 0.0
    net.params["b3"][:] = value
    return net


def synthetic_log(n=3000, amp=2.0, seed=0):
    t = np.arange(n) * 1e-3
    v = amp * np.sin(2 * np.pi * 0.7 * t) + 0.3 * np.sin(2 * np.pi * 2.3 * t)
    friction = scv_friction(SCV, v)
    return t, v, v.copy(), friction


def random_samples(n, buffer_len=3, seed=1):
    r = np.random.default_rng(seed)
    return (r.normal(size=(n, buffer_len)), r.normal(size=(n, buffer_len)),
            r.normal(size=n))


def empty_samples(buffer_len=3):
    return np.empty((0, buffer_len)), np.empty((0, buffer_len)), np.empty(0)


def test_sample_validation():
    t, mv, jv, fr = synthetic_log(n=10)
    with pytest.raises(ValueError, match="equal lengths, got t, motor_vel, "
                       "joint_vel, friction = 10, 10, 9, 10"):
        build_samples(t, mv, jv[:9], fr, buffer_len=3)
    fr = fr.copy()
    fr[6] = np.nan
    with pytest.raises(ValueError, match="not finite at sample 6: nan"):
        build_samples(t, mv, jv, fr, buffer_len=3)
    # a non-finite value before the first full window is never a target
    fr[6] = fr[7]
    fr[1] = np.inf
    build_samples(t, mv, jv, fr, buffer_len=3)


def test_net_validation():
    with pytest.raises(ValueError):
        make_net(lam=1.5)
    with pytest.raises(ValueError):
        FrictionNet(2, 4, 4, 0.5, SCV, norm_std=[1.0, 0.0, 1.0, 1.0])
    net = make_net(buffer_len=3)
    with pytest.raises(ValueError):
        net.features(np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("arg", ["buffer_len", "hidden1", "hidden2"])
@pytest.mark.parametrize("size", [0, -1])
def test_net_rejects_empty_layers_by_name(arg, size):
    with pytest.raises(ValueError, match=f"^{arg} must be at least 1"):
        make_net(**{arg: size})


def test_sample_sets_are_checked_by_name():
    net = make_net(buffer_len=3)
    motor, joint, targets = random_samples(5)
    for call in (train, validation_mse):
        with pytest.raises(ValueError, match="samples must be nonempty"):
            call(net, empty_samples())
        with pytest.raises(ValueError, match="one target per buffer row, "
                           "got 5 rows and 4 targets"):
            call(net, (motor, joint, targets[:4]))


def test_predict_takes_row_buffers_only():
    # one buffer is a (1, L) row; a bare length-L vector is refused
    net = make_net(buffer_len=3)
    for f in (predict, predict_bounded):
        with pytest.raises(ValueError, match=r"\(k, 3\) arrays"):
            f(net, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match=r"got \(2, 3\) and \(2, 4\)"):
            f(net, np.zeros((2, 3)), np.zeros((2, 4)))


def test_zero_output_layer_predicts_zero():
    net = constant_net(0.0, buffer_len=4)
    assert np.array_equal(predict(net, np.zeros((1, 4)), np.zeros((1, 4))),
                          [0.0])
    assert np.array_equal(predict(net, np.ones((2, 4)), -np.ones((2, 4))),
                          [0.0, 0.0])


def test_inference_deterministic():
    net = make_net()
    r = np.random.default_rng(0)
    m, j = r.normal(size=(4, 3)), r.normal(size=(4, 3))
    assert np.array_equal(predict(net, m, j), predict(net, m, j))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_prediction_shape_follows_the_buffers(k):
    # (k, L) buffers give a (k,) array, one-row batches included, and
    # each row gives what it gives as a one-row batch
    net = make_net(seed=3)
    r = np.random.default_rng(k)
    motor, joint = 3.0 * r.normal(size=(k, 3)), r.normal(size=(k, 3))
    for f in (predict, predict_bounded):
        out = f(net, motor, joint)
        assert isinstance(out, np.ndarray) and out.shape == (k,)
        rows = [f(net, m[None], j[None]) for m, j in zip(motor, joint)]
        assert all(x.shape == (1,) for x in rows)
        assert np.allclose(out, np.concatenate(rows), rtol=1e-12, atol=0.0)


def test_hybrid_loss_decomposition():
    motor, joint, targets = samples = random_samples(16)

    for lam in (0.0, 0.37, 1.0):
        net = make_net(lam=lam, seed=2)
        pred = predict(net, motor, joint)
        phys = np.array([scv_friction(SCV, m[-1]) for m in motor])
        expected = ((1.0 - lam) * np.mean((pred - targets) ** 2)
                    + lam * np.mean((pred - phys) ** 2))
        assert hybrid_loss(net, samples) == pytest.approx(expected, rel=1e-12)

    # lam=1 ignores the targets entirely
    net1 = make_net(lam=1.0, seed=2)
    shifted = (motor, joint, targets + 100.0)
    assert hybrid_loss(net1, samples) == pytest.approx(hybrid_loss(net1, shifted))

    with pytest.raises(ValueError):
        hybrid_loss(net1, empty_samples())


def test_hybrid_loss_arithmetic_example():
    # pred = 1, target = 0, physics value known in closed form, lam = 0.5
    net = constant_net(1.0, lam=0.5)
    v = 0.1
    phys = scv_friction(SCV, v)   # = 1.41788...
    sample = (np.array([[v]]), np.array([[v]]), np.array([0.0]))
    expected = 0.5 * 1.0 + 0.5 * (1.0 - phys) ** 2
    assert hybrid_loss(net, sample) == pytest.approx(expected, rel=1e-12)
    assert physics_targets(net, np.array([[v]]))[0] == pytest.approx(phys)


def test_analytic_gradients_match_finite_differences():
    net = make_net(buffer_len=2, hidden1=3, hidden2=2, lam=0.4, seed=4)
    r = np.random.default_rng(5)
    motor = r.normal(size=(8, 2))
    joint = r.normal(size=(8, 2))
    targets = r.normal(size=8)
    X = net.features(motor, joint)
    phys = physics_targets(net, motor)
    _, grad = loss_and_grads(net, X, targets, phys)
    assert grad.shape == net.theta.shape
    h = 1e-6
    for i, g in enumerate(grad):
        orig = net.theta[i]
        net.theta[i] = orig + h
        lp, _ = loss_and_grads(net, X, targets, phys)
        net.theta[i] = orig - h
        lm, _ = loss_and_grads(net, X, targets, phys)
        net.theta[i] = orig
        fd = (lp - lm) / (2.0 * h)
        assert abs(g - fd) < 1e-6 * max(1.0, abs(fd)), i


def test_params_are_views_of_the_flat_vector():
    net = make_net(buffer_len=2, hidden1=3, hidden2=2, seed=4)
    assert net.theta.size == sum(v.size for v in net.params.values())
    assert np.array_equal(
        np.concatenate([net.params[k].ravel()
                        for k in ("W1", "b1", "W2", "b2", "W3", "b3")]),
        net.theta)
    for k, v in net.params.items():
        assert np.shares_memory(v, net.theta), k
    net.theta[:] = 0.0
    assert all(not v.any() for v in net.params.values())


def test_physics_targets_match_per_sample_scv():
    r = np.random.default_rng(13)
    motor = r.normal(scale=0.3, size=(257, 4))
    motor[::7, -1] = 0.0
    motor[3, -1] = -0.0
    motor[5, -1] = SCV.stribeck_vel
    net = make_net(buffer_len=4)
    phys = physics_targets(net, motor)
    assert np.array_equal(phys, reference_pinn.physics_targets(net, motor))
    assert phys[0] == 0.0 and phys[3] == 0.0


@pytest.mark.parametrize("n, batch_size", [(500, 64), (97, 13), (40, 64)])
def test_train_matches_the_per_sample_reference(monkeypatch, n, batch_size):
    # 0 < lam < 1 exercises both loss terms; a last mini-batch shorter
    # than the batch size is included.  The batch size is a module
    # constant, set here for the case of many short batches
    monkeypatch.setattr(pinn, "BATCH_SIZE", batch_size)
    t, mv, jv, fr = synthetic_log(n=n + 4, seed=0)
    jv = jv + 0.05 * np.random.default_rng(1).normal(size=len(jv))
    samples = build_samples(t, mv, jv, fr, buffer_len=5)
    nets = [make_net(buffer_len=5, hidden1=12, hidden2=9, lam=0.35, seed=3) for _ in range(2)]
    losses = train(nets[0], samples, epochs=4, seed=7)
    ref_losses = reference_pinn.train(nets[1], samples, epochs=4,
                                      batch_size=batch_size,
                                      learning_rate=pinn.LEARNING_RATE, seed=7)
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0.0)
    for k in nets[0].params:
        np.testing.assert_allclose(nets[0].params[k], nets[1].params[k],
                                   rtol=1e-12, atol=0.0, err_msg=k)
    assert np.array_equal(nets[0].norm_mean, nets[1].norm_mean)
    assert np.array_equal(nets[0].norm_std, nets[1].norm_std)


def test_train_rejects_bad_input_before_any_work():
    net = make_net()
    before = net.theta.copy()
    samples = build_samples(*synthetic_log(n=20), buffer_len=3)
    with pytest.raises(ValueError, match="samples"):
        train(net, empty_samples())
    with pytest.raises(ValueError, match="one target per buffer row"):
        train(net, samples[:2] + (samples[2][:-1],))
    assert np.array_equal(net.theta, before)
    assert not net.norm_mean.any()


def test_zero_learning_rate_leaves_parameters(monkeypatch):
    # every Adam step is scaled by the module's learning rate
    monkeypatch.setattr(pinn, "LEARNING_RATE", 0.0)
    net = make_net(seed=6)
    before = net.theta.copy()
    train(net, random_samples(11), epochs=3)
    assert np.array_equal(net.theta, before)


def test_training_divergence_reports_step():
    net = make_net(seed=7)
    net.params["b3"][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError,
                                                      match="step 0"):
        train(net, random_samples(5))


def test_training_loss_drops_100x_on_synthetic_data():
    t, mv, jv, fr = synthetic_log()
    samples = build_samples(t, mv, jv, fr, buffer_len=3)
    net = make_net(buffer_len=3, hidden1=24, hidden2=16, lam=0.2, seed=8)
    # no epochs: the normalization is fitted, the weights stay initial
    train(net, samples, epochs=0)
    start = hybrid_loss(net, samples)
    losses = train(net, samples, epochs=40, seed=9)
    assert len(losses) == 40
    assert hybrid_loss(net, samples) < start / 100.0


def test_build_samples_window_alignment():
    t = np.arange(6) * 1e-3
    mv = np.arange(6.0)
    jv = 10.0 + np.arange(6.0)
    fr = 100.0 + np.arange(6.0)
    motor, joint, target = build_samples(t, mv, jv, fr, buffer_len=3)
    assert motor.shape == joint.shape == (4, 3) and target.shape == (4,)
    assert np.array_equal(motor[0], [0.0, 1.0, 2.0])
    assert np.array_equal(joint[0], [10.0, 11.0, 12.0])
    assert np.array_equal(motor[-1], [3.0, 4.0, 5.0])
    assert np.array_equal(target, [102.0, 103.0, 104.0, 105.0])
    # the windows and targets are views of the log, not copies
    for out, log in ((motor, mv), (joint, jv), (target, fr)):
        assert np.shares_memory(out, log)
    assert len(build_samples(t[:3], mv[:3], jv[:3], fr[:3], 3)[2]) == 1
    with pytest.raises(ValueError, match="shorter than buffer length 3"):
        build_samples(t[:2], mv[:2], jv[:2], fr[:2], buffer_len=3)


def test_predict_bounded_clips_to_envelope():
    net = make_net(seed=10)
    net.params["W3"] *= 1e6  # force wild outputs
    v = 0.8
    motor = np.full((1, 3), v)
    raw = predict(net, motor, motor)[0]
    bound = 1.5 * (SCV.breakaway + SCV.viscous * abs(v))
    out = predict_bounded(net, motor, motor)[0]
    assert abs(out) <= bound + 1e-12
    if abs(raw) > bound:
        assert abs(abs(out) - bound) < 1e-12
    # in-range predictions pass through untouched
    calm = constant_net(0.5, buffer_len=3)
    assert np.array_equal(predict_bounded(calm, motor, motor),
                          predict(calm, motor, motor))


def test_net_serialization_round_trip(tmp_path):
    t, mv, jv, fr = synthetic_log(n=400)
    samples = build_samples(t, mv, jv, fr, buffer_len=3)
    net = make_net(seed=11)
    train(net, samples, epochs=2)
    path = tmp_path / "nets.json"
    save_nets(path, {"j0": net})
    loaded = load_nets(path)["j0"]
    r = np.random.default_rng(12)
    m, j = r.normal(size=(4, 3)), r.normal(size=(4, 3))
    assert np.array_equal(predict(loaded, m, j), predict(net, m, j))
    assert loaded.scv == net.scv
    assert loaded.buffer_len == net.buffer_len
    assert np.array_equal(loaded.theta, net.theta)

    # files may carry a `dropout` setting, which inference never applied
    doc = json.loads(path.read_text())
    assert "dropout" not in doc["nets"]["j0"]
    doc["nets"]["j0"]["dropout"] = 0.2
    path.write_text(json.dumps(doc))
    assert np.array_equal(predict(load_nets(path)["j0"], m, j),
                          predict(net, m, j))

    # a file whose parameters do not fit the net it describes is refused
    doc = json.loads(path.read_text())
    doc["nets"]["j0"]["params"]["W2"] = [[0.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="W2"):
        load_nets(path)

    # a file of any version but the one save_nets writes is refused
    doc = json.loads(path.read_text())
    doc["nets"]["j0"]["params"]["W2"] = net.params["W2"].tolist()
    path.write_text(json.dumps(dict(doc, schema_version=2)))
    with pytest.raises(ValueError, match=r"^schema_version must be 1, got 2$"):
        load_nets(path)
