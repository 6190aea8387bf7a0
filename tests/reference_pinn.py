"""Per-sample reference for friction-net training.

This is the training loop `pinn.train` replaced.  It takes the same
(motor, joint, target) sample set, but each mini-batch gathers its rows
from the raw windows and builds its own features, the SCV prior is
evaluated one sample at a time, the gradient is a dict of per-parameter
arrays and Adam updates each parameter array in turn.  The arithmetic
of every expression is the one `pinn.train` uses, so `test_pinn.py`
requires the two to agree to rounding.  `hybrid_loss` is the loss the
step minimizes, evaluated on a sample set.
"""

import numpy as np

from torquesense.friction import scv_friction
from torquesense.pinn import predict


def physics_targets(net, motor):
    """SCV friction at the newest motor velocity, one sample at a time."""
    return np.array([scv_friction(net.scv, v) for v in motor[:, -1]])


def hybrid_loss(net, samples):
    """Blended data/physics loss over a (motor, joint, target) set."""
    motor, joint, targets = samples
    if len(targets) == 0:
        raise ValueError("samples must be nonempty")
    pred = predict(net, motor, joint)
    phys = physics_targets(net, motor)
    data_term = np.mean((pred - targets) ** 2)
    phys_term = np.mean((pred - phys) ** 2)
    return (1.0 - net.lam) * data_term + net.lam * phys_term


def forward(params, X):
    z1 = X @ params["W1"].T + params["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params["W2"].T + params["b2"]
    h2 = np.maximum(z2, 0.0)
    y = h2 @ params["W3"].T + params["b3"]
    return y[:, 0], (X, z1, h1, z2, h2)


def loss_and_grads(net, X, targets, phys):
    """Hybrid loss and a dict of per-parameter gradients."""
    p = net.params
    pred, (X, z1, h1, z2, h2) = forward(p, X)
    n = len(pred)
    r_data = pred - targets
    r_phys = pred - phys
    loss = (1.0 - net.lam) * np.mean(r_data ** 2) + net.lam * np.mean(r_phys ** 2)

    g = 2.0 * ((1.0 - net.lam) * r_data + net.lam * r_phys) / n
    grads = {}
    grads["W3"] = (g @ h2)[None, :]
    grads["b3"] = np.array([g.sum()])
    dh2 = np.outer(g, p["W3"][0])
    dz2 = dh2 * (z2 > 0.0)
    grads["W2"] = dz2.T @ h1
    grads["b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ p["W2"]
    dz1 = dh1 * (z1 > 0.0)
    grads["W1"] = dz1.T @ X
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


class AdamState:
    """Adam moments kept per parameter array."""

    def __init__(self, net, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in net.params.items()}


def train_step(net, batch, opt):
    """One Adam step on a (motor, joint, target) batch."""
    motor, joint, targets = batch
    X = net.features(motor, joint)
    phys = physics_targets(net, motor)
    loss, grads = loss_and_grads(net, X, targets, phys)
    if not np.isfinite(loss):
        raise ArithmeticError(f"training diverged at step {opt.step_count}")
    opt.step_count += 1
    b1c = 1.0 - opt.beta1 ** opt.step_count
    b2c = 1.0 - opt.beta2 ** opt.step_count
    for k, gval in grads.items():
        opt.m[k] = opt.beta1 * opt.m[k] + (1.0 - opt.beta1) * gval
        opt.v[k] = opt.beta2 * opt.v[k] + (1.0 - opt.beta2) * gval * gval
        mhat = opt.m[k] / b1c
        vhat = opt.v[k] / b2c
        net.params[k] -= opt.lr * mhat / (np.sqrt(vhat) + opt.eps)
    return float(loss)


def fit_normalization(net, motor, joint):
    X = np.hstack([motor, joint])
    net.norm_mean = X.mean(axis=0)
    std = X.std(axis=0)
    net.norm_std = np.where(std > 1e-8, std, 1.0)


def train(net, samples, epochs=20, batch_size=64, learning_rate=1e-3, seed=0):
    """The per-sample mini-batch loop; returns per-epoch mean losses."""
    motor, joint, targets = samples
    fit_normalization(net, motor, joint)
    opt = AdamState(net, learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    losses = []
    idx = np.arange(len(targets))
    for _ in range(epochs):
        rng.shuffle(idx)
        epoch = []
        for start in range(0, len(idx), batch_size):
            rows = idx[start:start + batch_size]
            batch = (motor[rows], joint[rows], targets[rows])
            epoch.append(train_step(net, batch, opt))
        losses.append(float(np.mean(epoch)))
    return losses
