"""Physics-informed friction estimator.

A small numpy MLP maps motor/joint velocity buffers to a friction
torque.  Training blends a data term against logged friction with a
physics term that pulls predictions toward the closed-form
Stribeck-Coulomb-viscous curve evaluated at the newest motor velocity:

    L = (1 - lam) * mean((pred - true)^2) + lam * mean((pred - scv)^2)

Friction data has one format.  `build_samples` slides a length-L window
over an identification log and returns `(motor, joint, target)`: (N, L)
motor and joint velocity windows, oldest sample first, and the (N,)
friction torque at each window's newest sample.  `train` and
`validation_mse` take that triple; `predict` takes (k, L) buffers and
returns (k,) torques.

Backprop and Adam are implemented by hand so gradients can be verified
against finite differences.  The net's parameters are one flat vector
(`FrictionNet.theta`; `params` are named views into it), so the
gradient is one vector of the same layout and an Adam step is a few
vector operations.  `train` fits the input normalization to its set and
builds the normalized features, the targets and the physics targets
(one vectorized SCV evaluation) once per call; each shuffled mini-batch
is a row gather from them.
"""

import json

import numpy as np

from .friction import ScvParams, scv_friction

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 2e-3    # Adam step size
BATCH_SIZE = 64         # samples per mini-batch
# `predict_bounded` clips to this multiple of the SCV envelope
BOUND_MARGIN = 1.5


class FrictionNet:
    """Two-hidden-layer ReLU MLP with input normalization."""

    def __init__(self, buffer_len, hidden1, hidden2, lam, scv,
                 norm_mean=None, norm_std=None, seed=0):
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"physics weight must lie in [0, 1], got {lam}")
        for name, size in (("buffer_len", buffer_len), ("hidden1", hidden1),
                           ("hidden2", hidden2)):
            if size < 1:
                raise ValueError(f"{name} must be at least 1, got {size}")
        self.buffer_len = int(buffer_len)
        self.lam = float(lam)
        self.scv = scv
        d = 2 * self.buffer_len
        self.norm_mean = np.zeros(d) if norm_mean is None else np.asarray(norm_mean, float)
        self.norm_std = np.ones(d) if norm_std is None else np.asarray(norm_std, float)
        for name, v in (("norm_mean", self.norm_mean),
                        ("norm_std", self.norm_std)):
            if v.shape != (d,) or not np.isfinite(v).all():
                raise ValueError(f"{name} must hold 2 * buffer_len = {d} "
                                 f"finite numbers, got {v.tolist()}")
        if np.any(self.norm_std <= 0.0):
            raise ValueError("normalization std must be positive")
        shapes = (("W1", (hidden1, d)), ("b1", (hidden1,)),
                  ("W2", (hidden2, hidden1)), ("b2", (hidden2,)),
                  ("W3", (1, hidden2)), ("b3", (1,)))
        self._layout = []
        off = 0
        for name, shape in shapes:
            size = int(np.prod(shape))
            self._layout.append((name, off, off + size, shape))
            off += size
        # every parameter lives in one flat vector, so Adam updates the
        # whole net in a few vector operations; `params` are views into it
        self.theta = np.zeros(off)
        self.params = self.unflatten(self.theta)
        rng = np.random.default_rng(seed)
        # He initialization; small random biases keep ReLU preactivations
        # away from the exact kink (important for finite-difference checks)
        p = self.params
        p["W1"][:] = rng.normal(0.0, np.sqrt(2.0 / d), size=(hidden1, d))
        p["b1"][:] = rng.normal(0.0, 0.01, size=hidden1)
        p["W2"][:] = rng.normal(0.0, np.sqrt(2.0 / hidden1), size=(hidden2, hidden1))
        p["b2"][:] = rng.normal(0.0, 0.01, size=hidden2)
        p["W3"][:] = rng.normal(0.0, np.sqrt(1.0 / hidden2), size=(1, hidden2))

    def unflatten(self, flat):
        """Views of a vector laid out like `theta`, keyed by parameter name."""
        return {name: flat[start:stop].reshape(shape)
                for name, start, stop, shape in self._layout}

    def _raw_features(self, motor, joint):
        motor = np.asarray(motor, dtype=float)
        joint = np.asarray(joint, dtype=float)
        if (motor.ndim != 2 or motor.shape != joint.shape
                or motor.shape[1] != self.buffer_len):
            raise ValueError(
                f"buffers must be (k, {self.buffer_len}) arrays of one "
                f"shape, got {motor.shape} and {joint.shape}")
        return np.hstack([motor, joint])

    def features(self, motor, joint):
        """Normalized (k, 2L) feature rows from (k, L) velocity buffers."""
        return (self._raw_features(motor, joint) - self.norm_mean) / self.norm_std


def _forward(params, X):
    """Forward pass; returns the outputs and the activations backprop reads."""
    z1 = X @ params["W1"].T + params["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params["W2"].T + params["b2"]
    h2 = np.maximum(z2, 0.0)
    y = h2 @ params["W3"].T + params["b3"]
    return y[:, 0], (X, z1, h1, z2, h2)


def predict(net, motor, joint):
    """(k,) friction torques from (k, L) buffers."""
    y, _ = _forward(net.params, net.features(motor, joint))
    return y


def predict_bounded(net, motor, joint):
    """Prediction clipped to the physical friction envelope.

    The friction magnitude can never exceed the breakaway level plus the
    viscous term, so anything outside |F_s + k_v |v|| * BOUND_MARGIN is
    extrapolation error (the net saw no such regime during training).
    Closed-loop use feeds the net its own consequences, which can push
    the velocity buffers out of distribution; the clip keeps a single
    bad sample from ever injecting a large spurious torque.
    """
    y = predict(net, motor, joint)
    v = np.asarray(motor, dtype=float)[:, -1]
    bound = BOUND_MARGIN * (net.scv.breakaway + net.scv.viscous * np.abs(v))
    return np.minimum(np.maximum(y, -bound), bound)  # np.clip, unwrapped


def physics_targets(net, motor):
    """SCV friction evaluated at the newest motor velocity of each buffer."""
    return scv_friction(net.scv, np.asarray(motor, dtype=float)[:, -1])


def loss_and_grads(net, X, targets, phys):
    """Hybrid loss and its gradient, a flat vector laid out like `net.theta`.

    `X` is the normalized feature matrix; `phys` the physics targets.
    """
    p = net.params
    pred, (X, z1, h1, z2, h2) = _forward(p, X)
    n = len(pred)
    r_data = pred - targets
    r_phys = pred - phys
    loss = (1.0 - net.lam) * np.mean(r_data ** 2) + net.lam * np.mean(r_phys ** 2)

    g = 2.0 * ((1.0 - net.lam) * r_data + net.lam * r_phys) / n
    grad = np.empty_like(net.theta)
    grads = net.unflatten(grad)
    grads["W3"][0] = g @ h2
    grads["b3"][0] = g.sum()
    dh2 = np.outer(g, p["W3"][0])
    dz2 = dh2 * (z2 > 0.0)
    grads["W2"][:] = dz2.T @ h1
    grads["b2"][:] = dz2.sum(axis=0)
    dh1 = dz2 @ p["W2"]
    dz1 = dh1 * (z1 > 0.0)
    grads["W1"][:] = dz1.T @ X
    grads["b1"][:] = dz1.sum(axis=0)
    return loss, grad


def build_samples(t, motor_vel, joint_vel, friction, buffer_len):
    """Slide a length-L window over a log; returns (motor, joint, target).

    `motor` and `joint` are (N, L) read-only views of the log, one window
    per row, oldest sample first; `target` is the (N,) friction torque at
    each window's newest sample, N = len(t) - L + 1.
    """
    log = [np.asarray(a, dtype=float)
           for a in (t, motor_vel, joint_vel, friction)]
    lengths = [len(a) for a in log]
    if len(set(lengths)) != 1:
        raise ValueError("log columns must have equal lengths, got "
                         "t, motor_vel, joint_vel, friction = "
                         + ", ".join(map(str, lengths)))
    if lengths[0] < buffer_len:
        raise ValueError(f"log shorter than buffer length {buffer_len}")
    target = log[3][buffer_len - 1:]
    bad = np.flatnonzero(~np.isfinite(target))
    if len(bad):
        k = bad[0] + buffer_len - 1
        raise ValueError(f"friction target not finite at sample {k}: "
                         f"{target[bad[0]]}")
    window = np.lib.stride_tricks.sliding_window_view
    return window(log[1], buffer_len), window(log[2], buffer_len), target


def _sample_arrays(samples):
    """`samples` unpacked, checked to hold one target per buffer row and
    at least one row."""
    motor, joint, targets = samples
    if len(targets) == 0:
        raise ValueError("samples must be nonempty")
    if len(motor) != len(targets):
        raise ValueError(f"samples must hold one target per buffer row, got "
                         f"{len(motor)} rows and {len(targets)} targets")
    return motor, joint, targets


def train(net, samples, epochs=20, seed=0):
    """Mini-batch Adam training on (motor, joint, target), `BATCH_SIZE`
    samples a batch at the `LEARNING_RATE`; returns per-epoch mean
    losses.

    The input normalization is fitted to the set, then the features and
    both targets of every sample are built once; each shuffled
    mini-batch is a row gather from them.  A batch loss that is not
    finite raises ArithmeticError naming its step, counted from 0.
    """
    motor, joint, targets = _sample_arrays(samples)
    raw = net._raw_features(motor, joint)
    net.norm_mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    net.norm_std = np.where(std > 1e-8, std, 1.0)
    X = (raw - net.norm_mean) / net.norm_std
    phys = physics_targets(net, motor)
    m = np.zeros_like(net.theta)  # Adam's moments, laid out like theta
    v = np.zeros_like(net.theta)
    steps = 0
    rng = np.random.default_rng(seed)
    losses = []
    idx = np.arange(len(targets))
    for _ in range(epochs):
        rng.shuffle(idx)
        epoch = []
        for start in range(0, len(idx), BATCH_SIZE):
            rows = idx[start:start + BATCH_SIZE]
            loss, grad = loss_and_grads(net, X[rows], targets[rows],
                                        phys[rows])
            if not np.isfinite(loss):
                raise ArithmeticError(f"training diverged at step {steps}")
            steps += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            mhat = m / (1.0 - ADAM_BETA1 ** steps)
            vhat = v / (1.0 - ADAM_BETA2 ** steps)
            net.theta -= LEARNING_RATE * mhat / (np.sqrt(vhat) + ADAM_EPS)
            epoch.append(float(loss))
        losses.append(float(np.mean(epoch)))
    return losses


def validation_mse(net, samples):
    """Plain data MSE on a held-out (motor, joint, target) set (no physics term)."""
    motor, joint, targets = _sample_arrays(samples)
    return float(np.mean((predict(net, motor, joint) - targets) ** 2))


def _net_to_dict(net):
    return {
        "buffer_len": net.buffer_len,
        "lam": net.lam,
        "scv": {"coulomb": net.scv.coulomb, "breakaway": net.scv.breakaway,
                "stribeck_vel": net.scv.stribeck_vel, "viscous": net.scv.viscous},
        "norm_mean": net.norm_mean.tolist(),
        "norm_std": net.norm_std.tolist(),
        "params": {k: v.tolist() for k, v in net.params.items()},
    }


def _net_from_dict(d):
    """A net from its saved form.  A parameter of the wrong shape or a
    number that is not finite raises ValueError."""
    net = FrictionNet(d["buffer_len"], len(d["params"]["b1"]),
                      len(d["params"]["b2"]), d["lam"],
                      ScvParams(**d["scv"]),
                      norm_mean=d["norm_mean"], norm_std=d["norm_std"])
    if set(d["params"]) != set(net.params):
        raise ValueError(f"parameters {sorted(d['params'])} do not match "
                         f"{sorted(net.params)}")
    for k, v in d["params"].items():
        v = np.asarray(v, dtype=float)
        if v.shape != net.params[k].shape:
            raise ValueError(f"parameter {k} has shape {v.shape}, "
                             f"expected {net.params[k].shape}")
        if not np.isfinite(v).all():
            raise ValueError(f"parameter {k} holds a number that is not "
                             f"finite")
        net.params[k][...] = v
    return net


def save_nets(path, nets):
    """Serialize trained nets keyed by joint name (versioned JSON)."""
    doc = {"schema_version": 1,
           "nets": {name: _net_to_dict(net) for name, net in nets.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _mapping(label, value):
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be a mapping, got "
                         f"{type(value).__name__}")
    return value


def load_nets(path):
    """Nets keyed by joint name from a `save_nets` file of schema
    version 1; any other version, or a top level, `nets` value or
    joint entry that is no mapping, raises ValueError.

    Joints whose saved nets are equal get one shared net, as
    `experiments.default_friction_nets` shares one between joints of
    equal friction, so a run predicts once per distinct net and gives
    the same results as with the nets that were saved.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = _mapping("the top level", json.load(fh))
    if doc["schema_version"] != 1:
        raise ValueError(f"schema_version must be 1, got "
                         f"{doc['schema_version']!r}")
    distinct = {}
    nets = {}
    for name, d in _mapping("'nets'", doc["nets"]).items():
        key = json.dumps(_mapping(f"nets[{name!r}]", d), sort_keys=True)
        if key not in distinct:
            distinct[key] = _net_from_dict(d)
        nets[name] = distinct[key]
    return nets
