"""Outside-in span tracing of the torquesense layers.

The tracer replaces public functions and methods with timing wrappers at
the names their callers look them up under (module globals such as
`plant.crba`, class attributes such as `Plant.step`), so the traced
program is the unmodified source.  Calls between functions of one module
stay untraced: a span marks a layer boundary, not every call.

Each span is (name, start_ns, end_ns, parent index); the parent is the
innermost span open when the call began, -1 at the top.
"""

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np


class Tracer:
    """Records spans in memory while its patches are installed.

    `clock` returns integer nanoseconds.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.spans = []
        self._open = []
        self._patches = []
        self._clock = clock

    def _wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent)
        return traced

    def patch(self, owner, attr, name):
        """Wrap `owner.attr` (a module global or class attribute)."""
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def rescale(self, first, factor):
        """Multiply the times of the spans from index `first` on."""
        self.spans[first:] = [(name, start * factor, end * factor, parent)
                              for name, start, end, parent
                              in self.spans[first:]]

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _targets():
    """(owner, attribute, span name) for every traced boundary.

    Dynamics functions are found wherever another torquesense module
    imported them, so a caller added later is traced without an edit
    here.  Targets a later version of the program no longer has are
    skipped; their metrics then read as not run.
    """
    import torquesense
    from torquesense import dynamics

    explicit = [
        ("experiments", "run_scenario", "experiments.run_scenario"),
        ("experiments", "generate_friction_dataset",
         "experiments.generate_friction_dataset"),
        ("experiments", "OnlineKf.update", "experiments.online_kf_update"),
        ("experiments", "high_level_balancer", "control.high_level_balancer"),
        ("control", "TorquePI.__call__", "control.torque_pi"),
        ("plant", "Plant.step", "plant.step"),
        ("ukf", "TorqueUkf.step", "ukf.step"),
        ("ukf", "ComplementaryAttitude.update", "ukf.attitude_update"),
        ("pinn", "predict_bounded", "pinn.predict_bounded"),
        ("pinn", "train", "pinn.train"),
        ("ga", "tune_kf", "ga.tune_kf"),
        ("ga", "kf_fitness", "ga.kf_fitness"),
        ("ga", "filter_trace", "kf.filter_trace"),
    ]
    out = []
    for module, path, name in explicit:
        owner = importlib.import_module(f"torquesense.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is not None and hasattr(owner, attr):
            out.append((owner, attr, name))
    public = {name: fn for name, fn in vars(dynamics).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == dynamics.__name__}
    for info in pkgutil.iter_modules(torquesense.__path__):
        mod = importlib.import_module(f"torquesense.{info.name}")
        if mod is dynamics:
            continue
        for name, fn in public.items():
            if vars(mod).get(name) is fn:
                out.append((mod, name, f"dynamics.{name}"))
    return out


def install(tracer):
    for owner, attr, name in _targets():
        tracer.patch(owner, attr, name)


# ---------------------------------------------------------------- reduction

DYNAMICS_TIMED = ("joint_transforms", "link_states", "crba", "coriolis_bias",
                  "frame_jacobian", "compute_dynamics_terms", "com_velocity")
DYNAMICS_CALLERS = ("plant", "ukf", "control")


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, timed_ns, train_samples=0):
    """Per-layer numbers from the spans of the traced operations.

    `timed_ns` is the time of those operations; self fractions are
    shares of it.  `train_samples` counts the samples (times epochs) the
    traced `pinn.train` calls processed.  Timings of a layer that made
    no call read 0.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    parent_names = [names[p] if p >= 0 else "" for p in parent]
    child_ns = np.zeros(n, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child_ns, parent[has_parent], dur[has_parent])
    self_ns = dur - child_ns

    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name):
        return np.array(by_name.get(name, []), dtype=np.int64)

    def pct_us(name, q):
        d = dur[idx(name)]
        return float(np.percentile(d, q)) / 1e3 if len(d) else 0.0

    def count(name):
        return len(by_name.get(name, []))

    def self_frac(prefix):
        sel = np.array([nm.startswith(prefix) for nm in names], dtype=bool)
        return float(self_ns[sel].sum()) / timed_ns if n else 0.0

    def calls(prefix, caller):
        """Spans named `prefix`* whose parent span is in layer `caller`."""
        return sum(1 for nm, pn in zip(names, parent_names)
                   if nm.startswith(prefix) and _layer(pn) == caller)

    def rate(k, name):
        total = dur[idx(name)].sum()
        return k / (total / 1e9) if total else 0.0

    ticks = count("plant.step")
    per_tick = (lambda k: k / ticks) if ticks else (lambda k: 0.0)

    m = {
        "plant.step.p50_us": pct_us("plant.step", 50),
        "plant.step.p99_us": pct_us("plant.step", 99),
        "plant.self_frac": self_frac("plant."),
        "plant.derivs_per_step": per_tick(
            calls("dynamics.joint_transforms", "plant")),
    }
    for fn in DYNAMICS_TIMED:
        m[f"dynamics.{fn}.p50_us"] = pct_us(f"dynamics.{fn}", 50)
    for caller in DYNAMICS_CALLERS:
        m[f"dynamics.calls_per_tick.{caller}"] = per_tick(
            calls("dynamics.", caller))
    m["dynamics.self_frac"] = self_frac("dynamics.")
    m.update({
        "ukf.step.p50_us": pct_us("ukf.step", 50),
        "ukf.step.p99_us": pct_us("ukf.step", 99),
        "ukf.self_frac": self_frac("ukf.step"),
        "ukf.attitude_update.p50_us": pct_us("ukf.attitude_update", 50),
        "pinn.predict_bounded.p50_us": pct_us("pinn.predict_bounded", 50),
        "pinn.predict_calls_per_tick": per_tick(count("pinn.predict_bounded")),
        "pinn.train_s": pct_us("pinn.train", 50) / 1e6,
        "pinn.train.samples_per_s": rate(train_samples, "pinn.train"),
        "control.high_level_balancer.p50_us":
            pct_us("control.high_level_balancer", 50),
        "control.torque_pi.p50_us": pct_us("control.torque_pi", 50),
        "experiments.online_kf_update.p50_us":
            pct_us("experiments.online_kf_update", 50),
        "experiments.self_frac": self_frac("experiments.run_scenario"),
        "kf.filter_trace.p50_us": pct_us("kf.filter_trace", 50),
        "ga.tune_s": pct_us("ga.tune_kf", 50) / 1e6,
    })
    m["ga.evals_per_s"] = rate(count("ga.kf_fitness"), "ga.tune_kf")
    return m
